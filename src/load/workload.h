// Request/response workload models for the open-loop harness.
//
// Both workloads share one wire protocol so the server stays a lean byte-stream
// machine with no per-workload parsing: every request is exactly `request_bytes`
// long and its first 4 bytes carry the expected response length (little-endian).
// Requests and responses each travel as one §5.2 frame (client_fleet.h); the
// server answers each request with that many bytes sliced from one shared
// pre-built blob — no per-request payload allocation on either side.
//
//   - Echo: response length == request length. The SLO baseline.
//   - KV: the client samples a key from a Zipfian popularity distribution (hot keys
//     dominate, as in production caches) and the response length is the key's value
//     size — a deterministic hash of the key into a small set of size classes. Skew
//     therefore shows up on the wire as a skewed response-size mix.
//
// Request payloads are pre-built per distinct response length (one for echo, one
// per size class for KV) and shared by reference: issuing a request is a refcount
// bump, never an allocation or copy.

#ifndef SRC_LOAD_WORKLOAD_H_
#define SRC_LOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/random.h"
#include "src/net/framing.h"

namespace demi {

enum class WorkloadKind { kEcho, kKv };

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kEcho;
  std::size_t request_bytes = 64;  // fixed request size; must be >= kResponseHeaderBytes
  // KV knobs.
  std::uint64_t kv_keys = 1 << 16;
  double zipf_theta = 0.99;  // YCSB default skew
};

class WorkloadModel {
 public:
  explicit WorkloadModel(WorkloadConfig cfg);

  const WorkloadConfig& config() const { return cfg_; }

  // One request: a shared pre-built payload and the response size it asks for.
  struct Request {
    Buffer payload;
    std::uint32_t response_bytes = 0;
  };
  Request Sample(Rng& rng);

  // KV internals, exposed for distribution tests.
  std::uint64_t SampleKey(Rng& rng) { return zipf_.Next(rng); }
  static std::uint32_t ValueBytes(std::uint64_t key);

 private:
  Buffer BuildRequest(std::uint32_t response_bytes) const;

  WorkloadConfig cfg_;
  ZipfGenerator zipf_;
  Buffer echo_request_;
  std::vector<Buffer> kv_requests_;  // one per value size class
};

}  // namespace demi

#endif  // SRC_LOAD_WORKLOAD_H_
