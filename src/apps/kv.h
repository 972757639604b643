// A Redis-like key-value engine — the paper's motivating application (§3.2: "Redis
// spends about 2µs on each read request").
//
// The engine is transport-agnostic and zero-copy-native: values are refcounted
// Buffers, a SET takes a reference to the request's value bytes, and a GET reply
// carries a reference to the stored value. Whether any byte is actually copied is the
// transport's business: the Demikernel servers push the value Buffer as an sga segment
// (no copy, §4.5 free-protection makes this safe), while the POSIX server must
// linearize the reply into a stream buffer and then pay the kernel copy — which is
// exactly the 50%-overhead contrast of experiment C1.
//
// No in-place updates exist (SET installs a new Buffer and drops the old reference),
// matching §4.5's observation about Redis that makes free-protection sufficient.

#ifndef SRC_APPS_KV_H_
#define SRC_APPS_KV_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/apps/resp.h"
#include "src/sim/simulation.h"

namespace demi {

// A command as buffer references (zero-copy form): args[0] is the opcode.
using RespArgs = std::vector<Buffer>;

// A reply that can reference stored data without copying it.
struct KvReply {
  RespValue::Kind kind = RespValue::Kind::kNil;
  std::string text;         // kSimple/kError text
  std::int64_t integer = 0; // kInteger
  Buffer bulk;              // kBulk: a REFERENCE to the stored value

  // Linearized form for byte-stream transports (copies the bulk payload).
  RespValue ToValue() const;
};

class KvEngine {
 public:
  explicit KvEngine(HostCpu* host) : host_(host) {}

  // Zero-copy execution over buffer arguments.
  KvReply Execute(std::span<const Buffer> args);

  // Convenience for tests and string-based callers.
  RespValue Execute(const RespCommand& cmd);

  // The host every request's CPU is charged to.
  HostCpu& host() const { return *host_; }
  std::size_t size() const { return store_.size(); }
  std::uint64_t requests_served() const { return requests_; }

 private:
  HostCpu* host_;
  std::unordered_map<std::string, Buffer> store_;
  std::uint64_t requests_ = 0;
};

}  // namespace demi

#endif  // SRC_APPS_KV_H_
