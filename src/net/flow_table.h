// Open-addressing flow table: (local_port, remote ip:port) -> TcpConnection*.
//
// A kernel-bypass stack steering a million concurrent flows cannot afford a
// node-based hash map on the RX fast path: every segment demultiplex would chase a
// bucket pointer into cold memory. This table keeps flat storage — one 16-byte slot
// per flow (packed 64-bit key + connection pointer) — with linear probing, so a
// lookup touches one cache line in the common case and the probe sequence is
// hardware-prefetchable when it does run long.
//
// The 4-tuple packs into 64 bits because the local IP is implied (one stack, one
// IP): remote IPv4 (32) | remote port (16) | local port (16). Key 0 (remote
// 0.0.0.0:0, local port 0) can never describe a live flow and doubles as the empty
// sentinel, so slots need no separate occupancy bit. Deletion uses backward-shift
// compaction instead of tombstones: erase cost is bounded by the local cluster
// length and lookups never slow down as flows churn — important under open-loop
// connection churn where millions of flows come and go over a run.
//
// Probe-length statistics are kept on every lookup so benchmarks and tests can
// assert O(1) behaviour (mean probes stay flat as the table grows into the
// millions) rather than trusting it.

#ifndef SRC_NET_FLOW_TABLE_H_
#define SRC_NET_FLOW_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/net/packet.h"

namespace demi {

class TcpConnection;

class FlowTable {
 public:
  struct Stats {
    std::uint64_t lookups = 0;        // Find/Contains calls
    std::uint64_t lookup_probes = 0;  // slots inspected across those calls
    std::uint64_t max_probe = 0;      // longest single probe sequence observed
    std::uint64_t grows = 0;          // capacity doublings
  };

  explicit FlowTable(std::size_t min_slots = 1024);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  const Stats& stats() const { return stats_; }

  static std::uint64_t PackKey(std::uint16_t local_port, const Endpoint& remote) {
    return (static_cast<std::uint64_t>(remote.ip.addr) << 32) |
           (static_cast<std::uint64_t>(remote.port) << 16) |
           static_cast<std::uint64_t>(local_port);
  }

  // Inserts or overwrites the mapping for this 4-tuple.
  void Insert(std::uint16_t local_port, const Endpoint& remote, TcpConnection* conn);
  // nullptr when the flow is absent.
  TcpConnection* Find(std::uint16_t local_port, const Endpoint& remote) const;
  bool Contains(std::uint16_t local_port, const Endpoint& remote) const {
    return Find(local_port, remote) != nullptr;
  }
  // Returns whether the flow was present.
  bool Erase(std::uint16_t local_port, const Endpoint& remote);

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty
    TcpConnection* conn = nullptr;
  };

  // Full avalanche over the packed key, so sequential ports and adversarially
  // clustered 4-tuples still spread across the table.
  static std::uint64_t HashKey(std::uint64_t x) { return SplitMix64(x); }

  void Grow();

  std::vector<Slot> slots_;  // capacity is always a power of two
  std::size_t mask_;
  std::size_t size_ = 0;
  mutable Stats stats_;
};

}  // namespace demi

#endif  // SRC_NET_FLOW_TABLE_H_
