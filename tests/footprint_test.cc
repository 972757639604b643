// Per-connection heap footprint (ctest -L load). This binary replaces the global
// operator new/delete to count live heap bytes, ramps a small SmpHarness (one
// Catnip worker, echo) and bounds the live bytes each established connection adds
// across Ramp(). An idle connection's queues allocate nothing until first use, so
// the figure is the connection objects themselves plus whatever the handshake
// actually filled, not a few KB of empty queue storage per flow.

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/load/smp_harness.h"

namespace {

// Usable bytes of every live allocation made through the replaced operators below.
std::atomic<long long> g_live_bytes{0};

[[gnu::noinline]] void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

[[gnu::noinline]] void CountedFree(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

// Every non-aligned form is replaced, so each allocation is freed by its own
// counterpart; the aligned forms keep the library's own paired implementation.
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace demi {
namespace {

constexpr std::size_t kConnections = 2048;
// Measured at 3,920 B per connection (g++ 12, x86-64, glibc); with one eager
// std::deque per queue it was 12,956 B. The bound leaves ~50% headroom for allocator
// and library differences while still failing if empty queues allocate again.
constexpr long long kMaxBytesPerConnection = 6000;

TEST(FootprintTest, IdleConnectionsCostLittleHeapAcrossRamp) {
  SmpHarnessConfig cfg;
  cfg.workers = 1;
  cfg.connections = kConnections;
  cfg.client_stacks = 4;
  cfg.workload.kind = WorkloadKind::kEcho;
  cfg.seed = 1;
  SmpHarness h(cfg);

  const long long before = g_live_bytes.load();
  ASSERT_TRUE(h.Ramp());
  const long long after = g_live_bytes.load();
  ASSERT_EQ(h.established_connections(), kConnections);

  const long long per_conn = (after - before) / static_cast<long long>(kConnections);
  std::printf("live heap per established connection across Ramp(): %lld B\n", per_conn);
  RecordProperty("bytes_per_connection", static_cast<int>(per_conn));
  EXPECT_GT(per_conn, 0);  // the counting operators are really in use
  EXPECT_LE(per_conn, kMaxBytesPerConnection);
}

}  // namespace
}  // namespace demi
