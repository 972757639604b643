// C3 — §4.4's scheduling claims: POSIX epoll (1) requires a second syscall to fetch
// the data after the readiness notification, and (2) wakes every thread blocked on the
// descriptor while only one finds work. Demikernel wait_* returns the data directly
// and wakes exactly the waiter holding the completed qtoken.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/harness.h"

namespace demi {
namespace {

struct HerdResult {
  std::uint64_t wakeups = 0;
  std::uint64_t spurious = 0;
  std::uint64_t syscalls_per_event = 0;
};

// One event delivered to `waiters` logical threads blocked on the same epoll fd.
HerdResult RunPosixHerd(int waiters) {
  TestHarness env;
  auto& sh = env.AddHost("server", "10.0.0.1");
  HostOptions client_opts;
  client_opts.charges_clock = false;
  auto& ch = env.AddHost("client", "10.0.0.2", client_opts);
  SimKernel& kernel = *sh.kernel;

  const int lfd = *kernel.Socket();
  (void)kernel.Bind(lfd, 7000);
  (void)kernel.Listen(lfd);
  const int cfd = *ch.kernel->Socket();
  (void)ch.kernel->Connect(cfd, Endpoint{sh.ip, 7000});
  int sfd = -1;
  env.RunUntil(
      [&] {
        auto r = kernel.Accept(lfd);
        if (r.ok()) {
          sfd = *r;
        }
        return sfd >= 0;
      },
      10 * kSecond);

  const int epfd = *kernel.EpollCreate();
  (void)kernel.EpollAdd(epfd, sfd, kEpollIn);
  for (int i = 0; i < waiters; ++i) {
    (void)kernel.EpollBlock(epfd);
  }

  const std::uint64_t wake0 = sh.cpu->counters().Get(Counter::kWakeups);
  const std::uint64_t spur0 = sh.cpu->counters().Get(Counter::kSpuriousWakeups);
  const std::uint64_t sys0 = sh.cpu->counters().Get(Counter::kSyscalls);

  (void)ch.kernel->WriteSock(cfd, Buffer::CopyOf("one event"));
  env.RunUntil([&] { return kernel.EpollBlockedCount(epfd) == 0; }, 10 * kSecond);

  // The winning thread still needs epoll_wait() to learn which fd, then read() to get
  // the data — the two extra syscalls §4.4 calls out.
  (void)kernel.EpollWait(epfd, 8);
  (void)kernel.ReadSock(sfd, 4096);

  HerdResult out;
  out.wakeups = sh.cpu->counters().Get(Counter::kWakeups) - wake0;
  out.spurious = sh.cpu->counters().Get(Counter::kSpuriousWakeups) - spur0;
  out.syscalls_per_event = sh.cpu->counters().Get(Counter::kSyscalls) - sys0;
  return out;
}

// The same one event via Demikernel: `waiters` outstanding pops on distinct queues,
// one element arrives; wait_any wakes exactly one waiter and hands it the data.
HerdResult RunDemiWait(int waiters) {
  TestHarness env;
  auto& sh = env.AddHost("server", "10.0.0.1");
  auto& libos = env.Catnip(sh);

  // In-memory queues isolate the wakeup semantics from the network.
  std::vector<QDesc> qds;
  std::vector<QToken> tokens;
  for (int i = 0; i < waiters; ++i) {
    qds.push_back(*libos.QueueCreate());
    tokens.push_back(*libos.Pop(qds.back()));
  }
  const std::uint64_t wake0 = sh.cpu->counters().Get(Counter::kWakeups);
  const std::uint64_t spur0 = sh.cpu->counters().Get(Counter::kSpuriousWakeups);
  const std::uint64_t sys0 = sh.cpu->counters().Get(Counter::kSyscalls);

  (void)libos.Push(qds[static_cast<std::size_t>(waiters) / 2], SgArray::FromString("ev"));
  auto r = libos.WaitAny(tokens, 10 * kSecond);

  HerdResult out;
  out.wakeups = sh.cpu->counters().Get(Counter::kWakeups) - wake0;
  out.spurious = sh.cpu->counters().Get(Counter::kSpuriousWakeups) - spur0;
  out.syscalls_per_event = sh.cpu->counters().Get(Counter::kSyscalls) - sys0;
  // The data came back WITH the wakeup (no second call):
  if (!r.ok() || r->second.sga.total_bytes() != 2) {
    out.wakeups = UINT64_MAX;  // flag failure
  }
  return out;
}

int Run() {
  bench::Header("C3", "wakeup semantics: epoll herd vs wait_any (Section 4.4)",
                "epoll wakes every blocked thread per event and needs an extra "
                "syscall for the data; wait_* wakes exactly one waiter and returns "
                "the data directly");
  CostModel cost;
  bench::PrintCostModel(cost);

  bench::Row("%-9s | %-10s %-10s %-12s | %-10s %-10s %-12s\n", "waiters", "epoll",
             "epoll", "epoll sys", "wait_any", "wait_any", "wait_any sys");
  bench::Row("%-9s | %-10s %-10s %-12s | %-10s %-10s %-12s\n", "", "wakeups", "wasted",
             "per event", "wakeups", "wasted", "per event");
  bench::Row("---------------------------------------------------------------------------------\n");

  bench::Record& rec = bench::Begin("bench_c3_wakeups", FabricConfig{}.seed);
  bench::Json rows = bench::Json::Array();
  bool shape_ok = true;
  for (const int waiters : {1, 2, 4, 8, 16}) {
    const HerdResult posix = RunPosixHerd(waiters);
    const HerdResult demi = RunDemiWait(waiters);
    bench::Row("%-9d | %10llu %10llu %12llu | %10llu %10llu %12llu\n", waiters,
               static_cast<unsigned long long>(posix.wakeups),
               static_cast<unsigned long long>(posix.spurious),
               static_cast<unsigned long long>(posix.syscalls_per_event),
               static_cast<unsigned long long>(demi.wakeups),
               static_cast<unsigned long long>(demi.spurious),
               static_cast<unsigned long long>(demi.syscalls_per_event));
    rows.Push(bench::Json::Object()
                  .Add("waiters", waiters)
                  .Add("epoll_wakeups", posix.wakeups)
                  .Add("epoll_wasted", posix.spurious)
                  .Add("epoll_syscalls_per_event", posix.syscalls_per_event)
                  .Add("wait_any_wakeups", demi.wakeups)
                  .Add("wait_any_wasted", demi.spurious)
                  .Add("wait_any_syscalls_per_event", demi.syscalls_per_event));
    shape_ok = shape_ok && posix.wakeups == static_cast<std::uint64_t>(waiters) &&
               posix.spurious == static_cast<std::uint64_t>(waiters - 1) &&
               demi.wakeups == 1 && demi.spurious == 0 && demi.syscalls_per_event == 0;
  }

  rec.sim.Add("rows", rows);

  std::printf("\nepoll's cost per event grows with the waiter count; wait_any's is "
              "constant: one wakeup, zero syscalls, data included.\n");
  bench::Verdict(shape_ok, "herd wakeups = waiters (all but one wasted) under epoll; "
                           "exactly one under wait_any, with the data returned in-line");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
