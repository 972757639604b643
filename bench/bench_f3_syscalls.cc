// F3 — Figure 3: microbenchmarks of the whole Demikernel system-call interface.
//
// Simulated CPU cost of each call in the figure: the data-path calls
// (push/pop/wait/sgaalloc) on an in-memory queue isolate interface overhead from any
// device, and the queue-combinator calls are measured per element. The paper's
// position: a libOS "syscall" is a function call plus table lookups — tens of ns, not
// the ~500ns of a kernel crossing.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "include/demikernel/demikernel.h"

namespace demi {
namespace {

class PureLibOS final : public LibOS {
 public:
  explicit PureLibOS(HostCpu* host) : LibOS(host) {}
  std::string name() const override { return "pure"; }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override {
    return Status(ErrorCode::kUnsupported, "no device");
  }
};

// Measures simulated CPU per iteration of `fn`.
template <typename Fn>
double Measure(Simulation& sim, int iters, Fn&& fn) {
  const TimeNs start = sim.now();
  for (int i = 0; i < iters; ++i) {
    fn(i);
  }
  while (sim.StepOnce()) {
  }
  return static_cast<double>(sim.now() - start) / iters;
}

int Run() {
  bench::Header("F3", "Demikernel system-call interface microbenchmarks (Figure 3)",
                "libOS calls cost function-call time (~tens of ns), versus ~500ns+ "
                "for the kernel crossing they replace (Section 3.1)");
  CostModel cost;
  bench::PrintCostModel(cost);

  Simulation sim(cost);
  HostCpu host(&sim, "h");
  PureLibOS libos(&host);
  constexpr int kIters = 2000;

  bench::Record& rec = bench::Begin("bench_f3_syscalls", nullptr);  // no random draws
  rec.config.Add("iters", kIters)
      .Add("syscall_ns", cost.syscall_ns)
      .Add("fastcall_crossing_ns", cost.fastcall_crossing_ns)
      .Add("libos_call_ns", cost.libos_call_ns);

  bench::Row("%-42s %12s\n", "operation", "ns/op (sim)");
  bench::Json rows = bench::Json::Array();
  double costliest_ns = 0;
  const auto row = [&](const char* op, double ns) {
    bench::Row("%-42s %12.1f\n", op, ns);
    rows.Push(bench::Json::Object().Add("op", op).Add("ns_per_op", bench::Fixed(ns, 1)));
    costliest_ns = std::max(costliest_ns, ns);
    return ns;
  };

  const QDesc qd = *libos.QueueCreate();

  const double push_ns =
      row("push(qd, sga)  [in-memory queue]",
          Measure(sim, kIters, [&](int) { (void)libos.Push(qd, SgArray()); }));
  const double pop_ns =
      row("pop(qd)", Measure(sim, kIters, [&](int) { (void)libos.Pop(qd); }));

  // wait on an already-complete token: pure completion-table cost.
  std::vector<QToken> tokens;
  tokens.reserve(kIters);
  for (int i = 0; i < kIters; ++i) {
    (void)libos.Push(qd, SgArray());
    tokens.push_back(*libos.Pop(qd));
  }
  while (sim.StepOnce()) {
  }
  const double wait_ns =
      row("wait(qt) on a ready completion",
          Measure(sim, kIters, [&](int i) { (void)libos.Wait(tokens[i], 0); }));

  row("sgaalloc(64B)  [pooled]",
      Measure(sim, kIters, [&](int) { (void)libos.SgaAlloc(64); }));
  row("sgaalloc(4KB)  [pooled]",
      Measure(sim, kIters, [&](int) { (void)libos.SgaAlloc(4096); }));

  // Combinators: per-element cost with a trivial 100ns user function.
  ElementPredicate pred{[](const SgArray&) { return true; }, 100};
  const QDesc src1 = *libos.QueueCreate();
  const QDesc filtered = *libos.Filter(src1, pred);
  row("filter queue: push+forward (100ns fn)", Measure(sim, kIters, [&](int) {
        (void)libos.Push(filtered, SgArray());
        (void)libos.Pop(src1);
      }));

  ElementTransform transform{[](const SgArray& s) { return s; }, 100};
  const QDesc src2 = *libos.QueueCreate();
  const QDesc mapped = *libos.MapQueue(src2, transform);
  row("map queue: push+transform (100ns fn)", Measure(sim, kIters, [&](int) {
        (void)libos.Push(mapped, SgArray());
        (void)libos.Pop(src2);
      }));

  ElementComparator cmp{[](const SgArray&, const SgArray&) { return false; }, 50};
  const QDesc src3 = *libos.QueueCreate();
  const QDesc sorted = *libos.Sort(src3, cmp);
  row("sort queue: push+pop (50ns cmp)", Measure(sim, 256, [&](int) {
        (void)libos.Push(sorted, SgArray());
        (void)libos.Pop(sorted);
      }));

  const QDesc m1 = *libos.QueueCreate();
  const QDesc m2 = *libos.QueueCreate();
  const QDesc merged = *libos.Merge(m1, m2);
  row("merge queue: inner push -> merged pop", Measure(sim, kIters, [&](int) {
        (void)libos.Push(m1, SgArray());
        (void)libos.Pop(merged);
      }));
  rec.sim.Add("rows", rows);

  std::printf("\nreference: one legacy-kernel syscall crossing = %lld ns, fastcall "
              "control-path crossing = %lld ns, libOS call = %lld ns\n",
              static_cast<long long>(cost.syscall_ns),
              static_cast<long long>(cost.fastcall_crossing_ns),
              static_cast<long long>(cost.libos_call_ns));
  std::printf("(fastcall: accept/connect/lease/grant through a dedicated entry — no "
              "full register save, no KPTI switch — see bench_f2_controlpath)\n");

  // push, pop and wait are the calls on every I/O; sgaalloc pays the pool, and each
  // combinator row includes its user function (100 ns fn, 50 ns per comparison).
  const double queue_op_ns = std::max({push_ns, pop_ns, wait_ns});
  const double syscall_ns = static_cast<double>(cost.syscall_ns);
  bench::Verdict(queue_op_ns <= static_cast<double>(cost.libos_call_ns) &&
                     10 * queue_op_ns <= syscall_ns && costliest_ns < syscall_ns,
                 "push, pop and wait each cost one libOS call, an order of magnitude "
                 "below one syscall crossing; sgaalloc and every queue combinator, user "
                 "function included, still cost less than one crossing");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
