// Experiment MICRO: google-benchmark latencies for every substrate layer.
//
// These are the raw ingredient costs behind the step counts the other
// benches report: base-object operations, reclamation primitives, interval
// merging, active set operations, and single-threaded snapshot operations.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/cas_psnap.h"
#include "exec/exec.h"
#include "intervals/interval_set.h"
#include "primitives/primitives.h"
#include "reclaim/ebr.h"
#include "registry/registry.h"

namespace {

using namespace psnap;

// Primitive micros run in both runtimes (see primitives.h): the gap
// between <policy>/instrumented and <policy>/release is exactly the cost
// of step accounting plus seq_cst ordering.
template <class Policy>
void BM_RegisterLoad(benchmark::State& state) {
  primitives::Register<std::uint64_t, Policy> reg(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.load());
  }
}
BENCHMARK(BM_RegisterLoad<primitives::Instrumented>)->Name(
    "BM_RegisterLoad/instrumented");
BENCHMARK(BM_RegisterLoad<primitives::Release>)->Name(
    "BM_RegisterLoad/release");

template <class Policy>
void BM_RegisterStore(benchmark::State& state) {
  primitives::Register<std::uint64_t, Policy> reg(1);
  std::uint64_t k = 0;
  for (auto _ : state) {
    reg.store(++k);
  }
}
BENCHMARK(BM_RegisterStore<primitives::Instrumented>)->Name(
    "BM_RegisterStore/instrumented");
BENCHMARK(BM_RegisterStore<primitives::Release>)->Name(
    "BM_RegisterStore/release");

template <class Policy>
void BM_CasSuccess(benchmark::State& state) {
  primitives::CasObject<std::uint64_t, Policy> obj(0);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obj.compare_and_swap(k, k + 1));
    ++k;
  }
}
BENCHMARK(BM_CasSuccess<primitives::Instrumented>)->Name(
    "BM_CasSuccess/instrumented");
BENCHMARK(BM_CasSuccess<primitives::Release>)->Name(
    "BM_CasSuccess/release");

template <class Policy>
void BM_FetchIncrement(benchmark::State& state) {
  primitives::FetchIncrementT<Policy> fai;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fai.fetch_increment());
  }
}
BENCHMARK(BM_FetchIncrement<primitives::Instrumented>)->Name(
    "BM_FetchIncrement/instrumented");
BENCHMARK(BM_FetchIncrement<primitives::Release>)->Name(
    "BM_FetchIncrement/release");

void BM_EbrPinUnpin(benchmark::State& state) {
  reclaim::EbrDomain domain;
  for (auto _ : state) {
    auto guard = domain.pin();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EbrPinUnpin);

void BM_EbrRetireReclaim(benchmark::State& state) {
  reclaim::EbrDomain domain;
  for (auto _ : state) {
    domain.retire(new std::uint64_t(1));
  }
}
BENCHMARK(BM_EbrRetireReclaim);

void BM_IntervalMerge(benchmark::State& state) {
  auto base = intervals::IntervalSet::from_intervals(
      {{1, 100}, {200, 300}, {400, 500}});
  std::vector<std::uint64_t> points{150, 151, 350};
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.merged_with_points(points));
  }
}
BENCHMARK(BM_IntervalMerge);

void BM_FaiCasJoinLeave(benchmark::State& state) {
  // Unbounded churn: one fresh slot per join, as the paper specifies.
  auto as = registry::make_active_set("faicas", 2);
  exec::ScopedPid pid(0);
  for (auto _ : state) {
    as->join();
    as->leave();
  }
}
BENCHMARK(BM_FaiCasJoinLeave)->Iterations(1 << 20);

void BM_RegisterAsJoinLeave(benchmark::State& state) {
  auto as = registry::make_active_set("register", 4);
  exec::ScopedPid pid(0);
  for (auto _ : state) {
    as->join();
    as->leave();
  }
}
BENCHMARK(BM_RegisterAsJoinLeave);

void BM_FaiCasGetSetAfterChurn(benchmark::State& state) {
  auto as = registry::make_active_set("faicas", 2);
  exec::ScopedPid pid(0);
  for (int i = 0; i < 10000; ++i) {
    as->join();
    as->leave();
  }
  std::vector<std::uint32_t> members;
  for (auto _ : state) {
    as->get_set(members);
  }
}
BENCHMARK(BM_FaiCasGetSetAfterChurn);

// Snapshot operation micros, parameterized by registry spec so the
// instrumented and release runtimes appear side by side in the output
// (and in the BENCH_*.json artifacts CI captures from this binary).
void BM_SnapshotUpdate(benchmark::State& state, const char* spec) {
  auto snap = registry::make_snapshot(spec, 64, 2);
  exec::ScopedPid pid(0);
  std::uint64_t k = 0;
  for (auto _ : state) {
    ++k;
    snap->update(static_cast<std::uint32_t>(k % 64), k);
  }
}
BENCHMARK_CAPTURE(BM_SnapshotUpdate, fig3_cas, "fig3_cas");
BENCHMARK_CAPTURE(BM_SnapshotUpdate, fig3_cas_fast, "fig3_cas_fast");
BENCHMARK_CAPTURE(BM_SnapshotUpdate, fig1_register, "fig1_register");
BENCHMARK_CAPTURE(BM_SnapshotUpdate, fig1_register_fast,
                  "fig1_register_fast");

// Update with a parked scanner announced and active: the updater pays the
// full helping path (getSet + announcement read + embedded scan over the
// announced set + a view-carrying record).
void BM_SnapshotUpdateHelping(benchmark::State& state, const char* spec) {
  auto snap = registry::make_snapshot(spec, 64, 2);
  {
    // Announce a scan set, then park pid 1 in the active set (a scan's
    // join without its leave), so every measured update helps it.
    exec::ScopedPid scanner(1);
    std::vector<std::uint64_t> out;
    snap->scan(std::vector<std::uint32_t>{1, 17, 33, 49}, out);
    if (auto* c = dynamic_cast<core::CasPartialSnapshot*>(snap.get())) {
      c->active_set().join();
    } else if (auto* f =
                   dynamic_cast<core::CasPartialSnapshotFast*>(snap.get())) {
      f->active_set().join();
    } else {
      // Without the park the getSet below returns empty and the numbers
      // would be non-helping timings under a helping label.
      state.SkipWithError("spec has no parkable active set accessor");
      return;
    }
  }
  exec::ScopedPid pid(0);
  std::uint64_t k = 0;
  for (auto _ : state) {
    ++k;
    snap->update(static_cast<std::uint32_t>(k % 64), k);
  }
}
BENCHMARK_CAPTURE(BM_SnapshotUpdateHelping, fig3_cas, "fig3_cas");
BENCHMARK_CAPTURE(BM_SnapshotUpdateHelping, fig3_cas_fast, "fig3_cas_fast");

// Fixed iteration count, like BM_FaiCasJoinLeave: every Figure-3 scan
// consumes one Figure-2 slot (the paper never recycles them; 4M capacity
// per instance), so a time-targeted run of the fast runtime could exhaust
// the slot array mid-benchmark.  1<<19 scans stay far inside it.
void BM_SnapshotScan(benchmark::State& state, const char* spec) {
  auto snap_ptr = registry::make_snapshot(spec, 1024, 2);
  auto& snap = *snap_ptr;
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> indices;
  for (std::uint32_t j = 0; j < state.range(0); ++j) {
    indices.push_back(j * 16);
  }
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    snap.scan(indices, out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_SnapshotScan, fig3_cas, "fig3_cas")
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Iterations(1 << 19)
    ->Complexity();
BENCHMARK_CAPTURE(BM_SnapshotScan, fig3_cas_fast, "fig3_cas_fast")
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Iterations(1 << 19)
    ->Complexity();
BENCHMARK_CAPTURE(BM_SnapshotScan, fig1_register, "fig1_register")
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Iterations(1 << 19)
    ->Complexity();
BENCHMARK_CAPTURE(BM_SnapshotScan, fig1_register_fast, "fig1_register_fast")
    ->RangeMultiplier(2)
    ->Range(1, 64)
    ->Iterations(1 << 19)
    ->Complexity();

void BM_FullSnapshotScan(benchmark::State& state) {
  auto snap_ptr = registry::make_snapshot(
      "full_snapshot", static_cast<std::uint32_t>(state.range(0)), 2);
  auto& snap = *snap_ptr;
  exec::ScopedPid pid(0);
  std::vector<std::uint32_t> indices{0};
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    snap.scan(indices, out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullSnapshotScan)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
