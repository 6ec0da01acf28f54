// Batched updates: semantics, atomicity tier, and crash safety.
//
// update_batch applies k component writes as one protocol instance
// (core/partial_snapshot.h).  What a concurrent scan may observe is the
// implementation's batch_atomicity() tier, and this suite is the oracle:
//
//   * kAtomic     -- no schedule may show a scan SOME of a batch's writes
//                    without the others (a "torn batch");
//   * kAmortized  -- entries linearize individually in argument order, so
//                    a scan may see a prefix of a batch, but never a value
//                    that was not written.
//
// The writer publishes batches that set every probed component to the
// same value, so a torn batch is directly visible as a mixed-value scan.
// Crash sweeps halt a writer at every step of its update_batch: survivors
// must complete (helpers finish or ignore the orphaned batch), the
// atomicity tier must still hold, and destruction must free the orphaned
// descriptor and its never-installed records (the ASan job proves the
// sweep leak-free).  A scripted schedule pins the moved-twice collect
// bound for batches (see SpreadBatchCollectBound below).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/op_stats.h"
#include "core/partial_snapshot.h"
#include "exec/exec.h"
#include "registry/registry.h"
#include "runtime/explore.h"
#include "runtime/sim_scheduler.h"
#include "tests/support/registry_params.h"

namespace psnap::ingest {
namespace {

using core::BatchAtomicity;
using runtime::ExploreOptions;
using runtime::SimScheduler;

std::vector<std::string> sim_batch_impls() {
  return test::snapshot_specs([](const registry::SnapshotInfo& info,
                                 const core::PartialSnapshot&) {
    return info.sim_safe && info.supports_batch;
  });
}

std::vector<std::string> all_batch_impls() {
  return test::snapshot_specs([](const registry::SnapshotInfo& info,
                                 const core::PartialSnapshot&) {
    return info.supports_batch;
  });
}

// ---------------------------------------------------------------------------
// Sequential contract (every batch-capable implementation, including the
// non-sim-safe lock/seqlock baselines).
// ---------------------------------------------------------------------------

class BatchContractTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchContractTest, BatchWritesLandAndEmptyBatchIsNoOp) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot(GetParam(), 4, 2);
  ASSERT_NE(snap->batch_atomicity(), BatchAtomicity::kUnsupported);
  snap->update_batch({{0, 10}, {2, 30}, {3, 40}});
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{10, 0, 30, 40}));
  snap->update_batch(std::span<const core::BatchEntry>{});
  EXPECT_EQ(snap->scan({0, 1, 2, 3}),
            (std::vector<std::uint64_t>{10, 0, 30, 40}));
}

TEST_P(BatchContractTest, DuplicateIndicesCoalesceLastWins) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot(GetParam(), 4, 2);
  snap->update_batch({{1, 5}, {3, 6}, {1, 7}, {1, 8}});
  // batch_size reports DISTINCT components after coalescing.  Read it
  // before the scan below resets the thread's op stats.
  const std::uint32_t merged = core::tls_op_stats().batch_size;
  EXPECT_EQ(snap->scan({1, 3}), (std::vector<std::uint64_t>{8, 6}));
  if (test::snapshot_info(GetParam()).counts_steps) {
    EXPECT_EQ(merged, 2u);
  }
}

TEST_P(BatchContractTest, BatchReachesGrownComponents) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot(GetParam(), 2, 2);
  std::uint32_t first = snap->add_components(2);
  snap->update_batch({{first, 1}, {first + 1, 2}, {0, 3}});
  EXPECT_EQ(snap->scan({0, first, first + 1}),
            (std::vector<std::uint64_t>{3, 1, 2}));
}

INSTANTIATE_TEST_SUITE_P(BatchCapableImpls, BatchContractTest,
                         ::testing::ValuesIn(all_batch_impls()),
                         test::spec_param_name);

TEST(BatchContract, UnsupportedImplementationsThrow) {
  exec::ScopedPid pid(0);
  auto snap = registry::make_snapshot("fig1_register", 4, 2);
  EXPECT_EQ(snap->batch_atomicity(), BatchAtomicity::kUnsupported);
  EXPECT_THROW(snap->update_batch({{0, 1}}), std::logic_error);
  std::vector<core::BlobBatchEntry> blobs;
  EXPECT_THROW(
      snap->update_batch_blob(std::span<const core::BlobBatchEntry>(blobs)),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// The atomicity oracle under explored schedules.
// ---------------------------------------------------------------------------

// The writer runs batch g setting ALL of components {0,1} to g, for
// g = 1, 2.  Under kAtomic the only observable states are (0,0), (1,1),
// (2,2); under kAmortized entries apply in order, so the prefix states
// (1,0) and (2,1) join the set.  Anything else is a bug regardless of
// tier.
void expect_batch_consistent(const std::vector<std::uint64_t>& out,
                             BatchAtomicity tier, const std::string& name) {
  ASSERT_EQ(out.size(), 2u);
  const bool uniform = out[0] == out[1] && out[0] <= 2;
  const bool prefix =
      (out[0] == 1 && out[1] == 0) || (out[0] == 2 && out[1] == 1);
  if (tier == BatchAtomicity::kAtomic) {
    EXPECT_TRUE(uniform) << name << " tore a batch: saw (" << out[0] << ", "
                         << out[1] << ")";
  } else {
    EXPECT_TRUE(uniform || prefix)
        << name << " saw impossible state (" << out[0] << ", " << out[1]
        << ")";
  }
}

class BatchAtomicityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchAtomicityTest, ScansNeverObserveTornBatchesDfs) {
  auto stats = runtime::explore_dfs(
      [&](const std::vector<std::uint32_t>& script) {
        auto snap = registry::make_snapshot(GetParam(), 2, 2);
        const BatchAtomicity tier = snap->batch_atomicity();

        SimScheduler::Options options;
        options.script = script;
        SimScheduler sched(options);
        sched.add_process([&] {
          snap->update_batch({{0, 1}, {1, 1}});
          snap->update_batch({{0, 2}, {1, 2}});
        });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          snap->scan(std::vector<std::uint32_t>{0, 1}, out);
          expect_batch_consistent(out, tier, GetParam());
        });
        return sched.run();
      },
      ExploreOptions{.max_schedules = 600});
  EXPECT_TRUE(stats.exhausted || stats.schedules_run >= 100u);
}

TEST_P(BatchAtomicityTest, ConcurrentBatchesFromTwoWritersStayWhole) {
  runtime::explore_random(
      [&](std::uint64_t seed) {
        auto snap = registry::make_snapshot(GetParam(), 2, 3);
        const BatchAtomicity tier = snap->batch_atomicity();

        SimScheduler::Options options;
        options.policy = SimScheduler::Policy::kRandom;
        options.seed = seed;
        SimScheduler sched(options);
        // Both writers write BOTH components, so under kAtomic every scan
        // still sees a uniform pair no matter how the batches interleave.
        sched.add_process([&] { snap->update_batch({{0, 1}, {1, 1}}); });
        sched.add_process([&] { snap->update_batch({{0, 2}, {1, 2}}); });
        sched.add_process([&] {
          std::vector<std::uint64_t> out;
          for (int s = 0; s < 2; ++s) {
            snap->scan(std::vector<std::uint32_t>{0, 1}, out);
            ASSERT_EQ(out.size(), 2u);
            EXPECT_LE(out[0], 2u) << GetParam();
            EXPECT_LE(out[1], 2u) << GetParam();
            if (tier == BatchAtomicity::kAtomic) {
              EXPECT_EQ(out[0], out[1])
                  << GetParam() << " tore a batch";
            }
          }
        });
        sched.run();
      },
      /*runs=*/80);
}

INSTANTIATE_TEST_SUITE_P(SimSafeImpls, BatchAtomicityTest,
                         ::testing::ValuesIn(sim_batch_impls()),
                         test::spec_param_name);

// ---------------------------------------------------------------------------
// Crash sweeps: a writer halts at every step of its update_batch.
// ---------------------------------------------------------------------------

class BatchCrashTest
    : public ::testing::TestWithParam<std::string> {};

// The survivor must keep scanning and batching; its scans must still
// respect the atomicity tier (a crashed kAtomic batch is all-or-nothing:
// helpers either complete it or never see it); and destroying the
// snapshot right after must reclaim the orphaned descriptor and its
// never-installed records -- the unwind returns unpublished pool nodes
// immediately, the destructor sweep frees what the halt stranded (the
// ASan preset runs this binary, so a leak fails CI).
TEST_P(BatchCrashTest, CrashMidBatchNeverTearsAndNeverLeaks) {
  for (std::uint64_t crash_step = 1; crash_step <= 30; ++crash_step) {
    auto snap = registry::make_snapshot(GetParam(), 2, 2);
    const BatchAtomicity tier = snap->batch_atomicity();
    bool survivor_finished = false;

    SimScheduler::Options options;
    options.crashes = {{0, crash_step}};
    SimScheduler sched(options);
    sched.add_process([&] { snap->update_batch({{0, 7}, {1, 7}}); });
    sched.add_process([&] {
      std::vector<std::uint64_t> out;
      auto check = [&] {
        ASSERT_EQ(out.size(), 2u);
        for (std::uint64_t v : out) {
          EXPECT_TRUE(v == 0 || v == 7 || v == 9)
              << GetParam() << " invented value " << v;
        }
        if (tier == BatchAtomicity::kAtomic && out[0] != 9 && out[1] != 9) {
          EXPECT_EQ(out[0], out[1])
              << GetParam() << " tore the crashed batch";
        }
      };
      // First scan may race or help the dying batch.
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      check();
      // The survivor's own batch must complete despite the orphan.
      snap->update_batch({{0, 9}, {1, 9}});
      snap->scan(std::vector<std::uint32_t>{0, 1}, out);
      check();
      survivor_finished = true;
    });
    sched.run();

    ASSERT_TRUE(survivor_finished)
        << GetParam() << " crash at step " << crash_step;
  }
}

INSTANTIATE_TEST_SUITE_P(SimSafeImpls, BatchCrashTest,
                         ::testing::ValuesIn(sim_batch_impls()),
                         test::spec_param_name);

// ---------------------------------------------------------------------------
// The moved-twice collect bound under a batch spread across collects.
// ---------------------------------------------------------------------------

// A writer's k-entry update_batch publishes its k records one at a time,
// and the schedule lets a concurrent scan complete one full collect between
// consecutive publications.  The k records share the batch's one counter,
// so the moved-twice table (full_snapshot, the fig3 write ablation) counts
// all k changes as ONE move and never borrows: the scan runs k+2 collects.
// At k=8, n=2 that is 10, past the 2n+3 = 7 those embedded scans used to
// assert -- the CMPi abort of bench_compare_impls, made deterministic.
// fig3_cas runs the same schedule inside its per-location bound 2r+3.
constexpr std::uint32_t kSpreadWidth = 8;
constexpr std::uint32_t kSpreadThreads = 2;

std::vector<core::BatchEntry> spread_batch() {
  std::vector<core::BatchEntry> batch;
  for (std::uint32_t i = 0; i < kSpreadWidth; ++i) {
    batch.push_back({i, 100 + i});
  }
  return batch;
}

std::vector<std::uint32_t> spread_indices() {
  std::vector<std::uint32_t> idx(kSpreadWidth);
  for (std::uint32_t i = 0; i < kSpreadWidth; ++i) idx[i] = i;
  return idx;
}

// The schedule as a script of runnable ranks (0 = writer, 1 = scanner
// while both run).  Step counts come from solo runs on fresh objects:
// neither prefix writes shared state, so each is the same inside the race.
std::vector<std::uint32_t> spread_script(const std::string& spec) {
  std::uint64_t writer_prefix = 0;
  {
    auto snap = registry::make_snapshot(spec, kSpreadWidth, kSpreadThreads);
    exec::ScopedPid pid(0);
    const std::uint64_t before = exec::ctx().steps.total;
    snap->update_batch(spread_batch());
    // The k publications are the batch's last k steps.
    writer_prefix = exec::ctx().steps.total - before - kSpreadWidth;
  }
  std::uint64_t scanner_prefix = 0;
  {
    auto snap = registry::make_snapshot(spec, kSpreadWidth, kSpreadThreads);
    exec::ScopedPid pid(1);
    exec::RecordingLogger log;
    exec::ScopedLogger scoped(&log);
    std::vector<std::uint64_t> out;
    snap->scan(spread_indices(), out);
    // Announce/join steps touch unlabelled objects; the first collect's
    // first load is the first access to component 0.
    const auto& acc = log.accesses();
    scanner_prefix = static_cast<std::uint64_t>(
        std::find_if(acc.begin(), acc.end(),
                     [](const auto& a) { return a.label == 0; }) -
        acc.begin());
  }
  std::vector<std::uint32_t> script(writer_prefix, 0);
  script.insert(script.end(), scanner_prefix + kSpreadWidth, 1);
  for (std::uint32_t e = 0; e + 1 < kSpreadWidth; ++e) {
    script.push_back(0);
    script.insert(script.end(), kSpreadWidth, 1);
  }
  script.push_back(0);  // the last publication; the scanner then runs alone
  return script;
}

class SpreadBatchCollectBound
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SpreadBatchCollectBound, OneBatchSpreadOverKCollectsStaysInBound) {
  const std::string spec = GetParam();
  auto snap = registry::make_snapshot(spec, kSpreadWidth, kSpreadThreads);
  SimScheduler::Options options;
  options.script = spread_script(spec);
  SimScheduler sched(options);
  core::OpStats scan_stats;
  std::vector<std::uint64_t> out;
  sched.add_process([&] { snap->update_batch(spread_batch()); });
  sched.add_process([&] {
    snap->scan(spread_indices(), out);
    scan_stats = core::tls_op_stats();
  });
  sched.run();

  EXPECT_EQ(scan_stats.collects, kSpreadWidth + 2) << spec;
  EXPECT_GT(scan_stats.collects, 2u * kSpreadThreads + 3) << spec;
  EXPECT_FALSE(scan_stats.borrowed) << spec;
  std::vector<std::uint64_t> written;
  for (const core::BatchEntry& e : spread_batch()) written.push_back(e.value);
  EXPECT_EQ(out, written) << spec;
}

// adaptive=false: the per-pid walks then do not depend on the process-wide
// pid watermark, which the solo measurement runs could otherwise move.
INSTANTIATE_TEST_SUITE_P(
    CollectPlanes, SpreadBatchCollectBound,
    ::testing::Values("full_snapshot:adaptive=false",
                      "fig3_write_ablation:adaptive=false",
                      "fig3_cas:adaptive=false"),
    test::spec_param_name);

}  // namespace
}  // namespace psnap::ingest
