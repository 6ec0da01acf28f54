// Native-thread smoke over the pinned fuzz corpus.
//
// The fuzz campaign runs its plans under the deterministic SimScheduler,
// where the linearizability checker is the main oracle.  This suite takes
// the SAME pinned plans (corpus.h -- each one a schedule class that once
// needed a hand-written test) and executes them on REAL std::threads.
// Native interleavings are not replayable, so the lin checker is out of
// scope here; what real threads buy is real memory reclamation -- epochs
// actually advancing, pools actually recycling across threads -- under
// op mixes the generator chose adversarially.  The oracles that remain
// sound without a schedule are exactly the per-plane ones:
//
//   * camera epochs strictly increase per lane and across real-time
//     ordered scans (versioned plane);
//   * add_components blocks are disjoint and account for the final
//     component count (growth);
//   * Section 2.1 validity for active-set histories;
//   * no operation throws or crashes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "exec/thread_registry.h"
#include "ingest/coalescer.h"
#include "registry/registry.h"
#include "verify/activeset_checker.h"
#include "verify/fuzz/corpus.h"
#include "verify/fuzz/oracles.h"
#include "verify/fuzz/plan.h"
#include "verify/fuzz/token.h"
#include "verify/history.h"
#include "verify/recording.h"

namespace psnap::verify::fuzz {
namespace {

// Interleaving variety comes from repetition, not from a schedule knob.
constexpr int kRepsPerCase = 16;

struct NativeRun {
  std::vector<Operation> ops;
  std::uint32_t final_m = 0;
  std::string error;  // first exception message, empty when clean
};

// Mirrors the sim runner's churn: hand this thread's pid back to the
// case-local registry and take a fresh one (lowest-free, so reuse is
// common -- the incarnation lanes must keep the holders apart).
void churn_pid(exec::ThreadRegistry& reg, History& history) {
  std::uint32_t old = exec::ctx().pid;
  reg.release(old);
  history.note_pid_released(old);
  std::uint32_t fresh = reg.acquire();
  exec::ThreadRegistry::process_wide().note_pid_in_use(fresh);
  exec::ctx().pid = fresh;
}

struct RunError {
  std::mutex mu;
  std::string what;
  void capture(const std::exception& e) {
    std::scoped_lock lock(mu);
    if (what.empty()) what = e.what();
  }
};

NativeRun run_snapshot_plan_native(const FuzzTarget& target,
                                   const FuzzPlan& plan) {
  NativeRun result;
  const std::uint32_t procs = static_cast<std::uint32_t>(plan.procs.size());
  const std::uint32_t max_threads = procs * 2 + 2;

  registry::IngestKnobs knobs;
  auto snap = registry::make_snapshot(target.spec, plan.initial_m,
                                      max_threads, &knobs);
  History history;
  RecordingSnapshot recorded(*snap, history);
  exec::ThreadRegistry churn_reg(max_threads);
  for (std::uint32_t p = 0; p < procs; ++p) churn_reg.acquire();
  RunError error;

  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < procs; ++p) {
    threads.emplace_back([&, p] {
      exec::ScopedPid pid(p);
      try {
        std::optional<ingest::Coalescer> co;
        if (target.coalesced) {
          ingest::Coalescer::Options co_options;
          co_options.batch = knobs.batch;
          co_options.coalesce_window = knobs.coalesce_window;
          co.emplace(recorded, std::move(co_options));
        }
        std::vector<std::uint64_t> out;
        for (const FuzzOp& op : plan.procs[p]) {
          switch (op.kind) {
            case FuzzOp::Kind::kUpdate:
              if (co) {
                co->write(op.index, op.value);
              } else {
                recorded.update(op.index, op.value);
              }
              break;
            case FuzzOp::Kind::kUpdateBlob: {
              std::array<std::byte, 8> buf;
              std::memcpy(buf.data(), &op.value, sizeof(op.value));
              recorded.update_blob(
                  op.index, std::span<const std::byte>(buf.data(), 8));
              break;
            }
            case FuzzOp::Kind::kUpdateBatch:
              recorded.update_batch(std::span<const core::BatchEntry>(
                  op.entries.data(), op.entries.size()));
              break;
            case FuzzOp::Kind::kScan:
              recorded.scan(std::span<const std::uint32_t>(op.indices), out);
              break;
            case FuzzOp::Kind::kScanVersioned:
              recorded.scan_versioned(
                  std::span<const std::uint32_t>(op.indices), out);
              break;
            case FuzzOp::Kind::kGrow:
              recorded.add_components(op.count);
              break;
            case FuzzOp::Kind::kChurn:
              if (co) co->flush();
              churn_pid(churn_reg, history);
              break;
            default:
              break;
          }
        }
        if (co) {
          co->flush();
          co.reset();
        }
      } catch (const std::exception& e) {
        error.capture(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  result.error = error.what;
  result.final_m = snap->num_components();
  result.ops = history.operations();
  return result;
}

NativeRun run_active_set_plan_native(const FuzzTarget& target,
                                     const FuzzPlan& plan) {
  NativeRun result;
  const std::uint32_t procs = static_cast<std::uint32_t>(plan.procs.size());
  const std::uint32_t max_threads = procs * 2 + 2;

  auto as = registry::make_active_set(target.spec, max_threads);
  History history;
  RecordingActiveSet recorded(*as, history);
  exec::ThreadRegistry churn_reg(max_threads);
  for (std::uint32_t p = 0; p < procs; ++p) churn_reg.acquire();
  RunError error;

  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < procs; ++p) {
    threads.emplace_back([&, p] {
      exec::ScopedPid pid(p);
      try {
        std::vector<std::uint32_t> out;
        for (const FuzzOp& op : plan.procs[p]) {
          switch (op.kind) {
            case FuzzOp::Kind::kJoin:
              recorded.join();
              break;
            case FuzzOp::Kind::kLeave:
              recorded.leave();
              break;
            case FuzzOp::Kind::kGetSet:
              recorded.get_set(out);
              break;
            case FuzzOp::Kind::kChurn:
              churn_pid(churn_reg, history);
              break;
            default:
              break;
          }
        }
      } catch (const std::exception& e) {
        error.capture(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  result.error = error.what;
  result.ops = history.operations();
  return result;
}

TEST(FuzzNativeSmokeTest, PinnedSnapshotPlansPassPlaneOraclesOnRealThreads) {
  int ran = 0;
  for (const std::string& token : pinned_corpus()) {
    CaseSpec spec;
    try {
      spec = decode_token(token);
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (spec.target.kind != FuzzTarget::Kind::kSnapshot) continue;
    FuzzPlan plan = generate_plan(spec.target, spec.shape, spec.op_seed);
    for (int rep = 0; rep < kRepsPerCase; ++rep) {
      NativeRun run = run_snapshot_plan_native(spec.target, plan);
      ASSERT_EQ(run.error, "") << token;
      OracleOutcome epochs = check_epochs(run.ops);
      EXPECT_TRUE(epochs.ok) << token << ": " << epochs.diagnosis;
      OracleOutcome growth = check_growth(run.ops, plan.initial_m, run.final_m);
      EXPECT_TRUE(growth.ok) << token << ": " << growth.diagnosis;
    }
    ++ran;
  }
  ASSERT_GE(ran, 2) << "corpus lost its snapshot pins";
}

TEST(FuzzNativeSmokeTest, PinnedActiveSetPlansPassValidityOnRealThreads) {
  int ran = 0;
  for (const std::string& token : pinned_corpus()) {
    CaseSpec spec;
    try {
      spec = decode_token(token);
    } catch (const std::invalid_argument&) {
      continue;
    }
    if (spec.target.kind != FuzzTarget::Kind::kActiveSet) continue;
    FuzzPlan plan = generate_plan(spec.target, spec.shape, spec.op_seed);
    for (int rep = 0; rep < kRepsPerCase; ++rep) {
      NativeRun run = run_active_set_plan_native(spec.target, plan);
      ASSERT_EQ(run.error, "") << token;
      auto validity = check_active_set_validity(run.ops);
      EXPECT_TRUE(validity.ok) << token << ": " << validity.diagnosis;
    }
    ++ran;
  }
  EXPECT_GE(ran, 1) << "corpus lost its active-set pin";
}

}  // namespace
}  // namespace psnap::verify::fuzz
