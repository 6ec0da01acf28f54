#include "selftest.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "checks.h"
#include "exec/thread_registry.h"
#include "inputs.h"
#include "persist/checkpoint.h"
#include "recovery/checkpointer.h"
#include "recovery/restore.h"
#include "registry/registry.h"
#include "workloads.h"

namespace pb {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %s  %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

// One writer over components 0..2 writing, without a Coalescer:
//   t=0: c0   t=1: c1   t=2: c1   t=3: c0   t=4: c2   (then the cycle)
WriterLog small_log() {
  return WriterLog(0, 0, 3, {0, 1, 1, 0, 2}, {0, 1}, 1, 0);
}

void cut_cases() {
  const WriterLog log = small_log();
  const std::vector<std::uint32_t> c01 = {0, 1};
  auto v = [&](std::uint64_t k) { return log.raw_value(k); };
  {
    CutChecker ok({&log});
    expect(ok.check(c01, std::vector<std::uint64_t>{v(3), v(2)}),
           "cut check accepts a consistent cut");
  }
  {
    // c0 from t=3 needs a prefix >= 4; c1 from t=1 was overwritten at t=2.
    CutChecker torn({&log});
    expect(!torn.check(c01, std::vector<std::uint64_t>{v(3), v(1)}),
           "cut check rejects a torn cut");
  }
  {
    CutChecker reader({&log});
    const bool first = reader.check(c01, std::vector<std::uint64_t>{v(0), v(2)});
    expect(first && !reader.check(c01, std::vector<std::uint64_t>{v(0), v(1)}),
           "cut check rejects a component that goes backwards for one reader");
  }
  {
    CutChecker stale({&log});
    const std::vector<Bracket> br = {Bracket{.completed = 4, .started = 5}};
    expect(!stale.check(c01, std::vector<std::uint64_t>{v(0), v(2)}, br),
           "cut check rejects a read that misses a write completed before it began");
  }
  {
    CutChecker early({&log});
    const std::vector<Bracket> br = {Bracket{.completed = 0, .started = 2}};
    expect(!early.check(c01, std::vector<std::uint64_t>{v(3), v(2)}, br),
           "cut check rejects a value whose write had not begun");
  }
  {
    CutChecker foreign({&log});
    const std::vector<std::uint32_t> c2 = {2};
    expect(!foreign.check(c2, std::vector<std::uint64_t>{v(0)}),
           "cut check rejects a value its writer wrote to another component");
  }
  {
    // Coalesced: batch 4, window 4 -- raw writes c0, c0, c1, c2 flush as
    // one batch {c0 (second value), c1, c2}; the first c0 value is merged
    // away and never published.
    const WriterLog co(0, 0, 3, {0, 0, 1, 2}, {0, 1, 2, 0}, 4, 4);
    CutChecker merged({&co});
    const std::vector<std::uint32_t> c0 = {0};
    expect(merged.check(c0, std::vector<std::uint64_t>{co.raw_value(1)}) &&
               !merged.check(c0, std::vector<std::uint64_t>{co.raw_value(0)}),
           "cut check rejects a value the Coalescer merged away");
  }
}

void epoch_cases() {
  EpochOrder same;
  expect(same.observe(5) && !same.observe(5), "epoch check rejects a repeated epoch");
  EpochOrder back;
  expect(back.observe(5) && !back.observe(4), "epoch check rejects a regressed epoch");
}

void state_cases(const std::string& dir) {
  std::string why;
  const std::vector<std::uint64_t> want = {1, 2, 3};
  expect(same_values(want, want, &why) &&
             !same_values(std::vector<std::uint64_t>{1, 9, 3}, want, &why),
         "final-state check rejects a component that differs from the shadow");

  psnap::exec::ThreadHandle pid;
  auto obj = psnap::registry::make_snapshot("fig3_cas_fast", 16, 8);
  for (std::uint32_t i = 0; i < 16; ++i) obj->update(i, 100 + i);
  psnap::persist::CheckpointWriter writer(dir + "/selftest-ckpt");
  psnap::recovery::Checkpointer::Options options;
  options.impl_spec = "fig3_cas_fast";
  options.initial_m = 16;
  options.max_threads = 8;
  psnap::recovery::Checkpointer cp(*obj, writer, options);
  psnap::persist::CheckpointData frame;
  cp.capture(frame);
  auto restored = psnap::recovery::restore(frame);
  expect(restored_matches(*restored, frame, &why), "restore check accepts a faithful restore");
  restored->update(7, 12345);
  expect(!restored_matches(*restored, frame, &why),
         "restore check rejects a restored value that differs from its frame");
  restored->update(7, frame.values[7]);
  restored->add_components(1);
  expect(!restored_matches(*restored, frame, &why),
         "restore check rejects a component count that differs from its frame");
  std::filesystem::remove_all(dir + "/selftest-ckpt");
}

void workload_cases(const std::string& dir) {
  for (const std::string& name : workload_names()) {
    for (bool trace : {false, true}) {
      RunConfig c;
      c.workload = name;
      c.seed = 7;
      c.seconds = 0.3;
      c.trace = trace;
      c.dir = dir + "/selftest-run";
      const RunReport r = run_workload(c);
      bool nonzero = true;
      for (const Metric& m : r.end_to_end) nonzero = nonzero && m.value > 0;
      const std::string what = name + (trace ? " (traced)" : "") +
                               " runs with 0 failed operations and no zero end-to-end metric";
      expect(r.failed() == 0 && r.attempted() > 0 && nonzero &&
                 r.per_layer.empty() != trace,
             what.c_str());
      for (const std::string& e : r.errors) std::printf("    %s\n", e.c_str());
    }
  }
}

}  // namespace

int run_selftest(const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::printf("perfbench self-test\n");
  cut_cases();
  epoch_cases();
  state_cases(dir);
  workload_cases(dir);
  std::printf("%s: %d failing case(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb
