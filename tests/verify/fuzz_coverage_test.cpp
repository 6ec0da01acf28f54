// Coverage assertion for the fuzz target enumeration (verify/fuzz/target.h):
// every sim-safe registry entry, on every value plane it declares, with a
// coalescing ingest variant for every batch-capable combo, appears exactly
// once, and no two targets build the same object.  The expected set is
// recomputed here straight from the registries
// -- no hand-curated impl tables -- so registering a new implementation
// without fuzz coverage fails this test, not code review.
#include "verify/fuzz/target.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <typeinfo>
#include <vector>

#include "registry/registry.h"

namespace psnap::verify::fuzz {
namespace {

TEST(FuzzCoverage, EverySimSafeImplPlaneAndKnobComboIsEnumerated) {
  std::set<std::string> expected;
  for (const registry::SnapshotInfo* info :
       registry::SnapshotRegistry::instance().all()) {
    if (!info->sim_safe) continue;
    for (const std::string& spec : registry::snapshot_specs(*info)) {
      expected.insert("snap " + spec);
      if (info->supports_batch) {
        expected.insert("snap " + spec + ",batch=3,coalesce_window=6");
      }
    }
  }
  for (const registry::ActiveSetInfo* info :
       registry::ActiveSetRegistry::instance().all()) {
    if (!info->sim_safe) continue;
    expected.insert("aset " + std::string(info->name));
  }

  std::set<std::string> actual;
  for (const FuzzTarget& target : enumerate_targets()) {
    EXPECT_TRUE(actual.insert(target.display()).second)
        << "duplicate fuzz target: " << target.display();
  }

  for (const std::string& spec : expected) {
    EXPECT_TRUE(actual.count(spec)) << "registry combo not fuzzed: " << spec;
  }
  for (const std::string& spec : actual) {
    EXPECT_TRUE(expected.count(spec))
        << "fuzz target not derived from the registry: " << spec;
  }
  // The built-in registries alone yield dozens of combos; a collapsed
  // enumeration (e.g. only default planes) cannot reach this floor.
  EXPECT_GE(actual.size(), 35u);
}

TEST(FuzzCoverage, EarlierTargetsKeepTheirDisplayNames) {
  // Pinned tokens and campaign logs name targets by display string, so an
  // enumeration change must not rename any of these.
  const char* const kKept[] = {
      "snap fig1_register:value=u64",
      "snap fig1_register:value=blob",
      "snap fig3_cas:value=u64",
      "snap fig3_cas:value=u64,batch=3,coalesce_window=6",
      "snap fig3_cas:value=blob",
      "snap fig3_cas:value=blob,batch=3,coalesce_window=6",
      "snap fig3_cas:value=versioned",
      "snap fig3_cas:value=versioned,batch=3,coalesce_window=6",
      "snap fig3_write_ablation:value=u64",
      "snap fig3_write_ablation:value=u64,batch=3,coalesce_window=6",
      "snap fig3_write_ablation:value=blob",
      "snap fig3_write_ablation:value=blob,batch=3,coalesce_window=6",
      "snap full_snapshot:value=u64",
      "snap full_snapshot:value=u64,batch=3,coalesce_window=6",
      "snap full_snapshot:value=blob",
      "snap full_snapshot:value=blob,batch=3,coalesce_window=6",
      "snap full_snapshot:value=versioned",
      "snap full_snapshot:value=versioned,batch=3,coalesce_window=6",
      "snap double_collect:value=u64",
      "snap double_collect:value=u64,batch=3,coalesce_window=6",
      "snap double_collect:value=blob",
      "snap double_collect:value=blob,batch=3,coalesce_window=6",
      "snap fig3_cas_batch:value=u64",
      "snap fig3_cas_batch:value=u64,batch=3,coalesce_window=6",
      "snap fig3_cas_batch:value=blob",
      "snap fig3_cas_batch:value=blob,batch=3,coalesce_window=6",
      "snap fig3_cas_batch:value=versioned",
      "snap fig3_cas_batch:value=versioned,batch=3,coalesce_window=6",
      "snap full_snapshot_versioned_batch:value=versioned",
      "snap full_snapshot_versioned_batch:value=versioned,batch=3,coalesce_window=6",
      "aset register",
      "aset bitmap",
      "aset faicas",
      "aset faicas_nocoalesce",
      "aset faicas_nopublish",
  };
  std::set<std::string> actual;
  for (const FuzzTarget& target : enumerate_targets()) {
    actual.insert(target.display());
  }
  for (const char* display : kKept) {
    EXPECT_TRUE(actual.count(display)) << "target renamed or lost: " << display;
  }
}

TEST(FuzzCoverage, NoTwoTargetsBuildTheSameObject) {
  // A target that rebuilds another's object (a named twin of a plane
  // option) spends the campaign budget twice on one configuration.  The
  // identity is the built class, its self-reported name and planes, and
  // whether writes go through the coalescing front-end.
  std::set<std::string> seen;
  for (const FuzzTarget& target : enumerate_snapshot_targets()) {
    registry::IngestKnobs knobs;
    auto snap = registry::make_snapshot(target.spec, 4, 2, &knobs);
    const std::string identity =
        std::string(typeid(*snap).name()) + "|" + std::string(snap->name()) +
        "|" + std::string(snap->value_plane()) +
        (target.coalesced ? "|coalesced" : "");
    EXPECT_TRUE(seen.insert(identity).second)
        << target.spec << " builds the same object as an earlier target ("
        << identity << ")";
  }
}

TEST(FuzzCoverage, CapabilityFlagsMatchTheRegistryEntry) {
  for (const FuzzTarget& target : enumerate_targets()) {
    if (target.kind != FuzzTarget::Kind::kSnapshot) continue;
    auto [name, opts] = registry::split_spec(target.spec);
    const registry::SnapshotInfo* info =
        registry::SnapshotRegistry::instance().find(name);
    ASSERT_NE(info, nullptr) << target.spec;
    EXPECT_EQ(target.supports_batch, info->supports_batch) << target.spec;
    EXPECT_EQ(target.versioned,
              target.spec.find("value=versioned") != std::string::npos)
        << target.spec;
    EXPECT_EQ(target.coalesced,
              target.spec.find("batch=") != std::string::npos)
        << target.spec;
  }
}

TEST(FuzzCoverage, TargetFromSpecRebuildsEnumeratedTargets) {
  // Token replay rebuilds targets from their spec alone; the rebuilt
  // capability flags must agree with the enumerated original, or a token
  // would fuzz a different op mix than the campaign that minted it.
  for (const FuzzTarget& target : enumerate_targets()) {
    FuzzTarget rebuilt = target_from_spec(target.kind, target.spec);
    EXPECT_EQ(rebuilt.spec, target.spec);
    EXPECT_EQ(rebuilt.supports_batch, target.supports_batch) << target.spec;
    EXPECT_EQ(rebuilt.versioned, target.versioned) << target.spec;
    EXPECT_EQ(rebuilt.blob, target.blob) << target.spec;
    EXPECT_EQ(rebuilt.coalesced, target.coalesced) << target.spec;
  }
}

}  // namespace
}  // namespace psnap::verify::fuzz
