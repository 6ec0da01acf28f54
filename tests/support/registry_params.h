// Shared helpers for parameterizing gtest suites over the implementation
// registry.  Replaces the per-file `struct Impl { label; factory; }`
// tables: tests pick a capability filter instead of hand-curating lists,
// so a newly registered implementation is covered everywhere it qualifies.
//
// Snapshot suites run over registry SPECS: every entry crossed with its
// declared value planes (registry::snapshot_specs), so listing a plane on
// an entry puts it under every suite it qualifies for.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "registry/registry.h"

namespace psnap::test {

// Sees the entry (sim_safe, supports_batch, ...) and the instance the spec
// builds: progress and locality depend on the options (a versioned plane
// CAS-retries), so only the instance answers is_wait_free / is_local.
using SnapshotFilter = std::function<bool(const registry::SnapshotInfo&,
                                          const core::PartialSnapshot&)>;
using ActiveSetFilter = std::function<bool(const registry::ActiveSetInfo&)>;

inline std::vector<std::string> snapshot_specs(
    const SnapshotFilter& filter = nullptr) {
  std::vector<std::string> out;
  for (const registry::SnapshotInfo* info :
       registry::SnapshotRegistry::instance().all()) {
    for (std::string& spec : registry::snapshot_specs(*info)) {
      if (!filter || filter(*info, *registry::make_snapshot(spec, 4, 2))) {
        out.push_back(std::move(spec));
      }
    }
  }
  return out;
}

// The registry entry a spec names.
inline const registry::SnapshotInfo& snapshot_info(std::string_view spec) {
  return *registry::SnapshotRegistry::instance().find(
      registry::split_spec(spec).first);
}

inline std::vector<const registry::ActiveSetInfo*> active_set_impls(
    const ActiveSetFilter& filter = nullptr) {
  std::vector<const registry::ActiveSetInfo*> out;
  for (const registry::ActiveSetInfo* info :
       registry::ActiveSetRegistry::instance().all()) {
    if (!filter || filter(*info)) out.push_back(info);
  }
  return out;
}

inline std::unique_ptr<activeset::ActiveSet> make_active_set(
    const registry::ActiveSetInfo& info, std::uint32_t n) {
  return info.make(n, registry::Options{});
}

// gtest parameter-name generators: a spec with every non-alphanumeric
// mapped to '_' ("fig3_cas:value=blob" -> "fig3_cas_value_blob");
// active-set names are identifier-safe as they stand.
inline std::string spec_param_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

inline std::string active_set_param_name(
    const ::testing::TestParamInfo<const registry::ActiveSetInfo*>& info) {
  return info.param->name;
}

}  // namespace psnap::test
