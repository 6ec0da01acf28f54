// Fuzz targets enumerated from the implementation registries.
//
// A target is one (implementation × value plane × ingest-knob)
// combination the fuzzer must cover.  The list is DERIVED
// from the registries -- no hand-curated impl tables anywhere in the fuzz
// layer -- so a newly registered sim-safe implementation (or a new plane
// on an existing one) is fuzzed automatically;
// tests/verify/fuzz_coverage_test.cpp asserts the enumeration stays
// complete.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psnap::verify::fuzz {

struct FuzzTarget {
  enum class Kind : std::uint8_t { kSnapshot, kActiveSet };

  Kind kind = Kind::kSnapshot;
  // Full registry spec, including value=<plane> and (for the coalesced
  // variants) batch=/coalesce_window= ingest knobs.  The spec alone
  // rebuilds the object, which is what makes repro tokens portable.
  std::string spec;

  // Capability flags steering op-mix generation, derived from the
  // registry entry + plane (never set by hand).
  bool supports_batch = false;  // emit update_batch ops
  bool versioned = false;       // emit scan_versioned ops; epoch oracle
  bool blob = false;            // emit update_blob ops
  bool coalesced = false;       // route updates through ingest::Coalescer

  std::string display() const {
    return (kind == Kind::kSnapshot ? "snap " : "aset ") + spec;
  }
};

// Every sim-safe snapshot entry × each declared value plane
// (registry::snapshot_specs), plus a coalescing ingest variant
// (batch=3,coalesce_window=6) for each batch-capable combo.
std::vector<FuzzTarget> enumerate_snapshot_targets();

// Every sim-safe active-set entry.
std::vector<FuzzTarget> enumerate_active_set_targets();

// Both of the above, snapshots first.
std::vector<FuzzTarget> enumerate_targets();

// Rebuilds a target (capability flags included) from a spec string, by
// consulting the registry entry it names.  Used by token replay.  Throws
// std::invalid_argument for unknown names.
FuzzTarget target_from_spec(FuzzTarget::Kind kind, std::string spec);

}  // namespace psnap::verify::fuzz
