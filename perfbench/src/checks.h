// Output checks, computed apart from the library from the writers' logs.
//
//   CutChecker    every read (a partial scan, a scan_versioned, a captured
//                 frame) must be a consistent cut: for each writer there
//                 must be ONE prefix length P of its effective stream such
//                 that every component read holds the last write before P.
//                 Per reader, P never goes backwards (so no component ever
//                 regresses), and where the writer's progress counters were
//                 read around the read, P lies between them (a read never
//                 misses a write that returned before it began).
//   EpochOrder    scan_versioned epochs strictly increase per reader.
//   same_values   the final state equals the shadow of the last value
//                 written, and a restored object equals its frame.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "inputs.h"

namespace psnap::core {
class PartialSnapshot;
}
namespace psnap::persist {
struct CheckpointData;
}

namespace pb {

// One writer's progress, read around a read: every effective entry below
// `completed` had returned before the read began, and none at or beyond
// `started` had begun when it ended.
struct Bracket {
  std::uint64_t completed = 0;
  std::uint64_t started = kNever;
};

class CutChecker {
 public:
  explicit CutChecker(std::vector<const WriterLog*> logs);

  // Checks one atomic read: component comps[i] held values[i].  Pass one
  // bracket per writer, or none.  On failure returns false, leaves the
  // carried state unchanged and describes the fault in error().
  bool check(std::span<const std::uint32_t> comps,
             std::span<const std::uint64_t> values,
             std::span<const Bracket> brackets = {});
  const std::string& error() const { return error_; }

 private:
  bool fail(std::string why);

  std::vector<const WriterLog*> logs_;
  std::vector<std::uint64_t> floor_;  // per writer: P of this reader's last read
  std::vector<std::uint64_t> lo_, hi_;
  std::string error_;
};

class EpochOrder {
 public:
  bool observe(std::uint64_t epoch) {
    if (seen_ && epoch <= last_) return false;
    seen_ = true;
    last_ = epoch;
    return true;
  }

 private:
  bool seen_ = false;
  std::uint64_t last_ = 0;
};

// Element-wise equality; on a mismatch names the first differing index.
bool same_values(std::span<const std::uint64_t> got,
                 std::span<const std::uint64_t> want, std::string* why);

// A restored object has its frame's component count and values.
bool restored_matches(psnap::core::PartialSnapshot& restored,
                      const psnap::persist::CheckpointData& frame,
                      std::string* why);

}  // namespace pb
