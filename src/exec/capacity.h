// The one process-capacity constant every pid-keyed table derives from.
//
// Pids index per-process slot arrays all over the system: the thread
// registry's allocation bitmap, EBR per-thread slots, pool free lists,
// announcement registers.  Those tables must agree on the ceiling -- a pid
// the registry can hand out must have a slot everywhere --
// and historically they did so by repeating the literal (the 128->192 bump
// in PR 6 had to be made in two places by hand).  This header is the single
// definition; everything else is derived:
//
//   exec::ThreadRegistry::kMaxCapacity  == kMaxPidCapacity
//   reclaim::kPidSlots                  == kMaxPidCapacity
//   reclaim::EbrDomain / Pool slot tables size off
//   reclaim::kTotalSlots (pid slots + anonymous-thread slots)
//
// Raising the ceiling is now one edit here.
#pragma once

#include <cstdint>

namespace psnap::exec {

inline constexpr std::uint32_t kMaxPidCapacity = 192;

}  // namespace psnap::exec
