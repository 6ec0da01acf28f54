#include "checks.h"

#include <algorithm>

#include "core/partial_snapshot.h"
#include "persist/checkpoint.h"

namespace pb {

CutChecker::CutChecker(std::vector<const WriterLog*> logs)
    : logs_(std::move(logs)),
      floor_(logs_.size(), 0),
      lo_(logs_.size()),
      hi_(logs_.size()) {}

bool CutChecker::fail(std::string why) {
  error_ = std::move(why);
  return false;
}

bool CutChecker::check(std::span<const std::uint32_t> comps,
                       std::span<const std::uint64_t> values,
                       std::span<const Bracket> brackets) {
  if (comps.size() != values.size()) {
    return fail("read returned " + std::to_string(values.size()) +
                " values for " + std::to_string(comps.size()) + " components");
  }
  std::fill(lo_.begin(), lo_.end(), 0);
  std::fill(hi_.begin(), hi_.end(), kNever);
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const std::uint32_t c = comps[i];
    const std::uint64_t v = values[i];
    std::size_t w = 0;
    while (w < logs_.size() && !logs_[w]->owns(c)) ++w;
    if (w == logs_.size()) return fail("component " + std::to_string(c) + " has no writer");
    const WriterLog& log = *logs_[w];
    if (v == kInitialValue) {
      hi_[w] = std::min(hi_[w], log.eff_first(c));
      continue;
    }
    const DecodedValue d = decode_value(v);
    if (d.writer != w || log.eff_comp(d.eff) != c) {
      return fail("component " + std::to_string(c) + " holds " +
                  std::to_string(v) + ", which its writer never wrote there");
    }
    if (log.eff_off(d.eff) != d.off) {
      return fail("component " + std::to_string(c) + " holds a value the "
                  "Coalescer merged away (never published)");
    }
    lo_[w] = std::max(lo_[w], d.eff + 1);
    hi_[w] = std::min(hi_[w], log.eff_next(d.eff));
  }
  for (std::size_t w = 0; w < logs_.size(); ++w) {
    std::uint64_t lo = std::max(lo_[w], floor_[w]);
    std::uint64_t hi = hi_[w];
    if (!brackets.empty()) {
      lo = std::max(lo, brackets[w].completed);
      hi = std::min(hi, brackets[w].started);
    }
    if (lo > hi) {
      return fail("torn read of writer " + std::to_string(w) + ": needs a prefix >= " +
                  std::to_string(lo) + " (values " + std::to_string(lo_[w]) +
                  ", earlier reads " + std::to_string(floor_[w]) +
                  ") and <= " + std::to_string(hi));
    }
  }
  for (std::size_t w = 0; w < logs_.size(); ++w) {
    floor_[w] = std::max({floor_[w], lo_[w],
                          brackets.empty() ? 0 : brackets[w].completed});
  }
  return true;
}

bool same_values(std::span<const std::uint64_t> got,
                 std::span<const std::uint64_t> want, std::string* why) {
  if (got.size() != want.size()) {
    *why = std::to_string(got.size()) + " values where " +
           std::to_string(want.size()) + " were expected";
    return false;
  }
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
  if (g == got.end()) return true;
  *why = "component " + std::to_string(g - got.begin()) + " holds " +
         std::to_string(*g) + ", expected " + std::to_string(*w);
  return false;
}

bool restored_matches(psnap::core::PartialSnapshot& restored,
                      const psnap::persist::CheckpointData& frame,
                      std::string* why) {
  if (restored.num_components() != frame.num_components) {
    *why = "restored object has " + std::to_string(restored.num_components()) +
           " components, its frame " + std::to_string(frame.num_components);
    return false;
  }
  const std::vector<std::uint64_t> got = restored.scan_all();
  return same_values(got, frame.values, why);
}

}  // namespace pb
