#include "inputs.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pb {

Zipf::Zipf(std::uint32_t n, double s, Rng& rng) : cdf_(n), perm_(n) {
  double sum = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
  std::iota(perm_.begin(), perm_.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.below(i)]);
}

std::uint32_t Zipf::draw(Rng& rng) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
  const auto rank = static_cast<std::size_t>(it - cdf_.begin());
  return perm_[std::min(rank, perm_.size() - 1)];
}

std::vector<std::uint32_t> make_scan_sets(std::uint32_t count,
                                          std::uint32_t width,
                                          std::uint32_t range, Rng& rng) {
  if (width > range) throw std::invalid_argument("scan width exceeds range");
  std::vector<std::uint32_t> out;
  out.reserve(std::size_t{count} * width);
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::size_t begin = out.size();
    while (out.size() - begin < width) {
      const std::uint32_t c = rng.below(range);
      if (std::find(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(), c) == out.end()) {
        out.push_back(c);
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
  }
  return out;
}

WriterLog::WriterLog(std::uint32_t writer, std::uint32_t first_comp,
                     std::uint32_t num_comps, std::vector<std::uint32_t> prefix,
                     std::vector<std::uint32_t> cycle, std::uint32_t batch,
                     std::uint32_t window)
    : writer_(writer), first_comp_(first_comp), num_comps_(num_comps) {
  if (cycle.empty() || !std::has_single_bit(cycle.size())) {
    throw std::invalid_argument("write cycle length must be a power of two");
  }
  if (batch == 0 || std::max(batch, window) > 255) {
    throw std::invalid_argument("flush window must fit the value's offset byte");
  }
  raw_prefix_ = prefix.size();
  cycle_mask_ = cycle.size() - 1;
  cycle_shift_ = static_cast<unsigned>(std::countr_zero(cycle.size()));
  raw_comp_ = std::move(prefix);
  raw_comp_.insert(raw_comp_.end(), cycle.begin(), cycle.end());
  for (std::uint32_t c : raw_comp_) {
    if (!owns(c)) throw std::invalid_argument("write outside the writer's range");
  }
  raw_eff_.resize(raw_comp_.size());
  raw_off_.resize(raw_comp_.size());

  // Replay the Coalescer (ingest/coalescer.cpp: merge while fewer than
  // `window` raw writes are pending, flush at `batch` distinct entries or
  // `window` raw writes) over one segment, forced flush at its end.
  struct Pending {
    std::uint32_t comp;
    std::uint32_t eff;
  };
  std::vector<Pending> pending;
  auto replay = [&](std::size_t begin, std::size_t end) {
    std::uint32_t raw_in_window = 0;
    pending.clear();
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint32_t c = raw_comp_[j];
      const auto off = static_cast<std::uint8_t>(raw_in_window++);
      raw_off_[j] = off;
      auto hit = window > 0 ? std::find_if(pending.begin(), pending.end(),
                                           [c](const Pending& p) { return p.comp == c; })
                            : pending.end();
      if (hit != pending.end()) {
        eff_off_[hit->eff] = off;
        raw_eff_[j] = hit->eff;
      } else {
        const auto e = static_cast<std::uint32_t>(eff_comp_.size());
        eff_comp_.push_back(c);
        eff_off_.push_back(off);
        raw_eff_[j] = e;
        pending.push_back({c, e});
      }
      if (pending.size() >= batch || (window > 0 && raw_in_window >= window)) {
        raw_in_window = 0;
        pending.clear();
      }
    }
  };
  replay(0, raw_prefix_);
  eff_prefix_ = eff_comp_.size();
  replay(raw_prefix_, raw_comp_.size());
  eff_cycle_ = eff_comp_.size() - eff_prefix_;

  // Next-write gaps: cyclic inside the cycle (two backward passes), then
  // backward through the prefix, continuing into the first cycle.
  eff_gap_.assign(eff_comp_.size(), kNoGap);
  std::vector<std::uint64_t> next(num_comps_, kNever);
  for (std::uint64_t v = 2 * eff_cycle_; v-- > 0;) {
    const std::size_t i = eff_prefix_ + v % eff_cycle_;
    const std::uint32_t c = eff_comp_[i] - first_comp_;
    if (v < eff_cycle_ && next[c] != kNever) {
      eff_gap_[i] = static_cast<std::uint32_t>(next[c] - v);
    }
    next[c] = v;
  }
  for (std::uint64_t& n : next) {
    if (n != kNever) n += eff_prefix_;
  }
  for (std::size_t i = eff_prefix_; i-- > 0;) {
    const std::uint32_t c = eff_comp_[i] - first_comp_;
    if (next[c] != kNever) eff_gap_[i] = static_cast<std::uint32_t>(next[c] - i);
    next[c] = i;
  }
  first_ = std::move(next);
}

std::vector<std::uint64_t> WriterLog::values_after(std::uint64_t raw_end) const {
  std::vector<std::uint64_t> out(num_comps_, kInitialValue);
  std::vector<bool> seen(num_comps_, false);
  auto sweep = [&](std::uint64_t hi, std::uint64_t lo) {
    for (std::uint64_t k = hi; k-- > lo;) {
      const std::uint32_t c = raw_comp(k) - first_comp_;
      if (!seen[c]) {
        seen[c] = true;
        out[c] = raw_value(k);
      }
    }
  };
  const std::uint64_t cycle = cycle_mask_ + 1;
  if (raw_end > raw_prefix_ + cycle) {
    // One full cycle finds every component the cycle writes; the rest
    // were last written in the prefix.
    sweep(raw_end, raw_end - cycle);
    sweep(raw_prefix_, 0);
  } else {
    sweep(raw_end, 0);
  }
  return out;
}

}  // namespace pb
