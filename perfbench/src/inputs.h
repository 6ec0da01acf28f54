// Seeded inputs and the writers' logs.
//
// Everything a run feeds the library is generated here from --seed before
// set-up starts: component sequences (Zipf-skewed or uniform), scan index
// sets, and -- for every writer -- a WriterLog that records, in order, what
// the writer will write.  The library never sees the seed.
//
// A writer's raw write stream is a prefix (executed once: prefill,
// warm-up, growth) followed by a cycle repeated until the run stops.  A
// Coalescer in front of the object merges and batches raw writes; the
// WriterLog replays the Coalescer's count-based rules over the stream (a
// flush is forced at the end of the prefix and of every cycle, so the
// replay is periodic) and keeps the EFFECTIVE stream: the entries in the
// order the object applies them.  Without a Coalescer the effective
// stream is the raw stream.
//
// Every value a writer writes names its effective position, so a reader
// that observes a value can tell exactly which write it came from; the
// checks (checks.h) rest on that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pb {

// splitmix64: small, fast, and good enough for workload generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Independent stream `stream` of a run seeded with `seed`.
inline Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  Rng mix(seed ^ (0xA0761D6478BD642Full * (stream + 1)));
  return Rng(mix.next());
}

// Zipf(s) over n ranks; ranks map to components through a seeded
// permutation, so the hot components are scattered over the range.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s, Rng& rng);
  std::uint32_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> perm_;
};

// `count` index sets of `width` distinct components drawn uniformly from
// [0, range), flattened.
std::vector<std::uint32_t> make_scan_sets(std::uint32_t count,
                                          std::uint32_t width,
                                          std::uint32_t range, Rng& rng);

// ---- Value encoding ----
//
//   bits 63..56  writer id + 1 (0 only in the initial value)
//   bits 55..8   effective position + 1
//   bits  7..0   the raw write's offset in its flush window, so a value a
//                Coalescer merged away (never published) is told apart
//                from the one it kept
inline constexpr std::uint64_t kInitialValue = 0;

inline std::uint64_t encode_value(std::uint32_t writer, std::uint64_t eff,
                                  std::uint8_t off) {
  return (static_cast<std::uint64_t>(writer + 1) << 56) | ((eff + 1) << 8) |
         off;
}

struct DecodedValue {
  std::uint32_t writer;
  std::uint64_t eff;
  std::uint8_t off;
};

inline DecodedValue decode_value(std::uint64_t v) {
  return {static_cast<std::uint32_t>(v >> 56) - 1,
          ((v >> 8) & ((std::uint64_t{1} << 48) - 1)) - 1,
          static_cast<std::uint8_t>(v & 0xff)};
}

inline constexpr std::uint64_t kNever = ~std::uint64_t{0};

class WriterLog {
 public:
  // Components written lie in [first_comp, first_comp + num_comps).
  // batch/window are the Coalescer's options (batch=1, window=0: every
  // raw write is one update).  `cycle` must be non-empty.
  WriterLog(std::uint32_t writer, std::uint32_t first_comp,
            std::uint32_t num_comps, std::vector<std::uint32_t> prefix,
            std::vector<std::uint32_t> cycle, std::uint32_t batch,
            std::uint32_t window);

  std::uint32_t writer() const { return writer_; }
  std::uint32_t first_comp() const { return first_comp_; }
  std::uint32_t num_comps() const { return num_comps_; }
  bool owns(std::uint32_t c) const {
    return c - first_comp_ < num_comps_;
  }
  std::uint64_t raw_prefix() const { return raw_prefix_; }

  // ---- writer side: raw write k ----
  std::uint32_t raw_comp(std::uint64_t k) const { return raw_comp_[slot(k)]; }
  std::uint64_t raw_value(std::uint64_t k) const {
    const std::size_t s = slot(k);
    return encode_value(writer_, eff_of_slot(s, k), raw_off_[s]);
  }
  // True when raw write k ends the prefix or a cycle: the writer flushes
  // its Coalescer there so every replayed flush boundary is real.
  bool flush_after(std::uint64_t k) const {
    return k + 1 == raw_prefix_ ||
           (k >= raw_prefix_ && ((k + 1 - raw_prefix_) & cycle_mask_) == 0);
  }

  // ---- reader side: effective position t ----
  std::uint32_t eff_comp(std::uint64_t t) const {
    return eff_comp_[eff_slot(t)];
  }
  // Offset of the raw write whose value entry t publishes.
  std::uint8_t eff_off(std::uint64_t t) const {
    return eff_off_[eff_slot(t)];
  }
  // Effective position of the next write to eff_comp(t) after t, or
  // kNever.
  std::uint64_t eff_next(std::uint64_t t) const {
    const std::uint32_t gap = eff_gap_[eff_slot(t)];
    return gap == kNoGap ? kNever : t + gap;
  }
  // Effective position of the first write to component c, or kNever.
  std::uint64_t eff_first(std::uint32_t c) const {
    return first_[c - first_comp_];
  }
  // The value every owned component holds once the first `raw_end` raw
  // writes have all been applied (the final-state shadow), indexed by
  // component - first_comp().
  std::vector<std::uint64_t> values_after(std::uint64_t raw_end) const;

 private:
  static constexpr std::uint32_t kNoGap = ~std::uint32_t{0};

  std::size_t slot(std::uint64_t k) const {
    return k < raw_prefix_ ? k : raw_prefix_ + ((k - raw_prefix_) & cycle_mask_);
  }
  std::uint64_t eff_of_slot(std::size_t s, std::uint64_t k) const {
    const std::uint64_t e = raw_eff_[s];
    return k < raw_prefix_ ? e : e + ((k - raw_prefix_) >> cycle_shift_) * eff_cycle_;
  }
  std::size_t eff_slot(std::uint64_t t) const {
    return t < eff_prefix_ ? t : eff_prefix_ + (t - eff_prefix_) % eff_cycle_;
  }

  std::uint32_t writer_, first_comp_, num_comps_;
  std::uint64_t raw_prefix_ = 0, cycle_mask_ = 0, eff_prefix_ = 0,
                eff_cycle_ = 0;
  unsigned cycle_shift_ = 0;
  std::vector<std::uint32_t> raw_comp_, raw_eff_;
  std::vector<std::uint8_t> raw_off_;
  std::vector<std::uint32_t> eff_comp_, eff_gap_;
  std::vector<std::uint8_t> eff_off_;
  std::vector<std::uint64_t> first_;
};

}  // namespace pb
