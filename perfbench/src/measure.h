// Timing, latency samples, spans and counters, all kept per thread.
//
// Spans are recorded from the benchmark's own files around the calls it
// makes into each layer; nothing inside the library is instrumented.  A
// Tracer is inert unless the run is traced (--trace 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace pb {

inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// CPU time the calling thread has run, in seconds.  Time the hypervisor
// gave to other guests ("steal") is not in it; against the thread's wall
// time it shows how much of a round the thread was kept off its CPU.
double thread_cpu_seconds();

// Nanoseconds per tick, calibrated once against the steady clock.
double ns_per_tick();
inline double ticks_to_ns(double t) { return t * ns_per_tick(); }

// Wall latencies of every period-th operation, in ticks.  The buffer is
// allocated and touched up front (its size does not depend on how fast
// the run goes) and holds about what one round produces, so it adds
// little to the process's resident set; when it fills, every other sample
// is dropped and the period doubles, so the samples always span the whole
// round.
class LatencySamples {
 public:
  explicit LatencySamples(std::uint32_t period, std::size_t capacity = 1 << 16);
  bool due() { return (count_++ & (period_ - 1)) == 0; }
  void add(std::uint64_t t);
  std::span<const std::uint32_t> samples() const { return {buf_.data(), n_}; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t period_;
  std::vector<std::uint32_t> buf_;
  std::size_t n_ = 0;
};

// Nearest-rank percentile q in [0, 1] of samples (reordered), in ns; 0 when
// empty.
double percentile_ns(std::vector<std::uint32_t>& samples, double q);
double median(std::vector<double> v);

enum class Span : std::uint8_t {
  kWrite,         // Coalescer::write
  kFlush,         // the update_batch / update a flush forwards
  kUpdate,        // PartialSnapshot::update
  kScan,          // scan / scan_versioned
  kCheckpoint,    // capture + commit
  kCapture,       // recovery::Checkpointer::capture
  kCommit,        // persist::CheckpointWriter::commit
  kRestoreRound,  // load + restore
  kLoad,          // persist::CheckpointLoader::load_newest
  kRestore,       // recovery::restore
  kGrow,          // PartialSnapshot::add_components
  kCount,
};
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t ticks = 0;  // summed duration
  std::uint64_t self = 0;   // summed duration minus child spans
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void begin(Span s) {
    if (on_) stack_[depth_++] = Open{s, ticks(), 0};
  }
  void end();
  const SpanTotals& totals(Span s) const {
    return totals_[static_cast<int>(s)];
  }

 private:
  struct Open {
    Span span;
    std::uint64_t start;
    std::uint64_t child;
  };
  bool on_;
  Open stack_[4] = {};
  int depth_ = 0;
  SpanTotals totals_[static_cast<int>(Span::kCount)] = {};
};

class SpanScope {
 public:
  SpanScope(Tracer& t, Span s) : t_(t) { t_.begin(s); }
  ~SpanScope() { t_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
};

// Sums of core::OpStats fields, read after each operation of a traced run.
struct LayerCounters {
  std::uint64_t updates = 0, getset = 0, embedded = 0, update_collects = 0,
                cas_failed = 0;
  std::uint64_t scans = 0, scan_collects = 0, borrowed = 0, chain_sum = 0,
                chain_max = 0;
  void after_update();
  void after_scan();
  void add(const LayerCounters& o);
};

// Heap allocations made by the calling thread (counted by the benchmark's
// replacement operator new).
std::uint64_t thread_allocs();

// Peak resident set of this process, in MiB (VmHWM).
double peak_rss_mib();

}  // namespace pb
