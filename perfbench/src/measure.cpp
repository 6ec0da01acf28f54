#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>

#include <time.h>

#include "core/op_stats.h"

namespace pb {

double ns_per_tick() {
  static const double value = [] {
    using Clock = std::chrono::steady_clock;
    const auto c0 = Clock::now();
    const std::uint64_t t0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto c1 = Clock::now();
    const std::uint64_t t1 = ticks();
    return std::chrono::duration<double, std::nano>(c1 - c0).count() /
           static_cast<double>(t1 - t0);
  }();
  return value;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

LatencySamples::LatencySamples(std::uint32_t period, std::size_t capacity)
    : period_(period), buf_(capacity, 0) {}

void LatencySamples::add(std::uint64_t t) {
  if (n_ == buf_.size()) {
    for (std::size_t i = 0; i < n_ / 2; ++i) buf_[i] = buf_[2 * i];
    n_ /= 2;
    period_ *= 2;
  }
  buf_[n_++] = static_cast<std::uint32_t>(std::min<std::uint64_t>(t, ~0u));
}

double percentile_ns(std::vector<std::uint32_t>& samples, double q) {
  if (samples.empty()) return 0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n));
  rank = std::min(rank, n - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return ticks_to_ns(samples[rank]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void Tracer::end() {
  if (!on_) return;
  const Open o = stack_[--depth_];
  const std::uint64_t dur = ticks() - o.start;
  SpanTotals& t = totals_[static_cast<int>(o.span)];
  ++t.count;
  t.ticks += dur;
  t.self += dur > o.child ? dur - o.child : 0;
  if (depth_ > 0) stack_[depth_ - 1].child += dur;
}

void LayerCounters::after_update() {
  const psnap::core::OpStats& s = psnap::core::tls_op_stats();
  ++updates;
  getset += s.getset_size;
  embedded += s.embedded_args;
  update_collects += s.collects;
  cas_failed += s.cas_failed ? 1 : 0;
}

void LayerCounters::after_scan() {
  const psnap::core::OpStats& s = psnap::core::tls_op_stats();
  ++scans;
  scan_collects += s.collects;
  borrowed += s.borrowed ? 1 : 0;
  chain_sum += s.chain_nodes;
  chain_max = std::max(chain_max, s.chain_nodes);
}

void LayerCounters::add(const LayerCounters& o) {
  updates += o.updates;
  getset += o.getset;
  embedded += o.embedded;
  update_collects += o.update_collects;
  cas_failed += o.cas_failed;
  scans += o.scans;
  scan_collects += o.scan_collects;
  borrowed += o.borrowed;
  chain_sum += o.chain_sum;
  chain_max = std::max(chain_max, o.chain_max);
}

namespace {
thread_local std::uint64_t tls_allocs = 0;
}  // namespace

std::uint64_t thread_allocs() { return tls_allocs; }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

}  // namespace pb

// ---- Counting allocator: every operator new of the binary lands here ----

namespace {

void* counted_alloc(std::size_t n, std::size_t align) {
  ++pb::tls_allocs;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) { return operator new(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
