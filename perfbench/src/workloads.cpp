#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "checks.h"
#include "core/partial_snapshot.h"
#include "core/scan_context.h"
#include "exec/thread_registry.h"
#include "ingest/coalescer.h"
#include "inputs.h"
#include "measure.h"
#include "persist/checkpoint.h"
#include "recovery/checkpointer.h"
#include "recovery/restore.h"
#include "registry/registry.h"

namespace pb {
namespace {

namespace core = psnap::core;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

enum Op { kOpWrite, kOpFlush, kOpScan, kOpCapture, kOpCheckpoint, kOpRestore,
          kOpGrow, kOpFinalCheck, kOpException, kNumOps };
const char* const kOpNames[kNumOps] = {"write", "flush", "scan", "capture",
                                       "checkpoint", "restore", "grow",
                                       "final_check", "exception"};

// A run is split into rounds of about this long, each on a fresh object.
// fig3_cas_fast aborts once one object has served 4,194,304 scans (its
// active set never recycles join slots), so no object may live long.
constexpr double kRoundSeconds = 0.25;
// Checkpoint / restore rounds after each round: quiescent ones are cheap
// and many samples steady their median; restoring checkpoint_restore's
// big frame is not.
constexpr int kQuiescentRounds = 4;
// Back-to-back captures of the quiescent object after each round, the
// first one a warm-up.  A capture timed between commits and restores finds
// the caches in whatever state they left: such single captures on
// versioned_read spread from 13 to 64 us inside a run, and their run
// medians by 22-30 %.
constexpr int kQuiescentCaptures = 16;
constexpr int kRestoreRounds = 1;
constexpr std::uint32_t kMaxThreads = 8;
constexpr std::size_t kMaxErrors = 8;
constexpr std::uint32_t kScanSets = 4096;

// What one thread did and measured.  Written only by its own thread until
// the harness joins it.
struct Worker {
  explicit Worker(bool trace) : tracer(trace) {
    capture_ms.reserve(1 << 14);
    restore_ms.reserve(1 << 10);
  }

  void fail(Op op, const std::string& why) {
    ++ops[op].failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::string(kOpNames[op]) + ": " + why);
  }
  // Runs f, counting an escaping exception as a failed operation.
  template <class F>
  void guarded(F&& f) {
    try {
      f();
    } catch (const std::exception& e) {
      ++ops[kOpException].attempted;
      fail(kOpException, e.what());
    }
  }
  // The timed phase's counters start from zero; set-up work is not in them.
  void start_timing() {
    for (int i = 0; i < kNumOps; ++i) timed_base[i] = ops[i].attempted;
    alloc_base = thread_allocs();
    tracer = Tracer(tracer.on());
    layer = LayerCounters{};
    capture_ms.clear();
    frame_bytes = frames = 0;
  }
  void stop_timing() {
    for (int i = 0; i < kNumOps; ++i) timed[i] = ops[i].attempted - timed_base[i];
    timed_allocs = thread_allocs() - alloc_base;
  }
  OpCount ops[kNumOps];
  std::uint64_t timed_base[kNumOps] = {};
  std::uint64_t timed[kNumOps] = {};
  std::uint64_t alloc_base = 0, timed_allocs = 0;
  LatencySamples scan_lat{4};
  LatencySamples update_lat{8};
  std::vector<double> capture_ms, restore_ms;
  std::uint64_t frame_bytes = 0, frames = 0;
  double run_wall_s = 0, run_cpu_s = 0;  // this round's timed phase
  Tracer tracer;
  LayerCounters layer;
  std::vector<std::string> errors;
};

// One writer's progress through its effective stream, read by readers
// around each bracketed read.
struct Progress {
  alignas(64) std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> completed{0};
};

// Forwarding snapshot under a writer's Coalescer: times each flush
// (update_batch, or update for a lone entry), checks that it carries
// exactly the entries the writer's log replayed, and publishes the
// writer's progress around it.
class FlushProbe final : public core::PartialSnapshot {
 public:
  FlushProbe(core::PartialSnapshot& target, const WriterLog& log,
             Progress& progress, Worker& me)
      : target_(target), log_(log), progress_(progress), me_(me) {}

  std::uint32_t num_components() const override { return target_.num_components(); }
  std::string_view name() const override { return target_.name(); }
  bool is_wait_free() const override { return target_.is_wait_free(); }
  bool is_local() const override { return target_.is_local(); }
  std::uint32_t add_components(std::uint32_t n) override { return target_.add_components(n); }
  core::BatchAtomicity batch_atomicity() const override { return target_.batch_atomicity(); }
  void scan(std::span<const std::uint32_t> indices, std::vector<std::uint64_t>& out,
            core::ScanContext& ctx) override {
    target_.scan(indices, out, ctx);
  }
  void update(std::uint32_t i, std::uint64_t v) override {
    const core::BatchEntry e{i, v};
    publish({&e, 1});
  }
  void update_batch(std::span<const core::BatchEntry> entries) override { publish(entries); }

 private:
  void publish(std::span<const core::BatchEntry> entries) {
    ++me_.ops[kOpFlush].attempted;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].index != log_.eff_comp(next_ + k) ||
          decode_value(entries[k].value).eff != next_ + k) {
        me_.fail(kOpFlush, "flush entry " + std::to_string(next_ + k) +
                               " differs from the writer's log");
        break;
      }
    }
    const std::uint64_t end = next_ + entries.size();
    progress_.started.store(end, std::memory_order_release);
    const bool sample = me_.update_lat.due();
    const std::uint64_t t0 = sample ? ticks() : 0;
    {
      SpanScope span(me_.tracer, Span::kFlush);
      if (entries.size() == 1) {
        target_.update(entries[0].index, entries[0].value);
      } else {
        target_.update_batch(entries);
      }
    }
    if (sample) me_.update_lat.add(ticks() - t0);
    progress_.completed.store(end, std::memory_order_release);
    if (me_.tracer.on()) me_.layer.after_update();
    next_ = end;
  }

  core::PartialSnapshot& target_;
  const WriterLog& log_;
  Progress& progress_;
  Worker& me_;
  std::uint64_t next_ = 0;
};

struct GrowStep {
  std::uint64_t at;  // before raw write `at`
  std::uint32_t count;
};

// Executes one WriterLog: singleton updates, or Coalescer writes when
// `coalesce` is given.
class Writer {
 public:
  Writer(core::PartialSnapshot& obj, const WriterLog& log, Progress& progress,
         Worker& me, const psnap::ingest::Coalescer::Options* coalesce,
         std::vector<GrowStep> grows = {})
      : obj_(obj), log_(log), progress_(progress), me_(me), grows_(std::move(grows)) {
    if (coalesce != nullptr) {
      probe_ = std::make_unique<FlushProbe>(obj, log, progress, me);
      coalescer_ = std::make_unique<psnap::ingest::Coalescer>(*probe_, *coalesce);
    }
  }

  void run_to(std::uint64_t raw_end) {
    while (k_ < raw_end) step();
  }
  void run_until(const std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_acquire)) step();
  }
  void finish() {
    if (coalescer_) coalescer_->flush();
  }
  std::uint64_t raw_done() const { return k_; }
  std::size_t grows_done() const { return g_; }
  psnap::ingest::Coalescer::Stats coalescer_stats() const {
    return coalescer_ ? coalescer_->stats() : psnap::ingest::Coalescer::Stats{};
  }

 private:
  void step() {
    if (g_ < grows_.size() && grows_[g_].at == k_) grow();
    const std::uint32_t c = log_.raw_comp(k_);
    const std::uint64_t v = log_.raw_value(k_);
    ++me_.ops[kOpWrite].attempted;
    if (coalescer_) {
      SpanScope span(me_.tracer, Span::kWrite);
      coalescer_->write(c, v);
      if (log_.flush_after(k_)) coalescer_->flush();
    } else {
      progress_.started.store(k_ + 1, std::memory_order_release);
      const bool sample = me_.update_lat.due();
      const std::uint64_t t0 = sample ? ticks() : 0;
      {
        SpanScope span(me_.tracer, Span::kUpdate);
        obj_.update(c, v);
      }
      if (sample) me_.update_lat.add(ticks() - t0);
      progress_.completed.store(k_ + 1, std::memory_order_release);
      if (me_.tracer.on()) me_.layer.after_update();
    }
    ++k_;
  }

  void grow() {
    ++me_.ops[kOpGrow].attempted;
    const std::uint32_t before = obj_.num_components();
    std::uint32_t first = 0;
    {
      SpanScope span(me_.tracer, Span::kGrow);
      first = obj_.add_components(grows_[g_].count);
    }
    if (first != before) {
      me_.fail(kOpGrow, "block starts at " + std::to_string(first) + ", expected " +
                            std::to_string(before));
    }
    ++g_;
  }

  core::PartialSnapshot& obj_;
  const WriterLog& log_;
  Progress& progress_;
  Worker& me_;
  std::vector<GrowStep> grows_;
  std::unique_ptr<FlushProbe> probe_;
  std::unique_ptr<psnap::ingest::Coalescer> coalescer_;
  std::uint64_t k_ = 0;
  std::size_t g_ = 0;
};

std::vector<Bracket> read_completed(std::span<Progress> progress) {
  std::vector<Bracket> b(progress.size());
  for (std::size_t w = 0; w < progress.size(); ++w) {
    b[w].completed = progress[w].completed.load(std::memory_order_acquire);
  }
  return b;
}

void read_started(std::span<Progress> progress, std::vector<Bracket>& b) {
  for (std::size_t w = 0; w < progress.size(); ++w) {
    b[w].started = progress[w].started.load(std::memory_order_acquire);
  }
}

// Issues partial scans (or scan_versioned) over pre-drawn index sets and
// checks every result.
class Reader {
 public:
  Reader(core::PartialSnapshot& obj, const std::vector<std::uint32_t>& sets,
         std::uint32_t width, std::vector<const WriterLog*> logs,
         std::span<Progress> progress, bool versioned, Worker& me)
      : obj_(obj), sets_(sets), width_(width), checker_(std::move(logs)),
        progress_(progress), versioned_(versioned), me_(me),
        brackets_(progress.size()) {
    out_.reserve(width);
  }

  void run_for(std::uint64_t scans) {
    for (std::uint64_t i = 0; i < scans; ++i) step();
  }
  void run_until(const std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_acquire)) step();
  }

 private:
  void step() {
    const std::span<const std::uint32_t> idx(sets_.data() + cursor_ * width_, width_);
    cursor_ = (cursor_ + 1) % (sets_.size() / width_);
    // Every 16th read is bracketed by the writers' progress counters.
    const bool bracket = (n_++ & 15) == 0;
    if (bracket) {
      for (std::size_t w = 0; w < progress_.size(); ++w) {
        brackets_[w].completed = progress_[w].completed.load(std::memory_order_acquire);
      }
    }
    ++me_.ops[kOpScan].attempted;
    const bool sample = me_.scan_lat.due();
    const std::uint64_t t0 = sample ? ticks() : 0;
    std::uint64_t epoch = 0;
    {
      SpanScope span(me_.tracer, Span::kScan);
      if (versioned_) {
        epoch = obj_.scan_versioned(idx, out_, ctx_);
      } else {
        obj_.scan(idx, out_, ctx_);
      }
    }
    if (sample) me_.scan_lat.add(ticks() - t0);
    if (me_.tracer.on()) me_.layer.after_scan();
    if (bracket) read_started(progress_, brackets_);
    if (!checker_.check(idx, out_, bracket ? std::span<const Bracket>(brackets_)
                                           : std::span<const Bracket>())) {
      me_.fail(kOpScan, checker_.error());
    } else if (versioned_ && !epochs_.observe(epoch)) {
      me_.fail(kOpScan, "scan_versioned epoch " + std::to_string(epoch) +
                            " does not exceed the reader's previous one");
    }
  }

  core::PartialSnapshot& obj_;
  const std::vector<std::uint32_t>& sets_;
  std::uint32_t width_;
  CutChecker checker_;
  std::span<Progress> progress_;
  bool versioned_;
  Worker& me_;
  std::vector<Bracket> brackets_;
  EpochOrder epochs_;
  core::ScanContext ctx_;
  std::vector<std::uint64_t> out_;
  std::size_t cursor_ = 0;
  std::uint64_t n_ = 0;
};

psnap::recovery::Checkpointer::Options checkpointer_options(const std::string& spec,
                                                             std::uint32_t initial_m) {
  psnap::recovery::Checkpointer::Options o;
  o.impl_spec = spec;
  o.initial_m = initial_m;
  o.max_threads = kMaxThreads;
  return o;
}

// Takes durable full checkpoints (capture + commit, timed apart) and, with
// `cut_check`, checks every frame as a cut of the writers' logs.
class FrameTaker {
 public:
  FrameTaker(core::PartialSnapshot& obj, const std::string& spec,
             std::uint32_t initial_m, const std::string& dir,
             std::vector<const WriterLog*> logs, std::span<Progress> progress, bool sync,
             bool cut_check)
      : writer_(dir, psnap::persist::CheckpointWriter::Options{.keep_frames = 4, .sync = sync}),
        checkpointer_(obj, writer_, checkpointer_options(spec, initial_m)),
        checker_(std::move(logs)),
        progress_(progress),
        cut_check_(cut_check) {}

  // One full capture into last(), without a commit; returns its time in ms.
  double capture(Worker& me) {
    const std::uint64_t t0 = ticks();
    {
      SpanScope span(me.tracer, Span::kCapture);
      checkpointer_.capture(frame_);
    }
    return ticks_to_ns(static_cast<double>(ticks() - t0)) / 1e6;
  }

  // capture + commit, the frame checked; returns the capture's time in ms.
  double take(Worker& me) {
    ++me.ops[kOpCheckpoint].attempted;
    std::vector<Bracket> br = read_completed(progress_);
    std::string path;
    double capture_ms = 0;
    {
      SpanScope span(me.tracer, Span::kCheckpoint);
      capture_ms = capture(me);
      read_started(progress_, br);
      frame_.sequence = next_sequence_++;
      SpanScope commit(me.tracer, Span::kCommit);
      path = writer_.commit(frame_);
    }
    me.frame_bytes += fs::file_size(path);
    ++me.frames;
    if (all_.size() < frame_.num_components) {
      all_.resize(frame_.num_components);
      std::iota(all_.begin(), all_.end(), 0u);
    }
    if (cut_check_ &&
        !checker_.check(std::span(all_).first(frame_.num_components), frame_.values, br)) {
      me.fail(kOpCheckpoint, "frame " + std::to_string(frame_.sequence) + ": " + checker_.error());
    }
    return capture_ms;
  }
  const psnap::persist::CheckpointData& last() const { return frame_; }

 private:
  psnap::persist::CheckpointWriter writer_;
  psnap::recovery::Checkpointer checkpointer_;
  CutChecker checker_;
  std::span<Progress> progress_;
  bool cut_check_;
  psnap::persist::CheckpointData frame_;
  std::uint64_t next_sequence_ = 1;
  std::vector<std::uint32_t> all_;
};

// load_newest + restore of the newest frame, checked against `expect`.
void restore_round(Worker& me, const std::string& dir,
                   const psnap::persist::CheckpointData& expect) {
  ++me.ops[kOpRestore].attempted;
  std::optional<psnap::persist::CheckpointData> frame;
  std::unique_ptr<core::PartialSnapshot> restored;
  const std::uint64_t t0 = ticks();
  {
    SpanScope span(me.tracer, Span::kRestoreRound);
    {
      SpanScope load(me.tracer, Span::kLoad);
      frame = psnap::persist::CheckpointLoader(dir).load_newest();
    }
    if (frame) {
      SpanScope rebuild(me.tracer, Span::kRestore);
      restored = psnap::recovery::restore(*frame);
    }
  }
  me.restore_ms.push_back(ticks_to_ns(static_cast<double>(ticks() - t0)) / 1e6);
  std::string why;
  if (!frame) {
    me.fail(kOpRestore, "no intact frame to load");
  } else if (frame->sequence != expect.sequence || frame->num_components != expect.num_components) {
    me.fail(kOpRestore, "loaded frame " + std::to_string(frame->sequence) +
                            " is not the newest committed one");
  } else if (!same_values(frame->values, expect.values, &why)) {
    me.fail(kOpRestore, "loaded frame differs from the committed one: " + why);
  } else if (!restored_matches(*restored, *frame, &why)) {
    me.fail(kOpRestore, why);
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Team {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};  // set-up over: the timed phase starts
  std::atomic<bool> stop{false};
  std::atomic<int> readers_done{0};
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // Builds the object and every role (set-up, timed).
  virtual void build(const RunConfig& config, std::vector<std::unique_ptr<Worker>>& workers) = 0;
  virtual void warm(int t) = 0;
  virtual void run(int t, Team& team) = 0;
  // After the timed phase: readers report done, writers publish what
  // they still buffer.
  virtual void drain(int t, Team& team) = 0;
  // Main thread, after every worker of a round joined: the final-state
  // check.
  virtual void check(Worker& main) = 0;
  // Main thread, after the check: the checkpoint / restore rounds.
  virtual void post(Worker& main) = 0;
  virtual void teardown() = 0;
  virtual core::PartialSnapshot& object() = 0;
  virtual psnap::ingest::Coalescer::Stats ingest_stats() const { return {}; }
};

std::string ckpt_dir(const RunConfig& config) { return config.dir + "/ckpt"; }

// The final state must equal the writers' shadow of their last writes.
void final_check(Worker& main, core::PartialSnapshot& obj,
                 const std::vector<const WriterLog*>& logs,
                 const std::vector<std::uint64_t>& raw_done,
                 std::uint32_t expect_m) {
  ++main.ops[kOpFinalCheck].attempted;
  std::vector<std::uint64_t> shadow(expect_m, kInitialValue);
  for (std::size_t w = 0; w < logs.size(); ++w) {
    const std::vector<std::uint64_t> last = logs[w]->values_after(raw_done[w]);
    for (std::uint32_t i = 0; i < last.size(); ++i) {
      const std::uint32_t c = logs[w]->first_comp() + i;
      if (c < expect_m) shadow[c] = last[i];
    }
  }
  std::string why;
  const std::vector<std::uint64_t> got = obj.scan_all();
  if (!same_values(got, shadow, &why)) main.fail(kOpFinalCheck, "final state: " + why);
}

// Quiescent captures, then checkpoint + restore rounds, after the writers
// stopped: each capture and frame must equal the final state (itself
// checked against the writers' shadow), each restore its frame.  No cut
// check here: the final state includes each writer's last, partial flush,
// which the replayed log does not describe.
void checkpoint_rounds(Worker& main, core::PartialSnapshot& obj, const std::string& spec,
                       std::uint32_t m, const std::vector<const WriterLog*>& logs,
                       std::span<Progress> progress, const std::string& dir) {
  FrameTaker taker(obj, spec, m, dir, logs, progress, /*sync=*/false, /*cut_check=*/false);
  const std::vector<std::uint64_t> final_state = obj.scan_all();
  std::string why;
  for (int c = 0; c <= kQuiescentCaptures; ++c) {
    ++main.ops[kOpCapture].attempted;
    const double ms = taker.capture(main);
    if (c > 0) main.capture_ms.push_back(ms);
    if (!same_values(taker.last().values, final_state, &why)) {
      main.fail(kOpCapture, "quiescent capture differs from the final state: " + why);
    }
  }
  for (int r = 0; r < kQuiescentRounds; ++r) {
    taker.take(main);
    if (!same_values(taker.last().values, final_state, &why)) {
      main.fail(kOpCheckpoint, "quiescent frame differs from the final state: " + why);
    }
    restore_round(main, dir, taker.last());
  }
}

// ingest_collect: two producers, each writing Zipf-skewed indices of its
// own half through its own Coalescer, and one scanner of 8 uniform
// components.
class IngestCollect final : public Workload {
 public:
  static constexpr std::uint32_t kComps = 4096, kWriters = 2, kWidth = 8;
  static constexpr double kZipf = 0.99;
  static constexpr std::uint32_t kBatch = 16, kWindow = 32;
  static constexpr std::uint64_t kWarmWrites = 1 << 15, kWarmScans = 1 << 12;
  static constexpr std::size_t kCycle = 1 << 16;

  explicit IngestCollect(std::uint64_t seed) {
    const std::uint32_t own = kComps / kWriters;
    for (std::uint32_t w = 0; w < kWriters; ++w) {
      Rng rng = stream_rng(seed, 10 + w);
      const Zipf zipf(own, kZipf, rng);
      std::vector<std::uint32_t> prefix(own), cycle(kCycle);
      std::iota(prefix.begin(), prefix.end(), w * own);  // prefill
      for (std::uint64_t i = 0; i < kWarmWrites; ++i) prefix.push_back(w * own + zipf.draw(rng));
      for (auto& c : cycle) c = w * own + zipf.draw(rng);
      logs_.push_back(std::make_unique<WriterLog>(w, w * own, own, std::move(prefix),
                                                  std::move(cycle), kBatch, kWindow));
      log_ptrs_.push_back(logs_.back().get());
    }
    Rng rng = stream_rng(seed, 20);
    sets_ = make_scan_sets(kScanSets, kWidth, kComps, rng);
  }

  int threads() const override { return kWriters + 1; }

  void build(const RunConfig& config, std::vector<std::unique_ptr<Worker>>& workers) override {
    dir_ = ckpt_dir(config);
    obj_ = psnap::registry::make_snapshot("fig3_cas_fast", kComps, kMaxThreads);
    progress_ = std::make_unique<Progress[]>(kWriters);
    psnap::ingest::Coalescer::Options opts;
    opts.batch = kBatch;
    opts.coalesce_window = kWindow;
    writers_.clear();
    for (std::uint32_t w = 0; w < kWriters; ++w) {
      writers_.push_back(std::make_unique<Writer>(*obj_, *logs_[w], progress_[w], *workers[w], &opts));
    }
    reader_ = std::make_unique<Reader>(*obj_, sets_, kWidth, log_ptrs_, progress(), false,
                                       *workers[kWriters]);
  }
  void warm(int t) override {
    if (t < static_cast<int>(kWriters)) {
      writers_[t]->run_to(logs_[t]->raw_prefix());
    } else {
      reader_->run_for(kWarmScans);
    }
  }
  void run(int t, Team& team) override {
    if (t < static_cast<int>(kWriters)) {
      writers_[t]->run_until(team.stop);
    } else {
      reader_->run_until(team.stop);
    }
  }
  void drain(int t, Team& team) override {
    if (t < static_cast<int>(kWriters)) {
      // A scan concurrent with this last, partial flush would see entries
      // the log never replayed, so the scanner stops first.
      while (team.readers_done.load(std::memory_order_acquire) < 1) std::this_thread::yield();
      writers_[t]->finish();
    } else {
      team.readers_done.fetch_add(1, std::memory_order_release);
    }
  }
  void check(Worker& main) override {
    std::vector<std::uint64_t> done;
    for (auto& w : writers_) done.push_back(w->raw_done());
    final_check(main, *obj_, log_ptrs_, done, kComps);
  }
  void post(Worker& main) override {
    checkpoint_rounds(main, *obj_, "fig3_cas_fast", kComps, log_ptrs_, progress(), dir_);
  }
  void teardown() override {
    reader_.reset();
    writers_.clear();
    obj_.reset();
  }
  core::PartialSnapshot& object() override { return *obj_; }
  psnap::ingest::Coalescer::Stats ingest_stats() const override {
    psnap::ingest::Coalescer::Stats sum;
    for (const auto& w : writers_) {
      const auto s = w->coalescer_stats();
      sum.writes += s.writes;
      sum.merged += s.merged;
      sum.flushes += s.flushes;
      sum.flushed_entries += s.flushed_entries;
    }
    return sum;
  }


 private:
  std::span<Progress> progress() { return {progress_.get(), kWriters}; }

  std::vector<std::unique_ptr<WriterLog>> logs_;
  std::vector<const WriterLog*> log_ptrs_;
  std::vector<std::uint32_t> sets_;
  std::unique_ptr<core::PartialSnapshot> obj_;
  std::unique_ptr<Progress[]> progress_;
  std::vector<std::unique_ptr<Writer>> writers_;
  std::unique_ptr<Reader> reader_;
  std::string dir_;
};

// versioned_read: one writer of singleton updates (Zipf) on the versioned
// plane, two readers of scan_versioned over 16 uniform components.
class VersionedRead final : public Workload {
 public:
  static constexpr std::uint32_t kComps = 1024, kReaders = 2, kWidth = 16;
  static constexpr double kZipf = 0.99;
  static constexpr std::uint64_t kWarmWrites = 1 << 15, kWarmScans = 1 << 12;
  static constexpr std::size_t kCycle = 1 << 16;
  static constexpr const char* kSpec = "fig3_cas_fast:value=versioned";

  explicit VersionedRead(std::uint64_t seed) {
    Rng rng = stream_rng(seed, 10);
    const Zipf zipf(kComps, kZipf, rng);
    std::vector<std::uint32_t> prefix(kComps), cycle(kCycle);
    std::iota(prefix.begin(), prefix.end(), 0u);
    for (std::uint64_t i = 0; i < kWarmWrites; ++i) prefix.push_back(zipf.draw(rng));
    for (auto& c : cycle) c = zipf.draw(rng);
    log_ = std::make_unique<WriterLog>(0, 0, kComps, std::move(prefix), std::move(cycle), 1, 0);
    for (std::uint32_t r = 0; r < kReaders; ++r) {
      Rng srng = stream_rng(seed, 20 + r);
      sets_.push_back(make_scan_sets(kScanSets, kWidth, kComps, srng));
    }
  }

  int threads() const override { return 1 + kReaders; }

  void build(const RunConfig& config, std::vector<std::unique_ptr<Worker>>& workers) override {
    dir_ = ckpt_dir(config);
    obj_ = psnap::registry::make_snapshot(kSpec, kComps, kMaxThreads);
    progress_ = std::make_unique<Progress[]>(1);
    writer_ = std::make_unique<Writer>(*obj_, *log_, progress_[0], *workers[0], nullptr);
    readers_.clear();
    for (std::uint32_t r = 0; r < kReaders; ++r) {
      readers_.push_back(std::make_unique<Reader>(*obj_, sets_[r], kWidth,
                                                  std::vector<const WriterLog*>{log_.get()},
                                                  progress(), true, *workers[1 + r]));
    }
  }
  void warm(int t) override {
    if (t == 0) {
      writer_->run_to(log_->raw_prefix());
    } else {
      readers_[t - 1]->run_for(kWarmScans);
    }
  }
  void run(int t, Team& team) override {
    if (t == 0) {
      writer_->run_until(team.stop);
    } else {
      readers_[t - 1]->run_until(team.stop);
    }
  }
  void drain(int, Team&) override {}
  void check(Worker& main) override {
    final_check(main, *obj_, {log_.get()}, {writer_->raw_done()}, kComps);
  }
  void post(Worker& main) override {
    checkpoint_rounds(main, *obj_, kSpec, kComps, {log_.get()}, progress(), dir_);
  }
  void teardown() override {
    readers_.clear();
    writer_.reset();
    obj_.reset();
  }
  core::PartialSnapshot& object() override { return *obj_; }

 private:
  std::span<Progress> progress() { return {progress_.get(), 1}; }

  std::unique_ptr<WriterLog> log_;
  std::vector<std::vector<std::uint32_t>> sets_;
  std::unique_ptr<core::PartialSnapshot> obj_;
  std::unique_ptr<Progress[]> progress_;
  std::unique_ptr<Writer> writer_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::string dir_;
};

// checkpoint_restore: tens of thousands of components, grown by blocks
// while one writer updates uniformly and a checkpointer commits durable
// full frames at a fixed interval; a third thread issues partial scans.
// After the run, the newest frame is loaded and restored repeatedly.
class CheckpointRestore final : public Workload {
 public:
  static constexpr std::uint32_t kInitialComps = 32768, kBlock = 1024, kBlocks = 16;
  static constexpr std::uint32_t kFinalComps = kInitialComps + kBlock * kBlocks;
  // The growth takes the first 8192 writes of a round, about 20 ms.
  static constexpr std::uint64_t kWritesPerBlock = 1 << 9;
  static constexpr std::uint64_t kWarmWrites = 1 << 14, kWarmScans = 1 << 12;
  static constexpr std::uint32_t kWidth = 8;
  static constexpr std::size_t kCycle = 1 << 18;
  // Frames are due at 40, 120 and 200 ms of a 250 ms round: three per
  // round, none racing the round's end.
  static constexpr auto kInterval = std::chrono::milliseconds(80);
  static constexpr const char* kSpec = "fig3_cas_fast";

  explicit CheckpointRestore(std::uint64_t seed) {
    Rng rng = stream_rng(seed, 10);
    std::vector<std::uint32_t> prefix(kInitialComps), cycle(kCycle);
    std::iota(prefix.begin(), prefix.end(), 0u);
    for (std::uint64_t i = 0; i < kWarmWrites; ++i) prefix.push_back(rng.below(kInitialComps));
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      grows_.push_back({prefix.size(), kBlock});
      const std::uint32_t m = kInitialComps + (b + 1) * kBlock;
      for (std::uint64_t i = 0; i < kWritesPerBlock; ++i) prefix.push_back(rng.below(m));
    }
    for (auto& c : cycle) c = rng.below(kFinalComps);
    warm_end_ = kInitialComps + kWarmWrites;
    log_ = std::make_unique<WriterLog>(0, 0, kFinalComps, std::move(prefix), std::move(cycle), 1, 0);
    Rng srng = stream_rng(seed, 20);
    sets_ = make_scan_sets(kScanSets, kWidth, kInitialComps, srng);
  }

  int threads() const override { return 3; }

  void build(const RunConfig& config, std::vector<std::unique_ptr<Worker>>& workers) override {
    obj_ = psnap::registry::make_snapshot(kSpec, kInitialComps, kMaxThreads);
    progress_ = std::make_unique<Progress[]>(1);
    writer_ = std::make_unique<Writer>(*obj_, *log_, progress_[0], *workers[0], nullptr, grows_);
    taker_ = std::make_unique<FrameTaker>(*obj_, kSpec, kInitialComps, ckpt_dir(config),
                                          std::vector<const WriterLog*>{log_.get()}, progress(),
                                          /*sync=*/true, /*cut_check=*/true);
    reader_ = std::make_unique<Reader>(*obj_, sets_, kWidth, std::vector<const WriterLog*>{log_.get()},
                                       progress(), false, *workers[2]);
    workers_ = &workers;
    dir_ = ckpt_dir(config);
  }
  void warm(int t) override {
    if (t == 0) {
      writer_->run_to(warm_end_);
    } else if (t == 1) {
      taker_->take(*(*workers_)[1]);
    } else {
      reader_->run_for(kWarmScans);
    }
  }
  void run(int t, Team& team) override {
    if (t == 0) {
      writer_->run_until(team.stop);
    } else if (t == 1) {
      Worker& me = *(*workers_)[1];
      // The first frame is due half an interval in, after the growth: a
      // frame taken at the start of the round captured 32768 components
      // in about half the time of one of 49152, and that mix of two
      // populations made the capture median of a run jump between them.
      auto due = Clock::now() + kInterval / 2;
      for (;;) {
        for (auto now = Clock::now(); now < due && !team.stop.load(std::memory_order_acquire);
             now = Clock::now()) {
          std::this_thread::sleep_for(std::min<Clock::duration>(due - now, std::chrono::milliseconds(1)));
        }
        if (team.stop.load(std::memory_order_acquire)) break;
        me.capture_ms.push_back(taker_->take(me));
        due = std::max(due + kInterval, Clock::now());
      }
    } else {
      reader_->run_until(team.stop);
    }
  }
  void drain(int, Team&) override {}
  void check(Worker& main) override {
    const std::uint32_t m = kInitialComps + kBlock * static_cast<std::uint32_t>(writer_->grows_done());
    if (obj_->num_components() != m) {
      ++main.ops[kOpGrow].attempted;
      main.fail(kOpGrow, "object has " + std::to_string(obj_->num_components()) +
                             " components after " + std::to_string(writer_->grows_done()) + " blocks");
    }
    final_check(main, *obj_, {log_.get()}, {writer_->raw_done()}, m);
  }
  void post(Worker& main) override {
    for (int r = 0; r < kRestoreRounds; ++r) restore_round(main, dir_, taker_->last());
  }
  void teardown() override {
    reader_.reset();
    taker_.reset();
    writer_.reset();
    obj_.reset();
  }
  core::PartialSnapshot& object() override { return *obj_; }

 private:
  std::span<Progress> progress() { return {progress_.get(), 1}; }

  std::unique_ptr<WriterLog> log_;
  std::vector<GrowStep> grows_;
  std::uint64_t warm_end_ = 0;
  std::vector<std::uint32_t> sets_;
  std::unique_ptr<core::PartialSnapshot> obj_;
  std::unique_ptr<Progress[]> progress_;
  std::unique_ptr<Writer> writer_;
  std::unique_ptr<FrameTaker> taker_;
  std::unique_ptr<Reader> reader_;
  std::vector<std::unique_ptr<Worker>>* workers_ = nullptr;
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

// Pins the calling thread to the index-th CPU the process may run on, so
// the workers of every round sit on the same distinct CPUs.
void pin_to(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= index) return;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && seen++ == index) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

// The timed phase is measured in wall time; its CPU time is kept beside it
// to show how much of the round the thread spent off its CPU (host steal,
// or blocking in the library).
void round_body(Workload& wl, Worker& me, int t, Team& team) {
  psnap::exec::ThreadHandle pid;  // registration is part of set-up
  me.guarded([&] { wl.warm(t); });
  team.ready.fetch_add(1, std::memory_order_acq_rel);
  while (!team.go.load(std::memory_order_acquire)) std::this_thread::yield();
  me.start_timing();
  const auto wall0 = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  me.guarded([&] { wl.run(t, team); });
  me.run_cpu_s = thread_cpu_seconds() - cpu0;
  me.run_wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  me.stop_timing();
  me.guarded([&] { wl.drain(t, team); });
}

// The run's worker threads, kept for every round so that each worker's
// CPU and allocator state stay the same from round to round.
class Crew {
 public:
  Crew(Workload& wl, int n) : wl_(wl), n_(n) {
    for (int t = 0; t < n; ++t) threads_.emplace_back([this, t] { loop(t); });
  }
  ~Crew() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (auto& th : threads_) th.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Starts a round; returns once every worker has finished its set-up.
  void start(std::vector<std::unique_ptr<Worker>>& workers, Team& team) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      workers_ = &workers;
      team_ = &team;
      finished_ = 0;
      ++round_;
    }
    cv_.notify_all();
    while (team.ready.load(std::memory_order_acquire) < n_) std::this_thread::yield();
  }
  // Waits until every worker has finished the round.
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [this] { return finished_ == n_; });
  }

 private:
  void loop(int t) {
    pin_to(t);
    for (int seen = 0;;) {
      Worker* me = nullptr;
      Team* team = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return quit_ || round_ > seen; });
        if (quit_) return;
        seen = round_;
        me = (*workers_)[t].get();
        team = team_;
      }
      round_body(wl_, *me, t, *team);
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++finished_;
      }
      done_.notify_all();
    }
  }

  Workload& wl_;
  const int n_;
  std::mutex mu_;  // guards the round hand-off below
  std::condition_variable cv_, done_;
  std::vector<std::unique_ptr<Worker>>* workers_ = nullptr;
  Team* team_ = nullptr;
  int round_ = 0;
  int finished_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // last: started after the state above
};

struct Totals {
  SpanTotals span[static_cast<int>(Span::kCount)];
  LayerCounters layer;
  void add(const Worker& w) {
    for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
      const SpanTotals& o = w.tracer.totals(static_cast<Span>(s));
      span[s].count += o.count;
      span[s].ticks += o.ticks;
      span[s].self += o.self;
    }
    layer.add(w.layer);
  }
  std::uint64_t count(Span s) const { return span[static_cast<int>(s)].count; }
  // Mean self time / duration per span, in units of `scale` ns; 0 when the
  // span never ran.
  double self(Span s, double scale = 1) const { return mean(s, &SpanTotals::self, scale); }
  double dur(Span s, double scale = 1) const { return mean(s, &SpanTotals::ticks, scale); }

 private:
  double mean(Span s, std::uint64_t SpanTotals::*field, double scale) const {
    const SpanTotals& t = span[static_cast<int>(s)];
    return t.count == 0 ? 0
                        : ticks_to_ns(static_cast<double>(t.*field)) / scale /
                              static_cast<double>(t.count);
  }
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

// A run is `rounds` rounds.  Each round builds a fresh object, sets it up
// (timed: setup_s), runs the closed loops for seconds / rounds, checks the
// final state, and does the workload's checkpoint / restore rounds.  Every
// end-to-end figure is the median over rounds (checkpoint and restore
// latencies: over all of them), so neither a round disturbed from outside
// nor one object's unlucky memory layout moves it much.
RunReport run_harness(Workload& wl, const RunConfig& config) {
  psnap::exec::ThreadHandle main_pid;
  const int n = wl.threads();
  const int rounds = std::max(1, static_cast<int>(std::lround(config.seconds / kRoundSeconds)));
  const auto round_time = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds / rounds));
  Worker main(config.trace);
  RunReport report;
  OpCount ops[kNumOps];
  Totals totals;
  psnap::ingest::Coalescer::Stats ingest;
  std::uint64_t timed_ops = 0, timed_allocs = 0, frame_bytes = 0, frames = 0;
  std::uint64_t outstanding_max = 0, scan_samples = 0, update_samples = 0;
  std::vector<double> setup_s, write_tp, scan_tp, scan_p50, scan_p99, update_p50, capture_ms;
  std::vector<double> write_cpu_share, scan_cpu_share;
  Crew crew(wl, n);
  // The main thread takes the CPU after the workers' (after starting them:
  // threads inherit their creator's affinity) for the checks, checkpoint
  // and restore rounds.
  pin_to(n);

  auto absorb = [&](const Worker& w) {
    for (int i = 0; i < kNumOps; ++i) {
      ops[i].attempted += w.ops[i].attempted;
      ops[i].failed += w.ops[i].failed;
    }
    for (const auto& e : w.errors) {
      if (report.errors.size() < kMaxErrors) report.errors.push_back(e);
    }
    totals.add(w);
    frame_bytes += w.frame_bytes;
    frames += w.frames;
  };

  for (int round = 0; round < rounds; ++round) {
    fs::remove_all(ckpt_dir(config));
    std::vector<std::unique_ptr<Worker>> workers;
    for (int t = 0; t < n; ++t) {
      workers.push_back(std::make_unique<Worker>(config.trace));
    }
    if (round == 0) report.harness_rss_mib = peak_rss_mib();
    Team team;
    const auto setup0 = Clock::now();
    wl.build(config, workers);
    crew.start(workers, team);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - setup0).count());

    const auto start = Clock::now();
    const auto end = start + round_time;
    team.go.store(true, std::memory_order_release);
    for (auto now = start; now < end; now = Clock::now()) {
      if (config.trace) {
        std::this_thread::sleep_for(std::min<Clock::duration>(end - now, std::chrono::milliseconds(10)));
        const std::uint64_t o = wl.object().reclaim_outstanding();
        if (o < (std::uint64_t{1} << 62)) outstanding_max = std::max(outstanding_max, o);
      } else {
        std::this_thread::sleep_for(end - now);
      }
    }
    team.stop.store(true, std::memory_order_release);
    crew.wait();
    main.guarded([&] { wl.check(main); });
    main.guarded([&] { wl.post(main); });

    std::uint64_t writes = 0, scans = 0;
    // Summed over the threads issuing them.
    double write_wall_s = 0, scan_wall_s = 0, write_cpu_s = 0, scan_cpu_s = 0;
    int writers = 0, scanners = 0;
    std::vector<std::uint32_t> scan_lat, update_lat;
    std::vector<double> round_capture;
    for (const auto& w : workers) {
      writes += w->timed[kOpWrite];
      scans += w->timed[kOpScan];
      if (w->timed[kOpWrite] > 0) {
        write_wall_s += w->run_wall_s;
        write_cpu_s += w->run_cpu_s;
        ++writers;
      }
      if (w->timed[kOpScan] > 0) {
        scan_wall_s += w->run_wall_s;
        scan_cpu_s += w->run_cpu_s;
        ++scanners;
      }
      timed_ops += w->timed[kOpWrite] + w->timed[kOpScan] + w->timed[kOpCheckpoint] + w->timed[kOpGrow];
      timed_allocs += w->timed_allocs;
      scan_lat.insert(scan_lat.end(), w->scan_lat.samples().begin(), w->scan_lat.samples().end());
      update_lat.insert(update_lat.end(), w->update_lat.samples().begin(), w->update_lat.samples().end());
      round_capture.insert(round_capture.end(), w->capture_ms.begin(), w->capture_ms.end());
      absorb(*w);
    }
    // Per wall second of the timed phase, as the issuing threads saw it.
    // Their CPU share of that wall time is kept per round: below 1 where
    // the host took CPUs away, or where the library blocks.
    write_tp.push_back(writers == 0 ? 0 : static_cast<double>(writes) * writers / write_wall_s);
    scan_tp.push_back(scanners == 0 ? 0 : static_cast<double>(scans) * scanners / scan_wall_s);
    write_cpu_share.push_back(writers == 0 ? 0 : write_cpu_s / write_wall_s);
    scan_cpu_share.push_back(scanners == 0 ? 0 : scan_cpu_s / scan_wall_s);
    scan_samples += scan_lat.size();
    update_samples += update_lat.size();
    scan_p50.push_back(percentile_ns(scan_lat, 0.50));
    scan_p99.push_back(percentile_ns(scan_lat, 0.99));
    update_p50.push_back(percentile_ns(update_lat, 0.50));
    capture_ms.insert(capture_ms.end(), round_capture.begin(), round_capture.end());
    const auto s = wl.ingest_stats();
    ingest.writes += s.writes;
    ingest.merged += s.merged;
    ingest.flushes += s.flushes;
    ingest.flushed_entries += s.flushed_entries;
    wl.teardown();
  }
  absorb(main);
  if (capture_ms.empty()) {
    // Checkpoints were taken only between rounds, by the main thread.
    capture_ms = main.capture_ms;
  }
  for (int i = 0; i < kNumOps; ++i) {
    if (ops[i].attempted > 0 || ops[i].failed > 0) report.ops.emplace_back(kOpNames[i], ops[i]);
  }
  report.per_round = {{"setup_s", setup_s},
                      {"write_throughput", write_tp},
                      {"scan_throughput", scan_tp},
                      {"scan_p50_ns", scan_p50},
                      {"scan_p99_ns", scan_p99},
                      {"update_p50_ns", update_p50},
                      {"capture_p50_ms", capture_ms},
                      {"write_cpu_share", write_cpu_share},
                      {"scan_cpu_share", scan_cpu_share}};
  report.samples = {{"rounds", static_cast<std::uint64_t>(rounds)},
                    {"scan_latency", scan_samples},
                    {"update_latency", update_samples},
                    {"checkpoint", capture_ms.size()},
                    {"restore", main.restore_ms.size()}};
  report.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"write_throughput", median(write_tp), "1/s"},
      {"scan_throughput", median(scan_tp), "1/s"},
      {"scan_p50_ns", median(scan_p50), "ns"},
      {"scan_p99_ns", median(scan_p99), "ns"},
      {"update_p50_ns", median(update_p50), "ns"},
      {"capture_p50_ms", median(capture_ms), "ms"},
      {"restore_p50_ms", median(main.restore_ms), "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };

  if (config.trace) {
    const LayerCounters& l = totals.layer;
    report.per_layer = {
        {"ingest.merge_ratio", ratio(ingest.merged, ingest.writes), "ratio"},
        {"ingest.entries_per_flush", ratio(ingest.flushed_entries, ingest.flushes), "count"},
        {"ingest.flush_ns", totals.dur(Span::kFlush), "ns"},
        {"ingest.write_self_ns", totals.self(Span::kWrite), "ns"},
        {"activeset.getset_size", ratio(l.getset, l.updates), "count"},
        {"core.scan_collects", ratio(l.scan_collects, l.scans), "count"},
        {"core.scan_borrow_ratio", ratio(l.borrowed, l.scans), "ratio"},
        {"core.scan_ns", totals.self(Span::kScan), "ns"},
        {"core.update_embedded_args", ratio(l.embedded, l.updates), "count"},
        {"core.update_collects", ratio(l.update_collects, l.updates), "count"},
        {"core.update_cas_fail_ratio", ratio(l.cas_failed, l.updates), "ratio"},
        {"core.update_ns",
         totals.count(Span::kUpdate) > 0 ? totals.self(Span::kUpdate) : totals.self(Span::kFlush),
         "ns"},
        {"primitives.chain_nodes_mean", ratio(l.chain_sum, l.scans), "count"},
        {"primitives.chain_nodes_max", static_cast<double>(l.chain_max), "count"},
        {"reclaim.outstanding_max", static_cast<double>(outstanding_max), "count"},
        {"reclaim.heap_allocs_per_kop", ratio(timed_allocs * 1000, timed_ops), "count"},
        {"persist.commit_ms", totals.dur(Span::kCommit, 1e6), "ms"},
        {"persist.frame_bytes", ratio(frame_bytes, frames), "bytes"},
        {"persist.load_ms", totals.dur(Span::kLoad, 1e6), "ms"},
        {"recovery.capture_ms", totals.dur(Span::kCapture, 1e6), "ms"},
        {"recovery.restore_ms", totals.dur(Span::kRestore, 1e6), "ms"},
        {"segarray.grow_us", totals.dur(Span::kGrow, 1e3), "us"},
    };
  }
  return report;
}

}  // namespace

std::uint64_t RunReport::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : ops) n += c.attempted;
  return n;
}

std::uint64_t RunReport::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, c] : ops) n += c.failed;
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ingest_collect", "versioned_read",
                                                 "checkpoint_restore"};
  return names;
}

RunReport run_workload(const RunConfig& config) {
  fs::create_directories(config.dir);
  std::unique_ptr<Workload> wl;
  if (config.workload == "ingest_collect") {
    wl = std::make_unique<IngestCollect>(config.seed);
  } else if (config.workload == "versioned_read") {
    wl = std::make_unique<VersionedRead>(config.seed);
  } else if (config.workload == "checkpoint_restore") {
    wl = std::make_unique<CheckpointRestore>(config.seed);
  } else {
    throw std::invalid_argument("unknown workload '" + config.workload + "'");
  }
  RunReport report = run_harness(*wl, config);
  fs::remove_all(ckpt_dir(config));
  return report;
}

}  // namespace pb
