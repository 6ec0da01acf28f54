// Sensor fusion over a hot-plugging sensor array -- the dynamic-runtime
// AND value-plane showcase.
//
//   build/examples/sensor_fusion [--sensors0=N] [--sensors=N]
//                                [--readings=N] [--queries=N]
//                                [--readers=N] [--impl=<registry spec>]
//                                [--publish=batch|singleton]
//                                [--trace=<path.jsonl>]
//
// A sensor array publishes readings into a partial snapshot object.  The
// array GROWS while the system runs: new sensors hot-plug in blocks via
// PartialSnapshot::add_components, with updates and fusion queries never
// pausing.  Fusion reader threads likewise come and go -- each reader
// generation registers with exec::ThreadHandle, runs its queries, and
// exits, handing its pid to the next generation.
//
// Readings are STRUCT payloads on the blob value plane (the default impl
// is fig3_cas:value=blob): each sensor publishes a SensorReading
// {id, epoch, reading} through update_blob, and fusion queries read the
// structs back atomically with scan_blobs -- no field packing into a
// word, the indirect-payload feature end to end.  Pass a u64-plane spec
// (e.g. --impl=fig3_cas) and the example falls back to the historical
// redundant word encoding (epoch * 1000 + id) over the same oracle.
//
// Consistency is made observable either way: all sensors advance epochs
// together (barrier), so a consistent scan sees epochs that differ by at
// most 1 across any subset of *published* sensors; a larger spread means
// the fused estimate mixed incompatible frames, and an id mismatch means
// a payload landed on the wrong component.  A sensor that hot-plugged but
// has not yet published is skipped (blob plane: its payload is still the
// 8-byte initial encoding, not a SensorReading; u64 plane: it reads 0).
//
// Reader-flood mode: --readers=N floods each reader generation with N
// concurrent fusion threads (up to 128).  The versioned read plane is the
// configuration built for exactly that shape -- e.g.
//   sensor_fusion --readers=64 --impl=fig3_cas:value=versioned
// runs the flood over camera-epoch chain walks (scans never double-
// collect or retry, whatever N is) with the SAME epoch-spread oracle:
// the versioned plane stores words, so the redundant u64 encoding and
// its consistency check apply unchanged.
//
// Publish modes: the default --publish=batch presses update_batch into
// service as the multi-sensor publish -- ONE batched call covers every
// installed sensor per epoch, so the whole frame shares one announcement
// and one helping round.  The oracle tightens with the implementation's
// batch_atomicity() tier: on an atomic tier (versioned planes, lock,
// seqlock) a fused subset must sit at exactly ONE epoch (spread 0); on
// the amortized tiers entries land in argument order, so a scan may
// straddle two adjacent frames (spread <= 1), same envelope as the
// barrier gives the singleton mode.  --publish=singleton keeps the
// historical per-component path for A/B comparison.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <optional>

#include "common/cli.h"
#include "common/rng.h"
#include "exec/thread_registry.h"
#include "primitives/value_plane.h"
#include "registry/registry.h"
#include "runtime/trace.h"

namespace {

// The struct telemetry record each sensor publishes on the blob plane.
struct SensorReading {
  std::uint32_t id;
  std::uint64_t epoch;
  double reading;
};

}  // namespace

int main(int argc, char** argv) {
  psnap::CliFlags flags;
  flags.define("sensors0", "16", "sensors installed at start");
  flags.define("sensors", "48", "sensors after all hot-plugs");
  flags.define("readings", "2000", "epochs the array publishes");
  flags.define("queries", "20000", "fusion queries (across reader lives)");
  flags.define("readers", "2",
               "concurrent fusion readers per generation (flood mode; "
               "pair large values with --impl=fig3_cas:value=versioned)");
  flags.define("impl", "fig3_cas:value=blob",
               "registry spec of the snapshot implementation:\n" +
                   psnap::registry::snapshot_catalogue());
  flags.define("publish", "batch",
               "multi-sensor publish path: 'batch' (one update_batch per "
               "epoch frame) or 'singleton' (one update per sensor)");
  flags.define("trace", "",
               "record every snapshot operation into a JSONL trace "
               "artifact at this path (audit with tools/trace_audit)");
  if (!flags.parse(argc, argv)) return 1;

  const std::string publish = flags.get_string("publish");
  if (publish != "batch" && publish != "singleton") {
    std::fprintf(stderr, "--publish expects 'batch' or 'singleton'\n");
    return 1;
  }
  const bool batch_publish = publish == "batch";

  const auto sensors = static_cast<std::uint32_t>(flags.get_uint("sensors"));
  // A --sensors below the default start size just means no hot-plugs; at
  // least one sensor must exist at construction.
  const auto sensors0 = std::max(
      1u, std::min(sensors,
                   static_cast<std::uint32_t>(flags.get_uint("sensors0"))));
  const auto readings = flags.get_uint("readings");
  const auto queries = flags.get_uint("queries");
  const auto readers = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                     128, flags.get_uint("readers"))));
  if (sensors == 0 || sensors >= 1000) {
    // The u64 fallback's redundant encoding needs id < 1000; the blob
    // plane has no such limit, but one envelope keeps the example simple.
    std::fprintf(stderr, "need 0 < sensors < 1000\n");
    return 1;
  }

  std::unique_ptr<psnap::core::PartialSnapshot> array_ptr;
  psnap::registry::IngestKnobs knobs;
  try {
    // Capacity: one pid per concurrent fusion reader plus the sensor
    // threads (reader generations recycle pids, so the flood never needs
    // more than one generation's worth at a time).  The knob sink makes
    // the shards=/affinity= options usable from --impl; affinity=segment
    // draws pids from shard blocks spanning the full registry capacity,
    // so the array is sized to it in that mode.
    array_ptr = psnap::registry::make_snapshot(
        flags.get_string("impl"), sensors0, /*max_threads=*/readers + 6,
        &knobs);
    if (knobs.affinity == "segment") {
      array_ptr = psnap::registry::make_snapshot(
          flags.get_string("impl"), sensors0,
          psnap::exec::ThreadRegistry::kMaxCapacity, &knobs);
    }
    if (knobs.batching_requested()) {
      std::fprintf(stderr,
                   "sensor_fusion publishes frames itself; use "
                   "--publish=batch instead of batch=/coalesce_window= "
                   "ingest knobs\n");
      return 1;
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  // --trace wraps the array in the tracing decorator; the main thread
  // also takes a pid so its hot-plug calls own their own trace ring (the
  // per-pid rings are single-writer).
  const std::string trace_path = flags.get_string("trace");
  const std::uint32_t sensors0_m = array_ptr->num_components();
  std::optional<psnap::exec::ThreadHandle> main_pid;
  std::optional<psnap::runtime::TraceSink> trace_sink;
  std::optional<psnap::runtime::TracingSnapshot> traced;
  if (!trace_path.empty()) {
    main_pid.emplace();
    trace_sink.emplace(psnap::exec::ThreadRegistry::kMaxCapacity, 2048);
    traced.emplace(*array_ptr, *trace_sink);
  }
  auto& array = traced
                    ? static_cast<psnap::core::PartialSnapshot&>(*traced)
                    : *array_ptr;
  const bool blob = array.value_plane() == "blob";
  const psnap::core::BatchAtomicity tier = array.batch_atomicity();
  if (batch_publish && tier == psnap::core::BatchAtomicity::kUnsupported) {
    std::fprintf(stderr,
                 "--publish=batch needs a batch-capable implementation "
                 "(catalogue entries marked (batch)); retry with "
                 "--publish=singleton or another --impl\n");
    return 1;
  }
  // The oracle's envelope: an atomic batch publish makes every fused
  // subset single-epoch; amortized batches and the barrier-coupled
  // singleton threads may straddle two adjacent frames.
  const std::uint64_t allowed_spread =
      batch_publish && tier == psnap::core::BatchAtomicity::kAtomic ? 0 : 1;
  // affinity=segment registers every worker shard-affine; with fewer than
  // one segment of sensors the only shard is 0, but the mode still
  // exercises the affine registration path end to end.
  const std::uint32_t affinity_shards =
      knobs.affinity == "segment"
          ? std::max(1u, array_ptr->reclaim_shards())
          : 1;
  auto registered_pid = [affinity_shards](std::uint32_t shard) {
    if (affinity_shards > 1) {
      return psnap::exec::ThreadHandle(
          psnap::exec::ThreadRegistry::process_wide(),
          shard % affinity_shards, affinity_shards);
    }
    return psnap::exec::ThreadHandle();
  };
  std::printf(
      "value plane: %s (%s payloads), publish: %s (%s), reclaim: ebr "
      "(%u shard%s, affinity=%s)\n",
      std::string(array.value_plane()).c_str(),
      blob ? "struct SensorReading" : "packed u64", publish.c_str(),
      tier == psnap::core::BatchAtomicity::kAtomic    ? "atomic"
      : tier == psnap::core::BatchAtomicity::kAmortized
          ? "amortized"
          : "per-component",
      static_cast<unsigned>(array_ptr->reclaim_shards()),
      array_ptr->reclaim_shards() == 1 ? "" : "s", knobs.affinity.c_str());

  // Sensor threads: groups of sensors share a thread (the protocol cost is
  // per process, not per component).  All advance epoch in lock-step via a
  // shared epoch counter; each publishes its SensorReading struct (blob
  // plane) or epoch*1000+id (u64 plane).  Thread 0 doubles as the
  // hot-plug controller: every block of fusion progress it brings new
  // sensors online -- concurrently with the other thread's updates and
  // with all fusion queries.
  constexpr std::uint32_t kSensorThreads = 2;
  const std::uint32_t kPlugBlock =
      std::max(1u, (sensors - sensors0) / 8);
  std::atomic<std::uint64_t> epoch{1};
  std::atomic<std::uint32_t> at_barrier{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hot_plugs{0};
  std::atomic<std::uint64_t> queries_done{0};

  std::vector<std::thread> sensor_threads;
  if (batch_publish) {
    // One publisher owns the whole frame: every installed sensor's reading
    // for epoch e goes out in a single update_batch(_blob) -- one
    // announcement and one helping round per epoch, and (on the atomic
    // tiers) no scan can straddle two frames.  No barrier needed: the
    // batch IS the epoch boundary.
    sensor_threads.emplace_back([&] {
      auto pid = registered_pid(0);
      std::vector<SensorReading> frame;
      std::vector<psnap::core::BlobBatchEntry> blob_entries;
      std::vector<psnap::core::BatchEntry> entries;
      for (std::uint64_t e = 1; e <= readings && !stop; ++e) {
        // A sensor plugged mid-frame joins the next frame's batch.
        const std::uint32_t m = array.num_components();
        if (blob) {
          frame.clear();
          for (std::uint32_t s = 0; s < m; ++s) {
            frame.push_back({s, e, 20.0 + 0.01 * s + 0.001 * (e % 97)});
          }
          blob_entries.clear();
          for (std::uint32_t s = 0; s < m; ++s) {
            blob_entries.push_back(
                {s, psnap::value::as_bytes_of(frame[s])});
          }
          array.update_batch_blob(blob_entries);
        } else {
          entries.clear();
          for (std::uint32_t s = 0; s < m; ++s) {
            entries.push_back({s, e * 1000 + s});
          }
          array.update_batch(
              std::span<const psnap::core::BatchEntry>(entries));
        }
        epoch.store(e + 1, std::memory_order_release);
      }
    });
  } else {
    for (std::uint32_t t = 0; t < kSensorThreads; ++t) {
      sensor_threads.emplace_back([&, t] {
        auto pid = registered_pid(t);
        while (!stop) {
          std::uint64_t e = epoch.load(std::memory_order_acquire);
          if (e > readings) break;
          // Cover the sensors installed as of this epoch; a sensor
          // plugged mid-epoch starts publishing next epoch (spread
          // stays <= 1).
          const std::uint32_t m = array.num_components();
          for (std::uint32_t s = t; s < m; s += kSensorThreads) {
            if (blob) {
              SensorReading r{s, e, 20.0 + 0.01 * s + 0.001 * (e % 97)};
              array.update_blob(s, psnap::value::as_bytes_of(r));
            } else {
              array.update(s, e * 1000 + s);
            }
          }
          // Barrier: last thread in advances the epoch.
          if (at_barrier.fetch_add(1) + 1 == kSensorThreads) {
            at_barrier.store(0);
            epoch.store(e + 1, std::memory_order_release);
          } else {
            while (epoch.load(std::memory_order_acquire) == e && !stop) {
              std::this_thread::yield();
            }
          }
        }
      });
    }
  }

  // Fusion readers: short-lived generations.  Each life registers a fresh
  // ThreadHandle, fuses kQueriesPerLife random overlapping subsets of the
  // *currently installed* sensors, checks id + epoch spread, and exits.
  // --readers floods each generation with that many concurrent lives.
  constexpr std::uint64_t kQueriesPerLife = 500;
  std::atomic<std::uint64_t> bad_fusions{0};
  std::atomic<std::uint64_t> max_spread_seen{0};
  std::atomic<std::uint64_t> reader_lives{0};
  auto record_spread = [&max_spread_seen](std::uint64_t spread) {
    std::uint64_t cur = max_spread_seen.load(std::memory_order_relaxed);
    while (spread > cur &&
           !max_spread_seen.compare_exchange_weak(cur, spread)) {
    }
  };

  auto reader_life = [&](std::uint64_t seed, bool contiguous) {
    auto pid = registered_pid(  // this life's registration
        static_cast<std::uint32_t>(seed));
    reader_lives.fetch_add(1);
    psnap::Xoshiro256 rng(seed);
    std::vector<std::uint32_t> subset;
    std::vector<std::uint64_t> values;
    std::vector<psnap::value::Blob> blobs;
    for (std::uint64_t q = 0; q < kQueriesPerLife; ++q) {
      if (queries_done.fetch_add(1) >= queries) return;
      const std::uint32_t m = array.num_components();
      const std::uint32_t r = std::min<std::uint32_t>(5, m);
      subset.clear();
      if (contiguous) {
        std::uint32_t start =
            static_cast<std::uint32_t>(rng.next_below(m - r + 1));
        for (std::uint32_t k = 0; k < r; ++k) subset.push_back(start + k);
      } else {
        while (subset.size() < r) {
          std::uint32_t s = static_cast<std::uint32_t>(rng.next_below(m));
          if (std::find(subset.begin(), subset.end(), s) == subset.end()) {
            subset.push_back(s);
          }
        }
      }
      std::uint64_t lo = ~0ull, hi = 0;
      if (blob) {
        array.scan_blobs(subset, blobs);
        for (std::size_t j = 0; j < subset.size(); ++j) {
          SensorReading r_back{};
          // Hot-plugged but not yet published: still the 8-byte initial
          // payload, not a SensorReading -- skip it.
          if (!psnap::value::from_bytes(blobs[j], r_back)) continue;
          if (r_back.id != subset[j]) {  // payload on the wrong component
            bad_fusions.fetch_add(1);
            continue;
          }
          lo = std::min(lo, r_back.epoch);
          hi = std::max(hi, r_back.epoch);
        }
      } else {
        array.scan(subset, values);
        for (std::size_t j = 0; j < subset.size(); ++j) {
          if (values[j] == 0) continue;  // hot-plugged, not yet published
          // Redundant encoding must match the component.
          if (values[j] % 1000 != subset[j]) {
            bad_fusions.fetch_add(1);
            continue;
          }
          std::uint64_t e = values[j] / 1000;
          lo = std::min(lo, e);
          hi = std::max(hi, e);
        }
      }
      // Singleton/amortized publishes can straddle at most two adjacent
      // epochs; an atomic batch publish pins the whole subset to one.
      std::uint64_t spread = (hi > lo) ? hi - lo : 0;
      if (spread > allowed_spread) bad_fusions.fetch_add(1);
      record_spread(spread);
    }
  };

  std::uint64_t generation = 0;
  while (queries_done.load() < queries) {
    std::vector<std::thread> fusers;
    for (std::uint32_t f = 0; f < readers; ++f) {
      fusers.emplace_back(reader_life, generation * readers + f + 1,
                          f == 0);
    }
    for (auto& t : fusers) t.join();
    ++generation;
    // Hot-plug schedule keyed to fusion progress (one block per tenth of
    // the query budget), concurrent with the sensor threads' updates --
    // epoch counts advance at wildly different rates on a loaded
    // single-core host vs an idle many-core one, query progress does not.
    while (array.num_components() + kPlugBlock <= sensors &&
           queries_done.load() * 10 >= (hot_plugs.load() + 1) * queries) {
      array.add_components(kPlugBlock);
      hot_plugs.fetch_add(1);
    }
  }
  stop = true;
  for (auto& t : sensor_threads) t.join();

  if (traced) {
    psnap::runtime::TraceSink::Drained drained = trace_sink->drain();
    psnap::runtime::TraceArtifact artifact;
    artifact.impl = flags.get_string("impl");
    artifact.m0 = sensors0_m;
    artifact.final_m = array.num_components();
    artifact.emitted = drained.emitted;
    artifact.dropped = drained.dropped;
    artifact.events = std::move(drained.events);
    std::ofstream file(trace_path);
    if (!file) {
      std::fprintf(stderr, "failed to open %s\n", trace_path.c_str());
      return 1;
    }
    psnap::runtime::dump_jsonl(artifact, file);
    std::printf("trace: %zu events -> %s\n", artifact.events.size(),
                trace_path.c_str());
  }

  std::printf(
      "fusion queries: %llu over %llu reader lives, sensors %u -> %u "
      "(%llu hot-plugs), inconsistent fusions: %llu, max epoch spread: "
      "%llu\n",
      static_cast<unsigned long long>(queries_done.load()),
      static_cast<unsigned long long>(reader_lives.load()),
      static_cast<unsigned>(sensors0),
      static_cast<unsigned>(array.num_components()),
      static_cast<unsigned long long>(hot_plugs.load()),
      static_cast<unsigned long long>(bad_fusions.load()),
      static_cast<unsigned long long>(max_spread_seen.load()));
  return bad_fusions.load() == 0 ? 0 : 1;
}
