// Experiment RDS -- reader scaling on the versioned read plane:
//
//   Scan tail latency as the READER population grows, at a fixed write
//   load.  The versioned plane's headline claim (ISSUE 6, PR 6): a
//   versioned scan is one camera fetch-add plus r bounded chain walks --
//   no double collect, no helping round, no seqlock retries -- so its
//   p99 stays flat as readers multiply, while collect-based scans degrade
//   (helping tables grow with the population; seqlock readers retry
//   against every writer-section entry).
//
// Table (one per implementation):
//   RDS: scan p50/p99 vs readers in {1, 4, 16, 64, 128}, 2 writers
//        updating uniformly at full speed, m=256, r=8.
//
// Two clocks per scan, both reported:
//   * wall ns (steady_clock): what a client observes; includes scheduler
//     preemption, so on a host with fewer cores than threads the 64/128-
//     reader cells are dominated by oversubscription for EVERY
//     implementation.
//   * cpu ns (CLOCK_THREAD_CPUTIME_ID): work the scan itself burned;
//     robust to oversubscription, so it is the column the flat-tail
//     acceptance claim is checked against.
//
// Total threads stay within the 192-slot pid capacity (128 readers + 2
// writers + main).
#include <ctime>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "registry/registry.h"

using namespace psnap;

namespace {

constexpr std::uint32_t kM = 256;
constexpr std::uint32_t kR = 8;
constexpr std::uint32_t kWriters = 2;
const std::vector<std::uint32_t> kReaderSweep{1, 4, 16, 64, 128};

std::uint64_t thread_cpu_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Cell {
  Percentiles wall_ns;
  Percentiles cpu_ns;
  double scans_per_second = 0;
};

Cell measure(const std::string& spec, std::uint32_t readers,
             double seconds) {
  auto snap = registry::make_snapshot(spec, kM, readers + kWriters);
  const std::uint32_t workers = readers + kWriters;
  std::atomic<std::uint64_t> total_scans{0};
  std::atomic<std::uint32_t> readers_running{readers};
  std::vector<bench::LatencySampler> wall(readers);
  std::vector<bench::LatencySampler> cpu(readers);

  bench::run_workers(workers, [&](std::uint32_t w, bench::WorkerStats&) {
    Xoshiro256 rng(w + 1);
    if (w < kWriters) {
      // Writers run until the last reader finishes, so every reader cell
      // sees the same write pressure regardless of scheduling skew.
      std::uint64_t v = 0;
      while (readers_running.load(std::memory_order_acquire) != 0) {
        snap->update(static_cast<std::uint32_t>(rng.next() % kM), ++v);
      }
      return;
    }
    std::vector<std::uint32_t> idx(kR);
    std::vector<std::uint64_t> out;
    std::uint64_t scans = 0;
    bench::StopAfter stop(seconds);
    while (!stop.expired()) {
      for (int burst = 0; burst < 16; ++burst) {
        for (std::uint32_t k = 0; k < kR; ++k) {
          idx[k] = static_cast<std::uint32_t>(rng.next() % kM);
        }
        const std::uint64_t c0 = thread_cpu_nanos();
        Timer timer;
        snap->scan(idx, out);
        wall[w - kWriters].add(double(timer.elapsed_nanos()));
        cpu[w - kWriters].add(double(thread_cpu_nanos() - c0));
        ++scans;
      }
    }
    total_scans.fetch_add(scans);
    readers_running.fetch_sub(1, std::memory_order_release);
  });

  bench::LatencySampler merged_wall, merged_cpu;
  for (const auto& s : wall) merged_wall.merge(s);
  for (const auto& s : cpu) merged_cpu.merge(s);
  return Cell{merged_wall.summarize(), merged_cpu.summarize(),
              double(total_scans.load()) / seconds};
}

void run_sweep(const std::vector<std::string>& specs, double seconds,
               bench::JsonReport& report) {
  for (const std::string& spec : specs) {
    TablePrinter table({"readers", "scan p50 cpu", "scan p99 cpu",
                        "scan p50 wall", "scan p99 wall", "scans/s"});
    for (std::uint32_t readers : kReaderSweep) {
      Cell cell = measure(spec, readers, seconds);
      table.add_row({std::to_string(readers),
                     TablePrinter::fmt(cell.cpu_ns.p50, 0) + "ns",
                     TablePrinter::fmt(cell.cpu_ns.p99, 0) + "ns",
                     TablePrinter::fmt(cell.wall_ns.p50, 0) + "ns",
                     TablePrinter::fmt(cell.wall_ns.p99, 0) + "ns",
                     TablePrinter::fmt(cell.scans_per_second / 1e6, 3) +
                         "M"});
      const std::string name =
          "RDS/" + spec + "/readers=" + std::to_string(readers);
      report.add_percentiles(name + "/scan_cpu_ns", cell.cpu_ns);
      report.add_percentiles(name + "/scan_wall_ns", cell.wall_ns);
      report.add(name + "/scans_per_s", cell.scans_per_second);
    }
    table.print(std::cout,
                "RDS: " + spec + " -- scan latency vs readers (m=" +
                    std::to_string(kM) + ", r=" + std::to_string(kR) +
                    ", " + std::to_string(kWriters) +
                    " full-speed writers)");
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("seconds", "0.3", "measured duration per cell");
  flags.define("impls",
               "fig3_cas_fast:value=versioned,fig3_cas_fast,seqlock",
               "comma-separated registry specs to sweep ('help' prints "
               "the catalogue):\n" +
                   registry::snapshot_catalogue());
  flags.define("json", "",
               "also write machine-readable results to this JSON file "
               "(perf-trajectory artifact)");
  if (!flags.parse(argc, argv)) return 1;

  if (flags.get_string("impls") == "help") {
    std::printf("registered snapshot implementations:\n%s",
                registry::snapshot_catalogue().c_str());
    return 0;
  }

  std::printf(
      "Experiment RDS: reader scaling (versioned read plane, ISSUE 6)\n"
      "readers sweep %u..%u at %u full-speed writers; cpu-ns columns are "
      "the oversubscription-robust ones\n\n",
      kReaderSweep.front(), kReaderSweep.back(), kWriters);

  bench::JsonReport report;
  try {
    run_sweep(bench::split_impl_specs(flags.get_string("impls")),
              flags.get_double("seconds"), report);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::string json_path = flags.get_string("json");
  if (!json_path.empty() && !report.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
