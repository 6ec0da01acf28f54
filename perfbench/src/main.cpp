// perfbench: one workload per process, results as JSON lines.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch dir> [--git-sha <sha>]
//   perfbench --selftest --dir <scratch dir>
//
// Prints a human-readable table, then one full record (context, per-kind
// attempted/failed counts, sample counts, every metric) and, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer ones.
#include <malloc.h>
#include <unistd.h>

#include <climits>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "selftest.h"
#include "workloads.h"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_FLAGS
#define PB_FLAGS "unknown"
#endif
#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string metrics_json(const std::vector<pb::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <dir> [--git-sha <sha>]\n       perfbench --selftest --dir <dir>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig config;
  std::string git_sha = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        config.workload = v;
      } else if (a == "--seed") {
        config.seed = std::stoull(v);
      } else if (a == "--seconds") {
        config.seconds = std::stod(v);
      } else if (a == "--trace") {
        config.trace = std::stoi(v) != 0;
      } else if (a == "--dir") {
        config.dir = v;
      } else if (a == "--git-sha") {
        git_sha = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (config.dir.empty()) usage("--dir is required");
  if (selftest) return pb::run_selftest(config.dir);
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  // Freed memory stays in the heap for reuse: an allocation then costs the
  // same in every round instead of depending on when the allocator last
  // returned pages to the system.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  pb::RunReport r;
  try {
    r = pb::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("workload %s  seed %llu  %.3g s  trace %d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  for (const auto& [kind, c] : r.ops) {
    std::printf("  ops %-12s attempted %12llu  failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  for (const auto* list : {&r.end_to_end, &r.per_layer}) {
    for (const pb::Metric& m : *list) {
      std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& e : r.errors) std::printf("  FAILED %s\n", e.c_str());

  std::string ops = "{", samples = "{", errors = "[", rounds = "{";
  for (const auto& [name, values] : r.per_round) {
    rounds += (rounds.size() > 1 ? ", " : "") + quote(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) rounds += (i > 0 ? ", " : "") + number(values[i]);
    rounds += "]";
  }
  for (const auto& [kind, c] : r.ops) {
    ops += (ops.size() > 1 ? ", " : "") + quote(kind) + ": {\"attempted\": " +
           std::to_string(c.attempted) + ", \"failed\": " + std::to_string(c.failed) + "}";
  }
  for (const auto& [kind, n] : r.samples) {
    samples += (samples.size() > 1 ? ", " : "") + quote(kind) + ": " + std::to_string(n);
  }
  for (const std::string& e : r.errors) errors += (errors.size() > 1 ? ", " : "") + quote(e);
  const std::string context =
      "{\"host\": " + quote(hostname()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + quote(PB_COMPILER) + ", \"flags\": " + quote(PB_FLAGS) +
      ", \"build_type\": " + quote(PB_BUILD_TYPE) + ", \"git_sha\": " + quote(git_sha) + "}";
  const bool correct = r.failed() == 0;
  std::printf(
      "{\"schema\": \"psnap-perfbench/1\", \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"context\": %s, \"correct\": %s, "
      "\"ops\": %s}, \"samples\": %s}, \"harness_rss_mb\": %s, \"errors\": %s], "
      "\"end_to_end\": %s, "
      "\"per_layer\": %s, \"per_round\": %s}}\n",
      quote(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      number(config.seconds).c_str(), config.trace ? 1 : 0, context.c_str(),
      correct ? "true" : "false", ops.c_str(), samples.c_str(),
      number(r.harness_rss_mib).c_str(), errors.c_str(),
      metrics_json(r.end_to_end).c_str(), metrics_json(r.per_layer).c_str(), rounds.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()),
              metrics_json(config.trace ? r.per_layer : r.end_to_end).c_str());
  return 0;
}
