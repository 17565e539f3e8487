// aurora_perfbench: the repository's end-to-end benchmark.
//
//   aurora_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// Repeats rounds of one workload until --seconds of host time have passed
// (at least three rounds, or two untraced/traced pairs with --trace 1).
// Prints the simulated metrics, the host metrics (medians over rounds), and
// as its last line one JSON object {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 if any operation failed or any restored image
// differed from what the benchmark wrote.
//
// Simulated metrics come from the first round only: object and descriptor
// ids are process-wide counters in the library, so a second machine built in
// the same process serializes slightly different ids and its simulated
// times drift from the first's. The first round of every run starts from the
// same fresh state, so the simulated section repeats exactly across runs of
// one seed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed only
};

std::string Percentile(const Tail& tail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.6g of %zu samples", tail.percentile, tail.samples);
  return buf;
}

void PrintSection(const char* title, const std::vector<Metric>& metrics) {
  std::printf("[%s]\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.10g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
}

std::vector<double> Concat(const std::vector<RoundResult>& rounds,
                           std::vector<double> RoundResult::*field) {
  std::vector<double> all;
  for (const RoundResult& r : rounds) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

std::vector<double> Each(const std::vector<RoundResult>& rounds, double RoundResult::*field) {
  std::vector<double> all;
  for (const RoundResult& r : rounds) {
    all.push_back(r.*field);
  }
  return all;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// End-to-end metrics split by clock. `sim` comes from one round (all rounds
// agree); `host` reduces over `rounds`.
void EndToEnd(const RoundResult& sim, const std::vector<RoundResult>& rounds,
              std::vector<Metric>* sim_out, std::vector<Metric>* host_out) {
  Tail stop = TailOf(sim.stop_ms);
  Tail durable = TailOf(sim.durable_ms);
  Tail op = TailOf(sim.op_us);
  *sim_out = {
      {"stop_ms_p50", Median(sim.stop_ms), "ms", ""},
      {"stop_ms_tail", stop.value, "ms", Percentile(stop)},
      {"durable_ms_p50", Median(sim.durable_ms), "ms", ""},
      {"durable_ms_tail", durable.value, "ms", Percentile(durable)},
      {"restore_ms", sim.restore_ms, "ms", ""},
      {"restore_lazy_ms", sim.restore_lazy_ms, "ms", ""},
      {"app_ops_per_s", Ratio(static_cast<double>(sim.app_ops), sim.app_sim_s), "1/s", ""},
      {"app_op_us_p50", Median(sim.op_us), "us", ""},
      {"app_op_us_tail", op.value, "us", Percentile(op)},
      {"write_amp", Ratio(static_cast<double>(sim.device_written),
                          static_cast<double>(sim.dirty_bytes)), "ratio", ""},
      {"space_amp", Ratio(static_cast<double>(sim.used_bytes_end),
                          static_cast<double>(sim.image_bytes)), "ratio", ""},
  };
  std::vector<double> ckpt = Concat(rounds, &RoundResult::host_ckpt_ms);
  char calls[48];
  std::snprintf(calls, sizeof(calls), "median of %zu calls", ckpt.size());
  *host_out = {
      {"host_ckpt_ms_p50", Median(ckpt), "ms", calls},
      {"host_run_s", Median(Each(rounds, &RoundResult::run_s)), "s", "median over rounds"},
      {"peak_rss_mib", static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0), "MiB", ""},
      {"setup_s", Median(Each(rounds, &RoundResult::setup_s)), "s", "median over rounds"},
  };
}

// Per-layer metrics: simulated counters and spans from one round, host
// times as medians over the traced rounds.
std::vector<Metric> PerLayer(const RoundResult& sim, const std::vector<RoundResult>& traced,
                             double overhead_pct) {
  std::vector<Metric> out;
  for (const RoundResult::LayerMetric& m : sim.sim_layer) {
    out.push_back({m.name, m.value, m.unit, ""});
  }
  auto host = [&](const char* key) {
    std::vector<double> v;
    for (const RoundResult& r : traced) {
      auto it = r.host_layer_ms.find(key);
      v.push_back(it == r.host_layer_ms.end() ? 0 : it->second);
    }
    return Median(v);
  };
  out.push_back({"apps.host_ms", host("apps.host_ms"), "ms", "host"});
  out.push_back({"vm.host_write_ms", host("vm.host_ms"), "ms", "host"});
  out.push_back({"posix.host_ops_ms", host("posix.host_ms"), "ms", "host"});
  out.push_back({"core.host_ckpt_ms", host("core.host_ckpt_ms"), "ms", "host"});
  out.push_back({"core.host_restore_ms", host("core.host_restore_ms"), "ms", "host"});
  out.push_back({"objstore.host_ms_per_mib", host("objstore.host_ms_per_mib"), "ms/MiB", "host"});
  out.push_back({"obs.trace_overhead_pct", overhead_pct, "%", "traced vs untraced host_run_s"});
  return out;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu trace=%d\n  why: %s\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, workload->why);
  std::fflush(stdout);

  uint64_t attempted = 1;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  if (!GateTripsOnCorruptPage()) {
    failed++;
    failures.push_back("self-test: the gate missed a corrupted restored page");
  }

  // Rounds: untraced ones give the end-to-end metrics; with --trace 1 every
  // other round is traced, and the traced ones give the host per-layer times.
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  Trace trace;
  uint64_t begin = HostNanos();
  const size_t min_untraced = args.trace ? 2 : 3;
  const size_t min_traced = args.trace ? 2 : 0;
  while (true) {
    double elapsed = static_cast<double>(HostNanos() - begin) / 1e9;
    if (untraced.size() >= min_untraced && traced.size() >= min_traced &&
        elapsed >= args.seconds) {
      break;
    }
    bool tracing = args.trace && traced.size() < untraced.size();
    // Only the first traced round records spans; it is the one written out.
    Round round(args.seed, untraced.empty() && traced.empty(), tracing,
                tracing && traced.empty() ? &trace : nullptr);
    workload->run(round);
    RoundResult& result = round.out();
    attempted += result.attempted;
    failed += result.failed;
    for (const std::string& why : result.failures) {
      if (failures.size() < 8) {
        failures.push_back(why);
      }
    }
    if (!round.first()) {
      // Only the first round's simulated samples are reported; dropping the
      // others keeps peak RSS independent of how many rounds fit.
      result.stop_ms = {};
      result.durable_ms = {};
      result.op_us = {};
    }
    (tracing ? traced : untraced).push_back(std::move(result));
    if (failed > 0) {
      break;  // a failed round invalidates the measurement
    }
  }

  std::printf("rounds: %zu untraced, %zu traced; untraced host_run_s:", untraced.size(),
              traced.size());
  for (const RoundResult& r : untraced) {
    std::printf(" %.4f", r.run_s);
  }
  std::printf("\n");
  const RoundResult& sim = untraced.front();  // see the file comment
  std::vector<Metric> sim_metrics;
  std::vector<Metric> host_metrics;
  EndToEnd(sim, untraced, &sim_metrics, &host_metrics);
  PrintSection("sim (identical on every run of one seed; model unvalidated)", sim_metrics);
  PrintSection("host (this machine's clock)", host_metrics);
  std::printf("[both]\n  %-34s %.10g ratio  (%llu of %llu operations failed)\n",
              "ops_failed_ratio", Ratio(static_cast<double>(failed),
                                        static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (sim.anchor_ops_vs_nockpt > 0) {
    std::printf("[paper anchors (report-only, not gated)]\n  %-34s %.10g ratio  "
                "Fig. 4 @10 ms: 0.45-0.55 of no-checkpoint throughput\n",
                "apps.ops_vs_nockpt", sim.anchor_ops_vs_nockpt);
  }
  for (const std::string& why : failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }

  std::vector<Metric> reported = sim_metrics;
  reported.insert(reported.end(), host_metrics.begin(), host_metrics.end());
  if (args.trace) {
    double overhead = traced.empty()
                          ? 0
                          : 100.0 * (Ratio(Median(Each(traced, &RoundResult::run_s)),
                                           Median(Each(untraced, &RoundResult::run_s))) -
                                     1.0);
    reported = PerLayer(sim, traced, overhead);
    PrintSection("per-layer (sim counters/spans from one round; host = traced medians)",
                 reported);
    if (!args.trace_out.empty()) {
      std::string label = std::string(workload->name) + " seed " + std::to_string(args.seed);
      if (trace.WriteChromeJson(args.trace_out, label)) {
        std::printf("trace: %s (%zu events, %llu dropped)\n", args.trace_out.c_str(),
                    trace.size(), static_cast<unsigned long long>(trace.dropped()));
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      }
    }
  }
  PrintJson(failed == 0, attempted, failed, reported);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aurora_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
