// ksperf: runs one benchmark workload on the real simulated stack and
// prints its metrics. perfbench/run.py builds this binary and invokes it;
// see perfbench/README.md for the workloads and metrics.
//
//   ksperf --workload <train-soak|churn|serve> --seed <n> --seconds <s>
//          --trace <0|1> [--trace-out <file>]
//
// --trace 0 repeats the untraced workload until --seconds have passed and
// reports the end-to-end metrics (host timings in CPU time scaled to the
// nominal host speed by a reference batch, as described below). --trace 1
// alternates untraced and traced repetitions, reports the per-layer metrics
// and the tracing overhead, and checks that tracing left the simulated
// fingerprint unchanged. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Reading;
using perfbench::RepResult;
using perfbench::Tracer;
using perfbench::WorkloadKind;

struct Args {
  WorkloadKind workload = WorkloadKind::kTrainSoak;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!perfbench::ParseWorkload(value, &a->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintReading(const Reading& r) {
  std::printf("  %-36s %14.6g %-9s %-4s n=%-8" PRIu64 " %s\n",
              r.name.c_str(), r.value, r.unit.c_str(), r.clock.c_str(),
              r.samples, r.note.c_str());
}

/// Host time per span name from one traced repetition: total, and self
/// time (duration minus the child spans it contains).
void PrintSpanBreakdown(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (!s.simulated && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].simulated) continue;
    Agg& a = by_name[spans[i].name];
    const std::int64_t d = spans[i].end_ns - spans[i].start_ns;
    ++a.count;
    a.total += d;
    a.self += d - child_ns[i];
  }
  std::printf("host time by span (last traced repetition):\n");
  std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const auto& [name, a] : by_name) {
    std::printf("  %-28s %8" PRIu64 " %12.6f %12.6f\n", name.c_str(), a.count,
                a.total / 1e9, a.self / 1e9);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ksperf --workload <train-soak|churn|serve> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  ks::SetLogLevel(ks::LogLevel::kError);
  const char* wname = perfbench::WorkloadName(args.workload);
  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              wname, args.seed, args.seconds, args.trace ? 1 : 0);

  // Host timings are CPU time of this thread scaled by the reference
  // batch (hostclock.hpp), so they read as CPU seconds on the nominal host
  // whatever the shared host's speed is at the moment.
  //
  // Set-up trials: one discarded warm-up, then before every repetition
  // three 0.1 s windows of repeated set-ups, with two reference batches
  // before and two after each window. setup_s is the median over the
  // windows of the fastest set-up in each, scaled by that window's mean
  // reference batch. The fastest of a window filters short bursts of
  // interference; spreading the windows over the run keeps one long burst
  // from deciding the median.
  perfbench::RefKernel ref;
  std::vector<double> setup_window_s;
  std::size_t setup_trials = 0;
  (void)perfbench::SetupOnly(args.workload, args.seed);
  const auto ref_pair = [&ref] { return ref.Run() + ref.Run(); };

  const auto start = std::chrono::steady_clock::now();
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::unique_ptr<Tracer> last_tracer;
  for (int i = 0;; ++i) {
    for (int w = 0; w < 3; ++w) {
      double ref_s = ref_pair();
      const auto window_start = std::chrono::steady_clock::now();
      double fastest = perfbench::SetupOnly(args.workload, args.seed);
      ++setup_trials;
      while (Elapsed(window_start) < 0.1) {
        fastest = std::min(fastest,
                           perfbench::SetupOnly(args.workload, args.seed));
        ++setup_trials;
      }
      ref_s = (ref_s + ref_pair()) / 4.0;
      setup_window_s.push_back(fastest * perfbench::RefKernel::kNominalS /
                               ref_s);
    }
    const bool trace_this = args.trace && i % 2 == 1;
    if (trace_this) {
      auto tracer = std::make_unique<Tracer>();
      traced.push_back(perfbench::RunRep(args.workload, args.seed,
                                         tracer.get(), &ref));
      last_tracer = std::move(tracer);
    } else {
      plain.push_back(
          perfbench::RunRep(args.workload, args.seed, nullptr, &ref));
    }
    const RepResult& r = trace_this ? traced.back() : plain.back();
    std::printf("rep %d%s: setup %.6f s  wall %.6f s  cpu %.6f s  "
                "ref batch %.1f us  run_norm %.6f s  sim_fingerprint "
                "%016" PRIx64 "\n",
                i + 1, trace_this ? " (traced)" : "", r.setup_s, r.wall_s,
                r.cpu_s, r.ref_s * 1e6, r.run_norm_s, r.fingerprint);
    std::fflush(stdout);
    if (Elapsed(start) >= args.seconds &&
        (!args.trace || !traced.empty())) {
      break;
    }
  }

  // ---- Correctness --------------------------------------------------------
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const RepResult& first = plain.front();
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& f : r.check_failures) failures.push_back(f);
      if (r.fingerprint != first.fingerprint) {
        failures.push_back(reps == &traced
                               ? "traced sim_fingerprint differs from "
                                 "untraced"
                               : "sim_fingerprint differs between "
                                 "repetitions of one seed");
      }
      if (r.e2e != first.e2e) {
        failures.push_back("simulated metrics differ between repetitions");
      }
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()),
                 failures.end());

  // run_norm_s: the median repetition of the run loop's CPU time, each
  // scaled by the reference batches run between its slices.
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> norms;
  for (const RepResult& r : plain) {
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    norms.push_back(r.run_norm_s);
  }

  std::printf("\nsimulated metrics (sim clock; identical in every "
              "repetition of a seed):\n");
  for (const Reading& r : first.report) PrintReading(r);
  std::printf("sim_fingerprint: %016" PRIx64 "\n", first.fingerprint);
  std::printf("inputs_fingerprint: %016" PRIx64 "\n",
              first.inputs_fingerprint);

  std::string metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(value) +
               ", \"unit\": \"" + unit + "\"}";
  };

  if (!args.trace) {
    std::printf("\nend-to-end metrics (setup_s and run_norm_s: host CPU "
                "seconds scaled to the nominal host speed; setup_s: median "
                "over %zu windows of the fastest set-up, %zu set-ups in all; "
                "run_norm_s: median of %zu repetitions):\n",
                setup_window_s.size(), setup_trials, plain.size());
    const std::vector<Reading> e2e = {
        {"setup_s", "s", Median(setup_window_s), setup_window_s.size(),
         "host", ""},
        {"run_norm_s", "s", Median(norms), plain.size(), "host", ""},
        {"peak_rss_mb", "MB", PeakRssMb(), 1, "host", ""},
        {"ok_frac", "fraction", first.e2e.at("ok_frac"), 0, "sim", ""},
        {"gpu_util", "fraction", first.e2e.at("gpu_util"), 0, "sim", ""},
        {"done_per_min", "1/min", first.e2e.at("done_per_min"), 0, "sim", ""},
        {"lat_p50_s", "s", first.e2e.at("lat_p50_s"), 0, "sim", ""},
        {"lat_tail_s", "s", first.e2e.at("lat_tail_s"), 0, "sim", ""},
    };
    for (const Reading& r : e2e) {
      PrintReading(r);
      add(r.name, r.value, r.unit);
    }
    std::printf("unscaled host timings of the run loop, not bounded "
                "(they move with the shared host's speed):\n");
    PrintReading({"wall_s", "s", Median(walls), plain.size(), "host",
                  "median repetition, wall clock"});
    PrintReading({"cpu_s", "s", Median(cpus), plain.size(), "host",
                  "median repetition, CPU time"});
  } else {
    std::vector<double> traced_walls;
    for (const RepResult& r : traced) traced_walls.push_back(r.wall_s);
    const double overhead = Median(traced_walls) / Median(walls) - 1.0;
    std::printf("\ntracing overhead: median traced repetition %.6f s vs "
                "untraced %.6f s (%+.2f%%, %zu traced / %zu untraced "
                "repetitions)\n",
                Median(traced_walls), Median(walls), overhead * 100.0,
                traced.size(), plain.size());
    std::printf("\nper-layer metrics (host readings: median over traced "
                "repetitions):\n");
    for (std::size_t m = 0; m < traced.front().layers.size(); ++m) {
      Reading r = traced.front().layers[m];
      std::vector<double> values;
      for (const RepResult& t : traced) values.push_back(t.layers[m].value);
      r.value = Median(values);
      PrintReading(r);
      add(r.name, r.value, r.unit);
    }
    PrintSpanBreakdown(*last_tracer);
    if (!args.trace_out.empty()) {
      if (last_tracer->WriteJson(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        failures.push_back("cannot write spans to " + args.trace_out);
      }
    }
  }

  if (failures.empty()) {
    std::printf("checks: all passed\n");
  } else {
    for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              failures.empty() ? "true" : "false", attempted, failed,
              metrics.c_str());
  return failures.empty() ? 0 : 1;
}
