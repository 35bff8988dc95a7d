#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hostclock.hpp"
#include "tracer.hpp"

namespace perfbench {

enum class WorkloadKind { kTrainSoak, kChurn, kServe };

bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

/// One reported number. `clock` says which clock a timing uses: "sim"
/// (what the modelled cluster's users see) or "host" (what the simulator
/// costs). `samples` is the sample count behind a timing or ratio; `note`
/// names the percentile actually reported where the ten-beyond rule chose
/// it.
struct Reading {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;
  std::string clock = "sim";
  std::string note;
};

/// Everything one repetition of a workload produces.
struct RepResult {
  /// Host wall seconds of construction + Start of every component.
  double setup_s = 0.0;
  /// Host wall seconds of the run loop after setup (traced probes
  /// included, reference batches excluded).
  double wall_s = 0.0;
  /// Host CPU seconds of the run loop's simulated slices, each with the
  /// scrape after it (traced probes and reference batches excluded).
  double cpu_s = 0.0;
  /// Mean CPU seconds of the reference batches run after each slice.
  double ref_s = 0.0;
  /// cpu_s scaled to the nominal host speed: cpu_s * kNominalS / ref_s.
  double run_norm_s = 0.0;
  /// Hash of every simulated output (lifecycle timestamps, placements,
  /// request accounting, latency digests, NVML samples, device busy time,
  /// token grants, chaos timelines). Host times and engine event counts
  /// are excluded: a simulator-only speed-up must leave it unchanged.
  std::uint64_t fingerprint = 0;
  /// Hash of the inputs generated from the seed.
  std::uint64_t inputs_fingerprint = 0;
  /// Public entry-point calls made (submissions, starts, arms, scrapes)
  /// and how many of them returned an error status.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Simulated end-to-end slots shared by every workload (see README.md):
  /// ok_frac, gpu_util, done_per_min, lat_p50_s, lat_tail_s.
  std::map<std::string, double> e2e;
  /// The per-workload simulated metrics under their own names
  /// (jobs_per_min, place_p50_s, serve_p99_ms, ...), with sample counts.
  std::vector<Reading> report;
  /// Per-layer metrics; filled only by a traced repetition.
  std::vector<Reading> layers;
};

/// Runs one repetition of `kind` with inputs generated from `seed`, and a
/// batch of `ref` after every simulated slice. With a tracer, probes and
/// spans are recorded; probes only read state, so the fingerprint must not
/// change.
RepResult RunRep(WorkloadKind kind, std::uint64_t seed, Tracer* tracer,
                 RefKernel* ref);

/// Builds and starts the workload's system without running it; returns
/// the host CPU seconds that took (a set-up-only trial for setup_s).
double SetupOnly(WorkloadKind kind, std::uint64_t seed);

}  // namespace perfbench
