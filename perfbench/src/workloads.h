#pragma once

// The workloads and the layer probes of pcss_perfbench.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Everything one invocation needs, parsed from the command line.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< measured time of `run`; required
  bool trace = false;
  Paths paths;
  std::map<std::string, std::string> reference;  ///< seed-0 run key -> digest
  Tally tally;

  /// Trace file for one traced part of this run ("" when traces are not kept).
  std::string trace_file(const char* part) const {
    if (paths.traces.empty()) return "";
    return paths.traces + "/" + workload + "-seed" + std::to_string(seed) + "-" + part + ".json";
  }
};

/// The registered specs each compute workload runs, in order.
const std::vector<std::string>* compute_specs(const std::string& workload);

/// color_plan / coord_eager / defense_transfer: forced run_spec calls over
/// seeded spec copies at full scale.
void run_compute(RunContext& ctx, Report& report);

/// Layer probes for the traced run: each layer driven through its public
/// functions with seeded inputs.
void run_probes(RunContext& ctx, Report& report);

/// Prepare: trains missing zoo checkpoints into the artifacts directory and
/// warms the serve store with all six specs at fast scale.
void prepare(RunContext& ctx);

/// The serve layer: a short traced closed-loop load of cache hits against
/// a fresh in-process daemon on the warm store.
void serve_probe(RunContext& ctx, Report& report);

}  // namespace perfbench
