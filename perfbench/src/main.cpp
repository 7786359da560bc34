// pcss_perfbench: the attack-pipeline benchmark driver. perfbench/run.py
// builds it and calls it; it can also be run by hand:
//
//   pcss_perfbench prepare --artifacts DIR --serve-store DIR
//   pcss_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                      --artifacts DIR --serve-store DIR --scratch DIR
//                      --reference FILE [--trace-dir DIR]
//
// The caller removes the --scratch directory afterwards.
// `run` prints a human-readable metric table on stderr and, as the last line
// of stdout, one JSON object {correct, attempted, failed, metrics}.

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "pcss/obs/trace.h"
#include "workloads.h"

namespace {

using perfbench::RunContext;

int usage() {
  std::fprintf(stderr,
               "usage: pcss_perfbench prepare --artifacts DIR --serve-store DIR\n"
               "       pcss_perfbench run --workload NAME --seed N --seconds S --trace 0|1\n"
               "                          --artifacts DIR --serve-store DIR --scratch DIR\n"
               "                          --reference FILE [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  RunContext ctx;
  std::string reference_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") ctx.workload = value;
    else if (flag == "--seed") ctx.seed = std::stoull(value);
    else if (flag == "--seconds") ctx.seconds = std::stod(value);
    else if (flag == "--trace") ctx.trace = value != "0";
    else if (flag == "--artifacts") ctx.paths.artifacts = value;
    else if (flag == "--serve-store") ctx.paths.serve_store = value;
    else if (flag == "--scratch") ctx.paths.scratch = value;
    else if (flag == "--reference") reference_path = value;
    else if (flag == "--trace-dir") ctx.paths.traces = value;
    else return usage();
  }
  if (ctx.paths.artifacts.empty() || ctx.paths.serve_store.empty()) return usage();
  // Tracing is driven explicitly (off for end-to-end numbers, on for the
  // traced pass), never by the environment.
  pcss::obs::trace::set_enabled(false);

  try {
    if (command == "prepare") {
      perfbench::prepare(ctx);
      return 0;
    }
    if (command != "run" || ctx.paths.scratch.empty() || reference_path.empty() ||
        ctx.seconds <= 0.0) {
      return usage();
    }
    if (perfbench::compute_specs(ctx.workload) == nullptr) return usage();
    ctx.reference = perfbench::load_reference_digests(reference_path);
    std::filesystem::create_directories(ctx.paths.scratch);

    perfbench::Report report;
    perfbench::run_compute(ctx, report);
    if (ctx.trace) perfbench::run_probes(ctx, report);
    report.print(ctx.tally, ctx.tally.failed() == 0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcss_perfbench: %s\n", e.what());
    return 1;
  }
}
