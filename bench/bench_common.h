#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "pcss/core/attack.h"
#include "pcss/core/attack_engine.h"
#include "pcss/core/experiment.h"
#include "pcss/core/metrics.h"
#include "pcss/runner/perf.h"
#include "pcss/runner/scale.h"
#include "pcss/train/model_zoo.h"

/// Shared configuration for the paper-reproduction benchmarks.
///
/// Every bench binary regenerates one table or figure of the paper using
/// the CPU-scaled substitutes documented in DESIGN.md. Sizing (including
/// the PCSS_FAST smoke mode) lives in pcss::runner::Scale so the benches
/// and the `pcss_run` CLI can never disagree about it; the defaults are
/// tuned so the full suite finishes in tens of minutes on one core.
namespace pcss::bench {

using pcss::runner::fast_mode;
using pcss::runner::Scale;

inline Scale scale() { return pcss::runner::active_scale(); }

inline pcss::core::AttackConfig base_config(pcss::core::AttackNorm norm,
                                            pcss::core::AttackField field) {
  const Scale s = scale();
  pcss::core::AttackConfig config;
  config.norm = norm;
  config.field = field;
  config.steps = s.pgd_steps;
  config.cw_steps = s.cw_steps;
  config.epsilon = s.eps_color;
  config.coord_epsilon = s.eps_coord;
  return config;
}

inline void print_header(const std::string& title) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(synthetic-substrate reproduction; see EXPERIMENTS.md for the\n");
  std::printf(" paper-vs-measured comparison and DESIGN.md for substitutions)\n");
  std::printf("=============================================================\n");
}

inline void print_baw_row(const char* label, const pcss::core::CaseRecord& r,
                          const char* dist_name) {
  std::printf("  %-6s %s=%9.2f  Acc=%6.2f%%  aIoU=%6.2f%%\n", label, dist_name, r.distance,
              100.0 * r.accuracy, 100.0 * r.aiou);
}

inline void print_baw(const pcss::core::BestAvgWorst& agg, const char* dist_name) {
  print_baw_row("Best", agg.best, dist_name);
  print_baw_row("Avg", agg.avg, dist_name);
  print_baw_row("Worst", agg.worst, dist_name);
}

/// Figures output directory (created on demand).
inline std::string figures_dir() {
  const std::string dir = "figures";
  std::filesystem::create_directories(dir);
  return dir;
}

// -- Perf reporting -----------------------------------------------------------
//
// Every bench that drives attacks reports wall-clock and attack-step
// throughput in the fixed "[perf]" format of pcss/runner/perf.h (shared
// with the pcss_run CLI), so throughput can be tracked across changes by
// grepping logs.

using pcss::runner::print_perf;
using pcss::runner::WallTimer;

}  // namespace pcss::bench
