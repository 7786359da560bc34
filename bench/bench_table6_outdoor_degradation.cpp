// Reproduces Table VI: performance degradation on the outdoor dataset
// (Semantic3D substitute) against RandLA-Net — the only paper model that
// scales to these clouds — comparing random noise with the norm-unbounded
// attack at matched L2.
//
// Thin wrapper over the registered "table6" spec: the runner executes
// (or replays from artifacts/results/) and this binary only formats.
// `pcss_run run table6` produces the same numbers from the same cache.
#include "bench_common.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/zoo_provider.h"

using pcss::bench::print_baw;
using pcss::bench::print_header;
using pcss::bench::print_perf;

int main() {
  print_header("Table VI - outdoor performance degradation, RandLA-Net");
  pcss::runner::ZooModelProvider provider;
  pcss::runner::ResultStore store;
  const pcss::runner::ExperimentSpec* spec = pcss::runner::find_spec("table6");
  const pcss::runner::RunOutcome out = pcss::runner::run_spec(*spec, provider, store);

  const pcss::runner::ModelSection& randla = out.document.models.front();
  std::printf("\nClean baseline: Acc=%.2f%%  aIoU=%.2f%%  (%d scenes)\n",
              100.0 * randla.clean_accuracy, 100.0 * randla.clean_aiou,
              out.document.scene_count);
  std::printf("\n[Random noise]\n");
  print_baw(pcss::runner::find_variant(randla, "random-noise").aggregate, "L2");
  std::printf("[Norm-unbounded]\n");
  print_baw(pcss::runner::find_variant(randla, "norm-unbounded").aggregate, "L2");
  print_perf(out.cache_hit ? "table6 run_spec (cache hit)" : "table6 run_spec",
             out.wall_seconds, out.attack_steps);
  std::printf("  result document: %s\n", out.path.c_str());
  std::printf("\nExpected shape (paper Table VI): the unbounded attack drops outdoor\n"
              "accuracy near the 1/8 random-guess floor while equal-L2 random noise\n"
              "leaves the model mostly intact; per-scene variance is larger than\n"
              "indoors.\n");
  return 0;
}
