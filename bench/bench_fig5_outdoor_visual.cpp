// Reproduces Figure 5: an outdoor scene under the color-based
// norm-unbounded performance-degradation attack against RandLA-Net.
#include "bench_common.h"
#include "pcss/viz/render.h"

using namespace pcss::core;
using pcss::bench::base_config;
using pcss::bench::print_header;
using pcss::viz::Image;

int main() {
  print_header("Figure 5 - outdoor degradation visualization (RandLA-Net)");
  pcss::train::ModelZoo zoo;
  auto model = zoo.randla_outdoor();
  const auto clouds = zoo.outdoor_eval_scenes(1, /*seed=*/5100);
  const auto& cloud = clouds.front();
  const std::string dir = pcss::bench::figures_dir();

  AttackConfig config = base_config(AttackNorm::kUnbounded, AttackField::kColor);
  config.success_accuracy = 1.0f / 8.0f;

  const auto clean_pred = model->predict(cloud);
  const AttackResult adv = AttackEngine(*model, config).run(cloud);

  const int w = 320, h = 240;
  const Image panel = Image::hstack({
      pcss::viz::render_cloud_colors(cloud, w, h),
      pcss::viz::render_cloud_labels(cloud, clean_pred, w, h),
      pcss::viz::render_cloud_colors(adv.perturbed, w, h),
      pcss::viz::render_cloud_labels(adv.perturbed, adv.predictions, w, h),
  });
  const std::string path = dir + "/fig5_outdoor.ppm";
  panel.save_ppm(path);

  const double clean_acc = evaluate_segmentation(clean_pred, cloud.labels, 8).accuracy;
  const double adv_acc = evaluate_segmentation(adv.predictions, cloud.labels, 8).accuracy;
  std::printf("  acc %.2f%% -> %.2f%% (L2=%.2f), wrote %s\n", 100.0 * clean_acc,
              100.0 * adv_acc, adv.l2_color, path.c_str());
  std::printf("\nExpected shape (paper Fig. 5): seemingly small color perturbations\n"
              "drastically change the outdoor segmentation result.\n");
  return 0;
}
