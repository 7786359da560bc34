#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/train/checkpoint.h"
#include "pcss/train/trainer.h"
#include "pcss/viz/render.h"

using pcss::data::IndoorSceneGenerator;
using pcss::models::ResGCNConfig;
using pcss::models::ResGCNSeg;
using pcss::tensor::Rng;

namespace {

// --- viz ---------------------------------------------------------------------

TEST(Viz, ImagePixelRoundTrip) {
  pcss::viz::Image img(10, 6);
  img.set_pixel(3, 2, {1, 0, 0});
  EXPECT_FLOAT_EQ(img.pixel(3, 2)[0], 1.0f);
  // Out-of-bounds writes are ignored, not UB.
  EXPECT_NO_THROW(img.set_pixel(-1, 100, {0, 0, 0}));
  EXPECT_THROW(pcss::viz::Image(0, 5), std::invalid_argument);
}

TEST(Viz, SavePpmWritesHeaderAndPayload) {
  pcss::viz::Image img(4, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pcss_viz_test.ppm").string();
  img.save_ppm(path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  in.seekg(0, std::ios::end);
  EXPECT_GE(in.tellg(), static_cast<std::streamoff>(4 * 3 * 3));
  std::filesystem::remove(path);
}

TEST(Viz, HstackDimensions) {
  pcss::viz::Image a(4, 3), b(6, 5);
  const auto stacked = pcss::viz::Image::hstack({a, b}, 2);
  EXPECT_EQ(stacked.width(), 4 + 2 + 6);
  EXPECT_EQ(stacked.height(), 5);
}

TEST(Viz, RenderProducesNonEmptyImage) {
  IndoorSceneGenerator gen({.num_points = 200});
  Rng rng(5);
  const auto cloud = gen.generate(rng);
  const auto img = pcss::viz::render_cloud_colors(cloud, 64, 64);
  // Some pixels must differ from the background.
  int lit = 0;
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (img.pixel(x, y)[0] > 0.2f) ++lit;
    }
  }
  EXPECT_GT(lit, 50);
  const auto seg = pcss::viz::render_cloud_labels(cloud, cloud.labels, 64, 64);
  EXPECT_EQ(seg.width(), 64);
  EXPECT_THROW(pcss::viz::render_cloud_labels(cloud, {1, 2}, 64, 64),
               std::invalid_argument);
}

TEST(Viz, LabelPaletteDistinctForPaperClasses) {
  for (int a = 0; a < 13; ++a) {
    for (int b = a + 1; b < 13; ++b) {
      const auto ca = pcss::viz::label_color(a);
      const auto cb = pcss::viz::label_color(b);
      EXPECT_TRUE(ca != cb) << "labels " << a << " and " << b << " share a color";
    }
  }
}

// --- trainer -------------------------------------------------------------------

TEST(Trainer, ImprovesOverInitialModel) {
  Rng init(6);
  ResGCNConfig config;
  config.num_classes = pcss::data::kIndoorNumClasses;
  config.channels = 12;
  config.blocks = 2;
  ResGCNSeg model(config, init);

  IndoorSceneGenerator gen({.num_points = 128});
  pcss::train::TrainConfig tc;
  tc.iterations = 80;
  tc.scene_pool = 4;
  tc.seed = 77;

  Rng eval_rng(88);
  std::vector<pcss::data::PointCloud> eval{gen.generate(eval_rng)};
  const double before = pcss::train::evaluate_accuracy(model, eval);
  const auto stats = pcss::train::train_model(
      model, [&gen](Rng& rng) { return gen.generate(rng); }, tc);
  const double after = pcss::train::evaluate_accuracy(model, eval);
  EXPECT_GT(after, before + 0.1) << "before=" << before << " after=" << after;
  EXPECT_GT(stats.final_train_accuracy, 0.4);
}

TEST(Checkpoint, MissingFileAndMismatchDetected) {
  EXPECT_FALSE(pcss::train::checkpoint_exists("/nonexistent/x.ckpt"));
  Rng init(7);
  ResGCNConfig small;
  small.num_classes = 13;
  small.channels = 8;
  small.blocks = 1;
  ResGCNSeg a(small, init);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pcss_ckpt_mismatch.bin").string();
  pcss::train::save_checkpoint(a, path);
  EXPECT_TRUE(pcss::train::checkpoint_exists(path));

  ResGCNConfig bigger = small;
  bigger.channels = 16;
  Rng init2(8);
  ResGCNSeg b(bigger, init2);
  EXPECT_THROW(pcss::train::load_checkpoint(b, path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(pcss::train::load_checkpoint(a, path), std::runtime_error);
}

}  // namespace
