// Synthetic dataset properties and PPM IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "dnnfi/data/datasets.h"
#include "dnnfi/data/image_io.h"
#include "dnnfi/data/pretrain.h"
#include "temp_path.h"

namespace dnnfi::data {
namespace {

TEST(Shapes, DeterministicPerIndex) {
  ShapesDataset ds(1);
  const auto a = ds.sample(123);
  const auto b = ds.sample(123);
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.image.size(), b.image.size());
  for (std::size_t i = 0; i < a.image.size(); ++i)
    EXPECT_EQ(a.image[i], b.image[i]);
}

TEST(Shapes, DifferentIndicesDiffer) {
  ShapesDataset ds(1);
  const auto a = ds.sample(0);
  const auto b = ds.sample(10);  // same class (label 0), different instance
  EXPECT_EQ(a.label, b.label);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.image.size(); ++i)
    diffs += (a.image[i] != b.image[i]) ? 1U : 0U;
  EXPECT_GT(diffs, a.image.size() / 2);
}

TEST(Shapes, LabelsBalancedRoundRobin) {
  ShapesDataset ds(1);
  for (std::uint64_t i = 0; i < 30; ++i)
    EXPECT_EQ(ds.sample(i).label, i % 10);
}

TEST(Shapes, PixelsInExpectedRange) {
  ShapesDataset ds(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto s = ds.sample(i);
    for (std::size_t p = 0; p < s.image.size(); ++p) {
      ASSERT_GT(s.image[p], -2.0F);
      ASSERT_LT(s.image[p], 2.5F);
    }
  }
}

TEST(Shapes, ClassNamesDistinct) {
  ShapesDataset ds(1);
  std::set<std::string> names;
  for (std::size_t c = 0; c < 10; ++c) names.insert(ds.class_name(c));
  EXPECT_EQ(names.size(), 10U);
  EXPECT_THROW(ds.class_name(10), ContractViolation);
}

TEST(Textures, HundredClassesRoundRobin) {
  TexturesDataset ds(3);
  EXPECT_EQ(ds.num_classes(), 100U);
  EXPECT_EQ(ds.sample(205).label, 5U);
  EXPECT_EQ(ds.image_shape(), tensor::chw(3, 48, 48));
}

TEST(Textures, ClassesAreVisuallyDistinct) {
  // Images of the same class (different instances) must correlate more than
  // images of different classes — the separability that training relies on.
  TexturesDataset ds(3);
  auto corr = [](const tensor::Tensor<float>& a, const tensor::Tensor<float>& b) {
    double num = 0, da = 0, db = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      num += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      da += static_cast<double>(a[i]) * static_cast<double>(a[i]);
      db += static_cast<double>(b[i]) * static_cast<double>(b[i]);
    }
    return num / std::sqrt(da * db);
  };
  const auto a1 = ds.sample(7).image;    // class 7
  const auto a2 = ds.sample(107).image;  // class 7 again
  const auto b1 = ds.sample(57).image;   // class 57 (different freq+orient)
  EXPECT_GT(std::abs(corr(a1, a2)), std::abs(corr(a1, b1)));
}

TEST(Textures, SeedChangesInstances) {
  TexturesDataset a(1), b(2);
  const auto sa = a.sample(0).image;
  const auto sb = b.sample(0).image;
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < sa.size(); ++i)
    diffs += (sa[i] != sb[i]) ? 1U : 0U;
  EXPECT_GT(diffs, sa.size() / 2);
}

TEST(Ppm, RoundTripsImage) {
  ShapesDataset ds(4);
  const auto img = ds.sample(3).image;
  const std::string path =
      testutil::temp_path("dnnfi_test.ppm").string();
  write_ppm(path, img);
  const auto back = read_ppm(path);
  ASSERT_EQ(back.shape(), img.shape());
  // 8-bit quantization: tolerance of one level.
  for (std::size_t i = 0; i < img.size(); ++i) {
    const float clamped = std::clamp(img[i], -1.0F, 1.0F);
    EXPECT_NEAR(back[i], clamped, 2.0F / 255.0F + 1e-4F);
  }
  std::remove(path.c_str());
}

TEST(Ppm, RejectsBadFiles) {
  EXPECT_THROW(read_ppm("/nonexistent.ppm"), std::runtime_error);
  const std::string path =
      testutil::temp_path("dnnfi_not_ppm.ppm").string();
  {
    std::ofstream f(path);
    f << "P3\n1 1\n255\n0 0 0\n";  // ASCII PPM, unsupported
  }
  EXPECT_THROW(read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Ppm, RequiresThreeChannels) {
  tensor::Tensor<float> gray(tensor::chw(1, 4, 4));
  EXPECT_THROW(write_ppm(testutil::temp_path("never.ppm").string(), gray),
               std::runtime_error);
}

TEST(Pretrain, DatasetBindingMatchesPaperTable2) {
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kConvNet)->name(), "shapes10");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kAlexNetS)->name(), "textures100");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kCaffeNetS)->name(), "textures100");
  EXPECT_EQ(dataset_for(dnn::zoo::NetworkId::kNiNS)->name(), "textures100");
}

TEST(Pretrain, ExampleSourceAdaptsSamples) {
  ShapesDataset ds(5);
  const auto src = example_source(ds);
  const auto ex = src(17);
  EXPECT_EQ(ex.label, 7U);
  EXPECT_EQ(ex.image.shape(), ds.image_shape());
}

TEST(Pretrain, TrainConfigsAreSane) {
  for (const auto id : dnn::zoo::kAllNetworks) {
    const auto cfg = train_config_for(id);
    EXPECT_GT(cfg.epochs, 0U);
    EXPECT_GT(cfg.train_count, 0U);
    EXPECT_GT(cfg.learning_rate, 0.0);
    // Training must not touch the held-out split.
    EXPECT_LT(cfg.train_count, kTestSplitBegin);
  }
}

}  // namespace
}  // namespace dnnfi::data
