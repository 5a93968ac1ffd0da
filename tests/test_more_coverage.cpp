// Additional coverage: quantized non-MAC layers, spec-builder conventions,
// buffer-site sampler weighting, FIT occupancy arithmetic on a hand-checked
// case, CSV emission, and SED evaluation edge cases.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "dnnfi/common/table.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fit/fit.h"
#include "dnnfi/mitigate/sed.h"
#include "temp_path.h"

namespace dnnfi {
namespace {

using numeric::Fx16r10;
using numeric::Half;
using tensor::chw;
using tensor::Tensor;
using tensor::vec;

TEST(QuantizedLayers, LrnOutputsAreRepresentable) {
  dnn::Lrn<Fx16r10> lrn("n", 1, 3, 0.5, 0.75, 1.0);
  Tensor<Fx16r10> in(chw(3, 2, 2));
  Rng rng(1);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = Fx16r10(rng.normal() * 3.0);
  Tensor<Fx16r10> out;
  lrn.forward(in, out);
  // LRN is contractive for |v| >= 0 with k = 1: |out| <= |in|.
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_LE(std::abs(static_cast<double>(out[i])),
              std::abs(static_cast<double>(in[i])) + 1.0 / 1024.0);
  }
}

TEST(QuantizedLayers, SoftmaxInHalfSumsToOne) {
  dnn::Softmax<Half> sm("s", 1);
  Tensor<Half> in(vec(8));
  Rng rng(2);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = Half(rng.normal() * 4.0);
  Tensor<Half> out;
  sm.forward(in, out);
  double sum = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    sum += static_cast<double>(out[i]);
  EXPECT_NEAR(sum, 1.0, 0.01);  // binary16 quantization slack
}

TEST(QuantizedLayers, MaxPoolPreservesRawBits) {
  // Pooling selects, never recomputes: outputs are bit-identical copies.
  dnn::MaxPool2d<Fx16r10> pool("p", 1, 2, 2);
  Tensor<Fx16r10> in(chw(1, 4, 4));
  Rng rng(3);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = Fx16r10(rng.normal() * 5.0);
  Tensor<Fx16r10> out;
  pool.forward(in, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    bool found = false;
    for (std::size_t j = 0; j < in.size(); ++j)
      found |= (in[j].raw() == out[i].raw());
    EXPECT_TRUE(found);
  }
}

TEST(SpecBuilder, NamesAndBlocksFollowConvention) {
  const auto spec = dnn::SpecBuilder("t", chw(1, 8, 8), 2)
                        .conv(2, 3, 1, 1).relu().lrn().maxpool(2, 2)
                        .fc(2).softmax()
                        .build();
  ASSERT_EQ(spec.layers.size(), 6U);
  EXPECT_EQ(spec.layers[0].name, "conv1");
  EXPECT_EQ(spec.layers[1].name, "relu1");
  EXPECT_EQ(spec.layers[2].name, "norm1");
  EXPECT_EQ(spec.layers[3].name, "pool1");
  EXPECT_EQ(spec.layers[4].name, "fc2");
  EXPECT_EQ(spec.layers[5].name, "softmax2");
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(spec.layers[i].block, 1);
  EXPECT_EQ(spec.layers[4].block, 2);
  EXPECT_EQ(spec.num_blocks(), 2);
  EXPECT_TRUE(spec.has_softmax());
}

TEST(SamplerWeighting, BufferSitesWeightByOccupancyTimesResidency) {
  const auto spec = dnn::SpecBuilder("w", chw(2, 8, 8), 4)
                        .conv(3, 3, 1, 1).relu()
                        .conv(4, 3, 1, 1).relu().maxpool(2, 2)
                        .fc(4).softmax()
                        .build();
  fault::Sampler s(spec, numeric::DType::kFloat16);
  Rng rng(4);
  std::map<std::size_t, int> hist;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    ++hist[s.sample(fault::SiteClass::kFilterSram, rng).mac_ordinal];
  const auto& fp = s.footprints();
  double total = 0;
  std::vector<double> w(fp.size());
  for (std::size_t l = 0; l < fp.size(); ++l) {
    w[l] = static_cast<double>(fp[l].weight_elems) *
           static_cast<double>(fp[l].macs);
    total += w[l];
  }
  for (std::size_t l = 0; l < fp.size(); ++l) {
    EXPECT_NEAR(hist[l] / static_cast<double>(n), w[l] / total, 0.02)
        << "layer " << l;
  }
}

TEST(FitOccupancy, HandCheckedTwoLayerCase) {
  // Two layers: occupancies 100 and 300 words, durations 1M and 3M MACs.
  // Time-averaged occupied bits = (100*1 + 300*3)/4 * 16 = 4000 bits.
  const auto spec = dnn::SpecBuilder("h", chw(1, 10, 10), 4)
                        .conv(2, 3, 1, 1).relu().maxpool(2, 2)
                        .fc(4).softmax()
                        .build();
  const auto fp = accel::analyze(spec);
  auto cfg = accel::eyeriss_16nm();
  const double occ =
      fit::occupied_bits(fp, accel::BufferKind::kGlobalBuffer, cfg);
  // Cross-check against the definition directly.
  double weighted = 0, time = 0;
  for (const auto& f : fp) {
    weighted += static_cast<double>(f.input_elems) * 16.0 *
                static_cast<double>(f.macs);
    time += static_cast<double>(f.macs);
  }
  EXPECT_NEAR(occ, weighted / time, 1e-9);
}

TEST(TableIo, WriteCsvCreatesDirectoryAndFile) {
  Table t("io");
  t.header({"a"});
  t.row({"1"});
  const auto dir =
      testutil::temp_path("dnnfi_csv_test").string();
  std::filesystem::remove_all(dir);
  const std::string path = t.write_csv(dir, "x");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a");
  std::filesystem::remove_all(dir);
}

TEST(SedEvaluation, NoSdcTrialsGivesEmptyRecall) {
  fault::CampaignResult r;
  r.trials.resize(5);  // all benign, none detected
  const auto ev = mitigate::evaluate_sed(r);
  EXPECT_EQ(ev.recall.n, 0U);
  EXPECT_DOUBLE_EQ(ev.precision.p, 1.0);
  EXPECT_EQ(ev.sdc_count, 0U);
}

TEST(SedEvaluation, AllDetectedBenignKillsPrecision) {
  fault::CampaignResult r;
  r.trials.resize(4);
  for (auto& t : r.trials) t.detected = true;  // 4 false alarms
  const auto ev = mitigate::evaluate_sed(r);
  EXPECT_DOUBLE_EQ(ev.precision.p, 0.0);
}

TEST(Outcome, MismatchedScoreSizesThrow) {
  dnn::Prediction a, b;
  a.scores = {0.5, 0.5};
  b.scores = {1.0};
  EXPECT_THROW(fault::classify(a, b), ContractViolation);
}

TEST(CampaignInputs, EmptyInputSetRejected) {
  const auto spec = dnn::SpecBuilder("e", chw(1, 6, 6), 2)
                        .conv(2, 3, 1, 1).relu().global_avg_pool()
                        .build();
  dnn::Network<float> net(spec);
  dnn::init_weights(net, 1);
  EXPECT_THROW(fault::Campaign(spec, dnn::extract_weights(net),
                               numeric::DType::kFloat, {}),
               ContractViolation);
}

TEST(CampaignOptions, ZeroTrialsYieldEmptyResult) {
  const auto spec = dnn::SpecBuilder("z", chw(1, 6, 6), 2)
                        .conv(2, 3, 1, 1).relu().global_avg_pool()
                        .build();
  dnn::Network<float> net(spec);
  dnn::init_weights(net, 1);
  std::vector<dnn::Example> inputs(1);
  inputs[0].image = Tensor<float>(chw(1, 6, 6));
  fault::Campaign c(spec, dnn::extract_weights(net), numeric::DType::kFloat,
                    std::move(inputs));
  fault::CampaignOptions opt;
  opt.trials = 0;
  // Empty shards are a natural edge of sharded execution: legal, and every
  // estimate over them is an exact zero-width zero.
  const auto r = c.run(opt);
  EXPECT_TRUE(r.trials.empty());
  for (const auto& e : {r.sdc1(), r.sdc5(), r.sdc10(), r.sdc20(),
                        r.rate([](const fault::TrialRecord&) { return true; })}) {
    EXPECT_EQ(e.n, 0u);
    EXPECT_EQ(e.hits, 0u);
    EXPECT_EQ(e.p, 0.0);
    EXPECT_EQ(e.ci95, 0.0);
    EXPECT_EQ(e.lo, 0.0);
    EXPECT_EQ(e.hi, 0.0);
  }
  const auto sh = c.run_shard(opt, fault::ShardSpec{});
  EXPECT_TRUE(sh.complete);
  EXPECT_EQ(sh.acc.trials(), 0u);
  EXPECT_EQ(sh.acc.sdc1().ci95, 0.0);
}

}  // namespace
}  // namespace dnnfi
