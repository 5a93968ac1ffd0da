// Fault module: sampler distributions and constraints, descriptor lowering,
// injection semantics, outcome classification, and campaign determinism.
#include <gtest/gtest.h>

#include <map>

#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"

namespace dnnfi::fault {
namespace {

using dnn::LayerKind;
using dnn::NetworkSpec;
using dnn::SpecBuilder;
using numeric::DType;
using tensor::chw;
using tensor::Tensor;

NetworkSpec tiny_spec() {
  return SpecBuilder("tiny", chw(2, 8, 8), 4)
      .conv(3, 3, 1, 1).relu().maxpool(2, 2)
      .conv(4, 3, 1, 1).relu().maxpool(2, 2)
      .fc(4).softmax()
      .build();
}

dnn::WeightsBlob tiny_blob(std::uint64_t seed = 1) {
  dnn::Network<float> net(tiny_spec());
  dnn::init_weights(net, seed);
  return dnn::extract_weights(net);
}

std::vector<dnn::Example> tiny_inputs(std::size_t n) {
  std::vector<dnn::Example> v;
  for (std::size_t s = 0; s < n; ++s) {
    dnn::Example ex;
    ex.image = Tensor<float>(chw(2, 8, 8));
    Rng rng = derive_stream(1234, s);
    for (std::size_t i = 0; i < ex.image.size(); ++i)
      ex.image[i] = static_cast<float>(rng.normal() * 0.6);
    ex.label = 0;
    v.push_back(std::move(ex));
  }
  return v;
}

TEST(Sampler, BitAlwaysWithinWidth) {
  Sampler s(tiny_spec(), DType::kFloat16);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto f = s.sample(SiteClass::kDatapathLatch, rng);
    ASSERT_GE(f.bit, 0);
    ASSERT_LT(f.bit, 16);
  }
}

TEST(Sampler, ElementWithinFootprint) {
  Sampler s(tiny_spec(), DType::kFloat);
  Rng rng(2);
  for (const SiteClass cls : kAllSiteClasses) {
    for (int i = 0; i < 500; ++i) {
      const auto f = s.sample(cls, rng);
      const auto& fp = s.footprints()[f.mac_ordinal];
      switch (cls) {
        case SiteClass::kDatapathLatch:
        case SiteClass::kPsumReg:
          ASSERT_LT(f.element, fp.output_elems);
          ASSERT_LT(f.step, fp.steps);
          break;
        case SiteClass::kFilterSram:
          ASSERT_LT(f.element, fp.weight_elems);
          break;
        case SiteClass::kGlobalBuffer:
        case SiteClass::kImgReg:
          ASSERT_LT(f.element, fp.input_elems);
          break;
      }
    }
  }
}

TEST(Sampler, DatapathLayerWeightingFollowsMacs) {
  Sampler s(tiny_spec(), DType::kFloat16);
  Rng rng(3);
  std::map<std::size_t, int> hist;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    ++hist[s.sample(SiteClass::kDatapathLatch, rng).mac_ordinal];
  const auto& fp = s.footprints();
  const double total = static_cast<double>(accel::total_macs(fp));
  for (std::size_t l = 0; l < fp.size(); ++l) {
    const double expected = static_cast<double>(fp[l].macs) / total;
    const double got = hist[l] / static_cast<double>(n);
    EXPECT_NEAR(got, expected, 0.02) << "layer " << l;
  }
}

TEST(Sampler, FixedBitAndBlockConstraints) {
  Sampler s(tiny_spec(), DType::kFloat);
  Rng rng(4);
  SampleConstraint c;
  c.fixed_bit = 30;
  c.fixed_block = 2;
  for (int i = 0; i < 300; ++i) {
    const auto f = s.sample(SiteClass::kDatapathLatch, rng, c);
    ASSERT_EQ(f.bit, 30);
    ASSERT_EQ(f.block, 2);
  }
}

TEST(Sampler, FixedLatchConstraint) {
  Sampler s(tiny_spec(), DType::kFloat);
  Rng rng(5);
  SampleConstraint c;
  c.fixed_latch = accel::DatapathLatch::kProduct;
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(s.sample(SiteClass::kDatapathLatch, rng, c).latch,
              accel::DatapathLatch::kProduct);
}

TEST(Sampler, ImgRegScopeIsGeometricallyValid) {
  const auto spec = tiny_spec();
  Sampler s(spec, DType::kFloat16);
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const auto f = s.sample(SiteClass::kImgReg, rng);
    const auto& fp = s.footprints()[f.mac_ordinal];
    ASSERT_LT(f.out_channel, fp.out_shape.c);
    ASSERT_LT(f.out_row, fp.out_shape.h);
    // The corrupted input row must feed the chosen output row.
    const auto& ls = spec.layers[fp.layer_index];
    const std::size_t iy = (f.element / fp.in_shape.w) % fp.in_shape.h;
    const auto lo = static_cast<std::ptrdiff_t>(f.out_row * ls.stride) -
                    static_cast<std::ptrdiff_t>(ls.pad);
    ASSERT_GE(static_cast<std::ptrdiff_t>(iy), lo);
    ASSERT_LE(static_cast<std::ptrdiff_t>(iy),
              lo + static_cast<std::ptrdiff_t>(ls.kernel) - 1);
  }
}

TEST(Lower, MapsEveryClassToTheRightHook) {
  const std::vector<std::size_t> macs = {0, 3, 6};
  FaultDescriptor f;
  f.mac_ordinal = 1;
  f.element = 42;
  f.step = 7;
  f.bit = 5;
  f.op = fault::FaultOp::flip(5);

  f.cls = SiteClass::kDatapathLatch;
  f.latch = accel::DatapathLatch::kProduct;
  auto a = lower(f, macs);
  EXPECT_EQ(a.layer, 3U);
  ASSERT_TRUE(a.faults.mac.has_value());
  EXPECT_EQ(a.faults.mac->site, dnn::MacSite::kProduct);
  EXPECT_EQ(a.faults.mac->out_index, 42U);

  f.cls = SiteClass::kPsumReg;
  a = lower(f, macs);
  ASSERT_TRUE(a.faults.mac.has_value());
  EXPECT_EQ(a.faults.mac->site, dnn::MacSite::kAccumulator);

  f.cls = SiteClass::kFilterSram;
  a = lower(f, macs);
  ASSERT_TRUE(a.faults.weight.has_value());
  EXPECT_EQ(a.faults.weight->weight_index, 42U);

  f.cls = SiteClass::kImgReg;
  f.out_channel = 2;
  f.out_row = 4;
  a = lower(f, macs);
  ASSERT_TRUE(a.faults.scoped_input.has_value());
  EXPECT_EQ(a.faults.scoped_input->out_channel, 2U);
  EXPECT_EQ(a.faults.scoped_input->out_row, 4U);

  f.cls = SiteClass::kGlobalBuffer;
  a = lower(f, macs);
  EXPECT_TRUE(a.flip_layer_input);
  EXPECT_EQ(a.input_index, 42U);
  EXPECT_EQ(a.input_op, fault::FaultOp::flip(5));
}

TEST(Lower, OrdinalOutOfRangeThrows) {
  FaultDescriptor f;
  f.mac_ordinal = 9;
  f.op = fault::FaultOp::flip(0);
  EXPECT_THROW(lower(f, {0, 1}), ContractViolation);
}

TEST(Lower, IdentityOpThrows) {
  // A descriptor whose op changes no bit is not a fault: lowering refuses
  // it rather than guessing a default upset.
  FaultDescriptor f;
  f.bit = 3;
  EXPECT_THROW(lower(f, {0, 1}), ContractViolation);
  f.op = fault::FaultOp::flip(3);
  EXPECT_NO_THROW(lower(f, {0, 1}));
}

TEST(Outcome, Sdc1And5Criteria) {
  dnn::Prediction golden;
  golden.scores = {0.6, 0.2, 0.1, 0.05, 0.03, 0.02};
  dnn::Prediction same = golden;
  EXPECT_FALSE(classify(golden, same).sdc1);

  dnn::Prediction swapped;
  swapped.scores = {0.2, 0.6, 0.1, 0.05, 0.03, 0.02};
  const auto o = classify(golden, swapped);
  EXPECT_TRUE(o.sdc1);
  EXPECT_FALSE(o.sdc5);  // class 1 is in golden top-5

  dnn::Prediction outlier;
  outlier.scores = {0.1, 0.1, 0.1, 0.1, 0.1, 0.5};
  EXPECT_TRUE(classify(golden, outlier).sdc5);  // class 5 ranks 6th in golden
}

TEST(Outcome, ConfidenceCriteria) {
  dnn::Prediction golden;
  golden.scores = {0.50, 0.30, 0.20};
  dnn::Prediction drifted;
  drifted.scores = {0.56, 0.24, 0.20};  // +12% relative on top-1
  auto o = classify(golden, drifted);
  EXPECT_FALSE(o.sdc1);
  EXPECT_TRUE(o.sdc10);
  EXPECT_FALSE(o.sdc20);

  dnn::Prediction big;
  big.scores = {0.65, 0.2, 0.15};  // +30%
  o = classify(golden, big);
  EXPECT_TRUE(o.sdc20);
}

TEST(Outcome, NoConfidenceNetworksSkipConfidenceCriteria) {
  dnn::Prediction golden;
  golden.scores = {5.0, 1.0};
  golden.has_confidence = false;
  dnn::Prediction faulty;
  faulty.scores = {50.0, 1.0};
  faulty.has_confidence = false;
  const auto o = classify(golden, faulty);
  EXPECT_FALSE(o.sdc1);
  EXPECT_FALSE(o.sdc10);
  EXPECT_FALSE(o.sdc20);
}

TEST(Estimate, BinomialMath) {
  const auto e = estimate(25, 100);
  EXPECT_DOUBLE_EQ(e.p, 0.25);
  EXPECT_NEAR(e.ci95, 1.96 * std::sqrt(0.25 * 0.75 / 100.0), 1e-12);
  const auto zero = estimate(0, 0);
  EXPECT_EQ(zero.p, 0.0);
}

TEST(BlockEnds, LastNonSoftmaxLayerPerBlock) {
  const auto ends = block_end_layers(tiny_spec());
  const auto spec = tiny_spec();
  ASSERT_EQ(ends.size(), 3U);  // 2 conv blocks + 1 fc block
  EXPECT_EQ(spec.layers[ends[0]].kind, LayerKind::kMaxPool);
  EXPECT_EQ(spec.layers[ends[1]].kind, LayerKind::kMaxPool);
  EXPECT_EQ(spec.layers[ends[2]].kind, LayerKind::kFullyConnected);
}

TEST(Campaign, DeterministicAcrossRuns) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat16, tiny_inputs(3));
  CampaignOptions opt;
  opt.trials = 64;
  opt.seed = 99;
  const auto r1 = c.run(opt);
  const auto r2 = c.run(opt);
  ASSERT_EQ(r1.trials.size(), r2.trials.size());
  for (std::size_t i = 0; i < r1.trials.size(); ++i) {
    EXPECT_EQ(r1.trials[i].fault.element, r2.trials[i].fault.element);
    EXPECT_EQ(r1.trials[i].fault.bit, r2.trials[i].fault.bit);
    EXPECT_EQ(r1.trials[i].outcome.sdc1, r2.trials[i].outcome.sdc1);
    EXPECT_EQ(r1.trials[i].output_corruption, r2.trials[i].output_corruption);
  }
}

TEST(Campaign, SeedChangesTrials) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat16, tiny_inputs(2));
  CampaignOptions a, b;
  a.trials = b.trials = 32;
  a.seed = 1;
  b.seed = 2;
  const auto ra = c.run(a);
  const auto rb = c.run(b);
  int same = 0;
  for (std::size_t i = 0; i < ra.trials.size(); ++i)
    same += (ra.trials[i].fault.element == rb.trials[i].fault.element) ? 1 : 0;
  EXPECT_LT(same, 8);
}

TEST(Campaign, InputsRotateRoundRobin) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat, tiny_inputs(3));
  CampaignOptions opt;
  opt.trials = 9;
  const auto r = c.run(opt);
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(r.trials[i].input_index, i % 3);
}

TEST(Campaign, HighBitFlipsCauseMoreSdcThanLowBits) {
  // The core qualitative claim of the paper, at unit-test scale: flipping
  // the top exponent bit must corrupt more often than flipping mantissa
  // LSBs.
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat, tiny_inputs(4));
  CampaignOptions hi, lo;
  hi.trials = lo.trials = 200;
  hi.constraint.fixed_bit = 30;  // top exponent bit of float
  lo.constraint.fixed_bit = 2;   // mantissa LSB region
  const auto rh = c.run(hi);
  const auto rl = c.run(lo);
  EXPECT_GT(rh.sdc1().p + 1e-9, rl.sdc1().p);
  EXPECT_GT(rh.sdc1().p, 0.0);
}

TEST(Campaign, RecordsInjectionValues) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat16, tiny_inputs(2));
  CampaignOptions opt;
  opt.trials = 16;
  const auto r = c.run(opt);
  for (const auto& t : r.trials) {
    EXPECT_TRUE(t.record.applied) << t.fault.describe();
  }
}

TEST(Campaign, BlockDistancesMonotoneLayout) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat, tiny_inputs(2));
  CampaignOptions opt;
  opt.trials = 8;
  opt.record_block_distances = true;
  const auto r = c.run(opt);
  for (const auto& t : r.trials) {
    ASSERT_EQ(t.block_distance.size(), 3U);
    // Blocks before the injected one are untouched -> distance 0.
    for (int b = 0; b < t.fault.block - 1; ++b)
      EXPECT_EQ(t.block_distance[static_cast<std::size_t>(b)], 0.0);
  }
}

TEST(Campaign, DetectorFlagsObviousOutliers) {
  Campaign c(tiny_spec(), tiny_blob(), DType::kFloat, tiny_inputs(2));
  CampaignOptions opt;
  opt.trials = 150;
  opt.constraint.fixed_bit = 30;  // guarantees huge deviations
  opt.detector = [](int, double v) { return std::abs(v) > 1e6; };
  const auto r = c.run(opt);
  std::size_t detected = 0;
  for (const auto& t : r.trials) detected += t.detected ? 1U : 0U;
  EXPECT_GT(detected, 0U);
}

TEST(Campaign, RateHelpers) {
  CampaignResult r;
  r.trials.resize(4);
  r.trials[0].outcome.sdc1 = true;
  r.trials[1].outcome.sdc1 = true;
  r.trials[1].detected = true;
  EXPECT_DOUBLE_EQ(r.sdc1().p, 0.5);
  const auto cond = r.rate_if(
      [](const TrialRecord& t) { return t.outcome.sdc1; },
      [](const TrialRecord& t) { return t.detected; });
  EXPECT_DOUBLE_EQ(cond.p, 0.5);
  EXPECT_EQ(cond.n, 2U);
}

TEST(ProfileRanges, BoundsContainObservedActivations) {
  const auto spec = tiny_spec();
  const auto blob = tiny_blob();
  auto inputs = tiny_inputs(6);
  const dnn::ExampleSource src = [&inputs](std::uint64_t i) {
    return inputs[i % inputs.size()];
  };
  const auto ranges = profile_block_ranges(spec, blob, DType::kFloat, src, 0, 6);
  ASSERT_EQ(ranges.size(), 3U);
  for (const auto& r : ranges) EXPECT_LE(r.lo, r.hi);

  // The campaign's golden ranges over the same inputs must agree.
  Campaign c(spec, blob, DType::kFloat, std::move(inputs));
  const auto& gr = c.golden_block_ranges();
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(gr[b].lo, ranges[b].lo);
    EXPECT_DOUBLE_EQ(gr[b].hi, ranges[b].hi);
  }
}

}  // namespace
}  // namespace dnnfi::fault
