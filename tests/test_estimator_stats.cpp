// The stratified estimator's statistical guarantees, locked down:
//  - interval coverage: nominal-95% stratified CIs contain the true rate in
//    at least 93 of 100 resampled synthetic campaigns;
//  - allocator sanity against hand-computed optima: the marginal-gain rule
//    reduces to the Neyman allocation, retired/zero-variance components get
//    only their pilot trials, ties and remainders land deterministically;
//  - regression lock: `--sampler uniform` is one campaign — same
//    fingerprint, same shard bytes, same `sampler uniform` identity — no
//    matter how the stratified knobs are set.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/adaptive_sampler.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/stats_io.h"

namespace dnnfi::fault {
namespace {

using dnn::SpecBuilder;
using numeric::DType;
using tensor::chw;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Synthetic campaigns: known per-stratum rates driven through the real
// controller, exactly like the stratified campaign keys its substreams.
// ---------------------------------------------------------------------------

struct SyntheticStratum {
  double weight;
  double rate;  // true P(hit | stratum)
};

double truth_of(const std::vector<SyntheticStratum>& pop) {
  double t = 0;
  for (const SyntheticStratum& s : pop) t += s.weight * s.rate;
  return t;
}

std::vector<StratumCounts> simulate(const std::vector<SyntheticStratum>& pop,
                                    const StratifiedOptions& opt,
                                    std::uint64_t budget, std::uint64_t seed) {
  std::vector<StratumCounts> s(pop.size());
  for (std::size_t h = 0; h < pop.size(); ++h) s[h].weight = pop[h].weight;
  std::uint64_t spent = 0;
  while (spent < budget) {
    const std::vector<std::uint64_t> plan =
        next_allocation(s, opt, budget - spent);
    if (plan.empty()) break;
    for (std::size_t h = 0; h < pop.size(); ++h) {
      for (std::uint64_t k = 0; k < plan[h]; ++k) {
        // Bernoulli(rate) from the same keying the campaign uses; 2^-53
        // granularity is far below any rate exercised here.
        Rng rng = derive_stream(seed, h, s[h].n);
        const double u =
            static_cast<double>(rng.below(std::uint64_t{1} << 53)) /
            static_cast<double>(std::uint64_t{1} << 53);
        if (u < pop[h].rate) ++s[h].hits;
        ++s[h].n;
        ++spent;
      }
    }
  }
  return s;
}

TEST(EstimatorStats, CoverageAtLeast93Of100) {
  // The paper's regime: concentrated SDC probability, a long dead tail.
  const std::vector<SyntheticStratum> pop = {
      {0.02, 0.45}, {0.03, 0.20}, {0.05, 0.08}, {0.08, 0.04},
      {0.10, 0.01}, {0.12, 0.004}, {0.15, 0.0}, {0.20, 0.0},
      {0.15, 0.0},  {0.10, 0.0},
  };
  const double truth = truth_of(pop);

  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0;

  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::vector<StratumCounts> s = simulate(pop, opt, 2000, seed);
    const StratifiedEstimate e = stratified_estimate(s);
    if (e.est.lo <= truth && truth <= e.est.hi) ++covered;
  }
  EXPECT_GE(covered, 93) << "covered " << covered << "/100, truth " << truth;
}

TEST(EstimatorStats, CoverageHoldsUnderConvergenceStop) {
  // Coverage must survive the adaptive CI-target stop too (the regime where
  // a structurally-optimistic variance rule stops early and undercovers).
  const std::vector<SyntheticStratum> pop = {
      {0.05, 0.30}, {0.10, 0.06}, {0.15, 0.01},
      {0.30, 0.0},  {0.25, 0.0},  {0.15, 0.0},
  };
  const double truth = truth_of(pop);

  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0.01;

  int covered = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::vector<StratumCounts> s = simulate(pop, opt, 100000, seed);
    const StratifiedEstimate e = stratified_estimate(s);
    EXPECT_LE(e.est.ci95, opt.target_ci + 1e-12);
    if (e.est.lo <= truth && truth <= e.est.hi) ++covered;
  }
  EXPECT_GE(covered, 93) << "covered " << covered << "/100, truth " << truth;
}

// ---------------------------------------------------------------------------
// Estimator unit checks against hand-computed values.
// ---------------------------------------------------------------------------

TEST(EstimatorStats, HandComputedEstimate) {
  // One hit-bearing stratum, one pooled-dead stratum, one unpiloted.
  std::vector<StratumCounts> s(3);
  s[0] = {0.5, 10, 40};  // p̂ = 0.25
  s[1] = {0.3, 0, 20};   // zero pool member
  s[2] = {0.2, 0, 0};    // unpiloted

  const StratifiedEstimate e = stratified_estimate(s);
  EXPECT_DOUBLE_EQ(e.est.p, 0.5 * 0.25);

  // Hit-bearing: priced by the Wilson half-width, W²·(half/z)².
  const double h0 = wilson(10, 40).ci95 / 1.96;
  double var = 0.25 * h0 * h0;
  // Zero pool of one member: skew = 1, exact Clopper–Pearson 97.5% upper
  // bound for 0 hits in 20 trials.
  const double pup = 1.0 - std::pow(0.025, 1.0 / 20.0);
  var += (0.3 * pup / 1.96) * (0.3 * pup / 1.96);
  // Unpiloted: maximally honest W²/4.
  var += 0.04 * 0.25;
  EXPECT_NEAR(e.est.ci95, 1.96 * std::sqrt(var), 1e-12);
  EXPECT_EQ(e.est.hits, 10u);
  EXPECT_EQ(e.est.n, 60u);
}

TEST(EstimatorStats, ZeroPoolSkewHandComputed) {
  // Two dead strata with weight proportions 3:1 but equal trials: the
  // heavier member is over-represented in weight by 1.5x relative to its
  // trial share, so skew = (0.3/0.4)/(10/20) = 1.5.
  std::vector<StratumCounts> s(3);
  s[0] = {0.3, 0, 10};
  s[1] = {0.1, 0, 10};
  s[2] = {0.6, 5, 50};  // hit-bearing: not pooled

  const ZeroPool pool = zero_pool(s);
  EXPECT_DOUBLE_EQ(pool.weight, 0.4);
  EXPECT_EQ(pool.n, 20u);
  EXPECT_DOUBLE_EQ(pool.skew, 1.5);

  // Variance whose normal fold has half-width W_Z·skew·p_up at the exact
  // Clopper–Pearson 97.5% upper bound for 0 hits in 20 trials.
  const double pup = 1.0 - std::pow(0.025, 1.0 / 20.0);
  const double half = 0.4 * 1.5 * pup;
  EXPECT_NEAR(zero_pool_variance(pool), half * half / (1.96 * 1.96), 1e-15);
}

TEST(EstimatorStats, ConvergedStratumThreshold) {
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.target_ci = 0.01;

  StratumCounts s{0.5, 3, 100};
  // Never converged while under the pilot or with no target.
  EXPECT_FALSE(stratum_converged({0.5, 0, 3}, opt, 4));
  StratifiedOptions budget = opt;
  budget.target_ci = 0;
  EXPECT_FALSE(stratum_converged(s, budget, 4));

  // Threshold is weight·wilson_half ≤ target/(2√C), hand-checked both ways.
  const double half = wilson(3, 100).ci95;
  const double contrib = 0.5 * half;
  StratifiedOptions tight = opt;
  tight.target_ci = contrib * 2.0 * std::sqrt(4.0) * 0.99;
  EXPECT_FALSE(stratum_converged(s, tight, 4));
  StratifiedOptions loose = opt;
  loose.target_ci = contrib * 2.0 * std::sqrt(4.0) * 1.01;
  EXPECT_TRUE(stratum_converged(s, loose, 4));
}

// ---------------------------------------------------------------------------
// Allocator sanity against hand-computed optima.
// ---------------------------------------------------------------------------

TEST(EstimatorStats, PilotFillsInStratumOrder) {
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  std::vector<StratumCounts> s(3);
  s[0] = {0.2, 0, 0};
  s[1] = {0.3, 1, 2};
  s[2] = {0.5, 0, 4};  // pilot already met

  // Budget-truncated pilot fills strictly in stratum order.
  EXPECT_EQ(next_allocation(s, opt, 5),
            (std::vector<std::uint64_t>{4, 1, 0}));
  // Ample budget completes the pilot before any adaptation.
  EXPECT_EQ(next_allocation(s, opt, 1000),
            (std::vector<std::uint64_t>{4, 2, 0}));
  // Zero budget: done.
  EXPECT_TRUE(next_allocation(s, opt, 0).empty());
}

TEST(EstimatorStats, NeymanWeightDominance) {
  // Two hit-bearing strata, identical counts, weights 2:1. The marginal
  // gain W²·p̃(1-p̃)/n² is 4:1, so largest-remainder apportionment of a
  // 64-trial round gives quotas 51.2 and 12.8 — hand-computed plan {51,13}.
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0;
  std::vector<StratumCounts> s(2);
  s[0] = {0.6, 10, 20};
  s[1] = {0.3, 10, 20};
  EXPECT_EQ(next_allocation(s, opt, 1000),
            (std::vector<std::uint64_t>{51, 13}));
}

TEST(EstimatorStats, EqualScoresTieToLowerIndex) {
  // Identical strata, odd round: quotas 1.5 each, the remainder trial goes
  // to the lower index (stable largest-remainder tie-break).
  StratifiedOptions opt;
  opt.pilot = 2;
  opt.round = 3;
  opt.target_ci = 0;
  std::vector<StratumCounts> s(2);
  s[0] = {0.5, 5, 10};
  s[1] = {0.5, 5, 10};
  EXPECT_EQ(next_allocation(s, opt, 1000),
            (std::vector<std::uint64_t>{2, 1}));
}

TEST(EstimatorStats, NeymanStationaryPoint) {
  // At the Neyman allocation n_h ∝ W_h·σ_h the marginal gains equalize, so
  // the round splits ∝ n_h — the allocator holds the optimum it reached.
  // W·σ equal across strata here (0.4·σ(p̃≈.5) vs …), constructed so
  // scores match: W²v/n² equal with n ∝ W√v.
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 30;
  opt.target_ci = 0;
  std::vector<StratumCounts> s(2);
  s[0] = {0.4, 100, 200};  // p̃ ≈ 0.5, W√v ≈ 0.2  → n = 200
  s[1] = {0.4, 100, 200};
  const std::vector<std::uint64_t> plan = next_allocation(s, opt, 1000);
  EXPECT_EQ(plan[0] + plan[1], 30u);
  EXPECT_EQ(plan[0], 15u);
}

TEST(EstimatorStats, ZeroVarianceStrataGetOnlyPilotTrials) {
  // A live hot stratum plus tiny dead strata, with a reachable CI target:
  // the pooled dead strata retire right after the pilot (their collective
  // bound is already negligible against target/(2√C)), so the entire
  // adaptive budget goes to the hot stratum. Hand-check: pool W_Z = 0.004,
  // n_Z = 8, skew = (0.003/0.004)/(4/8) = 1.5, p_up(8) = 1-0.025^(1/8)
  // ≈ 0.369 ⇒ half = 0.004·1.5·0.369 ≈ 0.0022 < 0.01/(2√2) ≈ 0.0035.
  const std::vector<SyntheticStratum> pop = {
      {0.996, 0.5}, {0.003, 0.0}, {0.001, 0.0}};
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0.01;

  const std::vector<StratumCounts> s = simulate(pop, opt, 100000, 17);
  EXPECT_EQ(s[1].n, opt.pilot);
  EXPECT_EQ(s[2].n, opt.pilot);
  EXPECT_GT(s[0].n, 1000u);  // the hot stratum took every adaptive round
  EXPECT_LE(stratified_estimate(s).est.ci95, opt.target_ci);
}

TEST(EstimatorStats, AllComponentsRetiredStops) {
  // Every component under its per-component share ⇒ empty plan, and the
  // campaign-level convergence stop has necessarily fired first (the √C
  // scaling makes "all retired but not converged" impossible).
  StratifiedOptions opt;
  opt.pilot = 4;
  opt.round = 64;
  opt.target_ci = 0.2;
  std::vector<StratumCounts> s(2);
  s[0] = {0.5, 50, 1000};
  s[1] = {0.5, 50, 1000};
  ASSERT_LE(stratified_estimate(s).est.ci95, opt.target_ci);
  EXPECT_TRUE(next_allocation(s, opt, 1000).empty());
}

// ---------------------------------------------------------------------------
// Regression lock: uniform sampling is byte-for-byte the seed semantics.
// ---------------------------------------------------------------------------

dnn::NetworkSpec tiny_spec() {
  return SpecBuilder("tiny", chw(2, 8, 8), 4)
      .conv(3, 3, 1, 1).relu().maxpool(2, 2)
      .conv(4, 3, 1, 1).relu().maxpool(2, 2)
      .fc(4).softmax()
      .build();
}

dnn::WeightsBlob tiny_blob() {
  dnn::Network<float> net(tiny_spec());
  dnn::init_weights(net, 1);
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

TEST(EstimatorStats, UniformSamplerIsSeedSemantics) {
  const Campaign c(tiny_spec(), tiny_blob(), DType::kFloat16, tiny_inputs(2));

  CampaignOptions plain;
  plain.trials = 48;
  plain.seed = 5;

  // Explicit kUniform with every stratified knob perturbed: same identity,
  // same fingerprint, same shard bytes. The stratified axis must be
  // invisible unless selected.
  CampaignOptions uniform = plain;
  uniform.sampler = SamplerMode::kUniform;
  uniform.stratified.pilot = 9;
  uniform.stratified.round = 17;
  uniform.stratified.target_ci = 0.123;

  EXPECT_EQ(sampler_id(plain), "uniform");
  EXPECT_EQ(sampler_id(uniform), "uniform");
  EXPECT_EQ(c.fingerprint(plain), c.fingerprint(uniform));

  const ShardResult a = c.run_shard(plain, {});
  const ShardResult b = c.run_shard(uniform, {});
  EXPECT_EQ(a.acc.bytes(), b.acc.bytes());
  EXPECT_EQ(a.masked_exits, b.masked_exits);

  // Both spell the same identity in their stats: a `sampler uniform` line
  // and no stratified section.
  EXPECT_EQ(campaign_axes(plain).sampler, "uniform");
  EXPECT_EQ(campaign_axes(uniform).sampler, "uniform");
  std::ostringstream os;
  write_stats(os, c.fingerprint(plain), a.acc, a.masked_exits, {},
              campaign_axes(uniform));
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("dnnfi-campaign-stats v6\n", 0), 0u);
  EXPECT_NE(text.find("\nsampler uniform\n"), std::string::npos);
  EXPECT_EQ(text.find("strata"), std::string::npos);
}

TEST(EstimatorStats, StratifiedSamplerIdIsCanonical) {
  CampaignOptions opt;
  opt.sampler = SamplerMode::kStratified;
  EXPECT_EQ(sampler_id(opt), "stratified(pilot=4,round=256,ci=0.005)");
  opt.stratified.pilot = 8;
  opt.stratified.round = 128;
  opt.stratified.target_ci = 0.0005;
  EXPECT_EQ(sampler_id(opt), "stratified(pilot=8,round=128,ci=0.0005)");
}

}  // namespace
}  // namespace dnnfi::fault
