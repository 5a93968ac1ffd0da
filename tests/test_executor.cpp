// Compiled-plan engine: bit-exact equivalence of Executor<T> and
// ActivationCache<T> against the legacy layer-by-layer execution semantics
// (plain, per-layer golden activations, and fault-patched partial
// re-execution, with and without masked early exit) for every datapath
// type, plus workspace-reuse hygiene across many consecutive faulty runs.
//
// The references here are hand-rolled per-layer Tensor loops — the exact
// semantics Network<T>::forward had before it delegated to the executor —
// so the equivalence claim does not depend on the engine under test.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"

namespace dnnfi::dnn {
namespace {

using tensor::Tensor;

NetworkSpec convnet_spec() { return zoo::network_spec(zoo::NetworkId::kConvNet); }

WeightsBlob random_blob(const NetworkSpec& spec, std::uint64_t seed) {
  Network<float> net(spec);
  init_weights(net, seed);
  return extract_weights(net);
}

template <typename T>
Tensor<T> random_image(const tensor::Shape& s, std::uint64_t seed) {
  Tensor<float> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal() * 0.5);
  return tensor::convert<T>(t);
}

/// Legacy plain forward: fresh ping-pong Tensors through the compat layer API.
template <typename T>
Tensor<T> legacy_forward(const Network<T>& net, const Tensor<T>& input) {
  Tensor<T> a = input, b;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    net.layer(i).forward(a, b);
    std::swap(a, b);
  }
  return a;
}

/// Reference golden activations: the network input and every layer's
/// output, each in its own owning tensor.
template <typename T>
struct LayerOutputs {
  Tensor<T> input;
  std::vector<Tensor<T>> acts;

  const Tensor<T>& layer_input(std::size_t layer) const {
    return layer == 0 ? input : acts[layer - 1];
  }
};

/// Legacy trace: every layer output materialized into owning tensors.
template <typename T>
LayerOutputs<T> legacy_trace(const Network<T>& net, const Tensor<T>& input) {
  LayerOutputs<T> tr;
  tr.input = input;
  tr.acts.resize(net.num_layers());
  const Tensor<T>* cur = &tr.input;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    net.layer(i).forward(*cur, tr.acts[i]);
    cur = &tr.acts[i];
  }
  return tr;
}

/// Legacy faulty run: patch (or recompute on flipped input) at the fault
/// layer, then fresh-Tensor forward through the rest.
template <typename T>
Tensor<T> legacy_fault(const Network<T>& net, const LayerOutputs<T>& golden,
                       const AppliedFault& f) {
  Tensor<T> a, b;
  if (f.flip_layer_input) {
    Tensor<T> in = golden.layer_input(f.layer);
    in[f.input_index] =
        detail::storage_apply(in[f.input_index], f.input_op, f.input_storage);
    net.layer(f.layer).forward(in, a);
  } else {
    a = golden.acts[f.layer];
    net.layer(f.layer).apply_faults(golden.layer_input(f.layer), a, f.faults,
                                    nullptr);
  }
  for (std::size_t i = f.layer + 1; i < net.num_layers(); ++i) {
    net.layer(i).forward(a, b);
    std::swap(a, b);
  }
  return a;
}

template <typename T>
void expect_bits_equal(tensor::ConstTensorView<T> got, const Tensor<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(numeric::numeric_traits<T>::to_bits(got[i]),
              numeric::numeric_traits<T>::to_bits(want[i]))
        << "element " << i;
}

constexpr MacSite kMacSites[] = {MacSite::kOperandAct, MacSite::kOperandWeight,
                                 MacSite::kProduct, MacSite::kAccumulator};

/// Deterministic fault of class (trial % 4) targeting MAC layer
/// (trial % mac count), with indices derived from the trial number.
template <typename T>
AppliedFault nth_fault(const Network<T>& net, std::size_t trial) {
  const auto& macs = net.mac_layers();
  const std::size_t layer = macs[trial % macs.size()];
  const auto& step = net.plan().steps()[layer];
  const std::size_t out_elems = step.out_shape.size();
  const std::size_t mac_steps = step.macs / out_elems;
  const int bit = static_cast<int>(trial % 10);  // low bits valid for all T

  AppliedFault f;
  f.layer = layer;
  switch (trial % 4) {
    case 0: {
      MacFault mf;
      mf.out_index = trial % out_elems;
      mf.step = trial % mac_steps;
      mf.site = kMacSites[trial % std::size(kMacSites)];
      mf.op = fault::FaultOp::flip(bit);
      f.faults.mac = mf;
      break;
    }
    case 1: {
      WeightFault wf;
      wf.weight_index = (trial * 7) % net.layer(layer).weights().size();
      wf.op = fault::FaultOp::flip(bit);
      f.faults.weight = wf;
      break;
    }
    case 2: {
      ScopedInputFault sf;
      sf.input_index = (trial * 11) % step.in_shape.size();
      sf.out_channel = 0;
      sf.out_row = 0;
      sf.op = fault::FaultOp::flip(bit);
      f.faults.scoped_input = sf;
      break;
    }
    default: {
      f.flip_layer_input = true;
      f.input_index = (trial * 13) % step.in_shape.size();
      f.input_op = fault::FaultOp::flip(bit);
      break;
    }
  }
  return f;
}

template <typename T>
class ExecutorEquivalence : public ::testing::Test {};

using DatapathTypes =
    ::testing::Types<double, float, numeric::Half, numeric::Fx32r26,
                     numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(ExecutorEquivalence, DatapathTypes);

TYPED_TEST(ExecutorEquivalence, PlanResolvesShapesAndMacs) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  const ExecutionPlan<T>& plan = net.plan();
  ASSERT_EQ(plan.num_layers(), net.num_layers());
  EXPECT_EQ(plan.input_shape(), spec.input);
  EXPECT_EQ(plan.total_macs(), net.total_macs());
  tensor::Shape shape = spec.input;
  for (std::size_t i = 0; i < plan.num_layers(); ++i) {
    EXPECT_EQ(plan.steps()[i].in_shape, shape);
    shape = net.layer(i).out_shape(shape);
    EXPECT_EQ(plan.steps()[i].out_shape, shape);
    EXPECT_GE(plan.buffer_elems(), shape.size());
  }
  EXPECT_EQ(plan.output_shape().size(), spec.num_classes);
  EXPECT_EQ(plan.arena_elems(), 2 * plan.buffer_elems() + plan.input_elems() +
                                    plan.tile_elems() + plan.packed_elems());
}

TYPED_TEST(ExecutorEquivalence, PlainAndTracedMatchLegacy) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 21));
  const auto img = random_image<T>(spec.input, 22);

  const Tensor<T> want = legacy_forward(net, img);
  const LayerOutputs<T> want_trace = legacy_trace(net, img);

  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  RunRequest<T> req;
  req.input = img;
  expect_bits_equal<T>(exec.run(ws, req), want);

  const ActivationCache<T> cache(net.plan(), img);
  ASSERT_EQ(cache.num_layers(), want_trace.acts.size());
  expect_bits_equal<T>(cache.input(), want_trace.input);
  for (std::size_t i = 0; i < cache.num_layers(); ++i)
    expect_bits_equal<T>(cache.act(i), want_trace.acts[i]);
  expect_bits_equal<T>(cache.output(), want);
}

TYPED_TEST(ExecutorEquivalence, FaultyRunsMatchLegacyForAllFaultClasses) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 31));
  const auto img = random_image<T>(spec.input, 32);
  const LayerOutputs<T> golden = legacy_trace(net, img);
  const ActivationCache<T> cache(net.plan(), img);

  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  // Eight trials cover all four fault classes on different MAC layers;
  // each runs as a full replay and with masked early exit.
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const AppliedFault f = nth_fault(net, trial);
    const Tensor<T> want = legacy_fault(net, golden, f);
    for (const bool early_exit : {false, true}) {
      SCOPED_TRACE(early_exit ? "early exit" : "full replay");
      RunRequest<T> req;
      req.cache = &cache;
      req.fault = &f;
      req.early_exit = early_exit;
      expect_bits_equal<T>(exec.run(ws, req), want);
    }
  }
}

TYPED_TEST(ExecutorEquivalence, NetworkWrappersMatchLegacy) {
  using T = TypeParam;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 41));
  const auto img = random_image<T>(spec.input, 42);

  expect_bits_equal<T>(net.forward(img).view(), legacy_forward(net, img));
}

// A single workspace serving 100 consecutive faulty runs (mixed fault
// classes, mixed layers, two different inputs) must leave no stale data
// behind: every run is compared bit-for-bit against a fresh legacy run.
TEST(ExecutorWorkspaceReuse, HundredFaultyRunsNoStaleData) {
  using T = numeric::Half;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 51));
  const auto img0 = random_image<T>(spec.input, 52);
  const auto img1 = random_image<T>(spec.input, 53);
  const LayerOutputs<T> goldens[2] = {legacy_trace(net, img0),
                                      legacy_trace(net, img1)};
  const ActivationCache<T> caches[2] = {{net.plan(), img0},
                                        {net.plan(), img1}};

  const Executor<T> exec(net.plan());
  Workspace<T> ws;  // deliberately unsized: first run binds it
  for (std::size_t trial = 0; trial < 100; ++trial) {
    const AppliedFault f = nth_fault(net, trial);
    const Tensor<T> want = legacy_fault(net, goldens[trial % 2], f);
    for (const bool early_exit : {false, true}) {
      RunRequest<T> req;
      req.cache = &caches[trial % 2];
      req.fault = &f;
      req.early_exit = early_exit;
      const auto got = exec.run(ws, req);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(numeric::numeric_traits<T>::to_bits(got[i]),
                  numeric::numeric_traits<T>::to_bits(want[i]))
            << "trial " << trial << " early_exit " << early_exit
            << " element " << i;
    }
  }
}

// The observer surfaces every recomputed layer exactly once, in order,
// and its views must alias live arena contents (spot-check: the final
// observed view equals the returned output).
TEST(ExecutorObserver, SeesRecomputedLayersInOrder) {
  using T = float;
  const auto spec = convnet_spec();
  Network<T> net(spec);
  load_weights(net, random_blob(spec, 61));
  const auto img = random_image<T>(spec.input, 62);
  const ActivationCache<T> cache(net.plan(), img);

  const AppliedFault f = nth_fault(net, 5);  // second MAC layer, weight fault
  std::vector<std::size_t> seen;
  Tensor<T> last;
  const LayerObserver<T> observer =
      [&](std::size_t layer, tensor::ConstTensorView<T> act) {
        seen.push_back(layer);
        last.assign(act);
      };
  const Executor<T> exec(net.plan());
  Workspace<T> ws(net.plan());
  RunRequest<T> req;
  req.cache = &cache;
  req.fault = &f;
  req.observer = &observer;  // full replay: no early exit
  const auto out = exec.run(ws, req);

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front(), f.layer);
  EXPECT_EQ(seen.back(), net.num_layers() - 1);
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  expect_bits_equal<T>(out, last);
}

// ---------------------------------------------------------------------------
// Cone-limited replay against an independent oracle. The oracle patches the
// fault layer on whole tensors and then runs every later layer in full
// through run_range, comparing whole tensors for the early exit, so it
// shares no box arithmetic with the engine under test.
// ---------------------------------------------------------------------------

template <typename T>
struct OracleRun {
  Tensor<T> out;
  InjectionRecord rec;
  ReplayInfo info;
};

/// The oracle's full replay (`runs[0]`) and early-exit replay (`runs[1]`)
/// of one fault, from one whole-tensor pass: the early exit fires at the
/// first layer whose whole output equals the cache, and from there on
/// every layer reproduces the cache, so the full replay's output is the
/// cached one.
template <typename T>
std::array<OracleRun<T>, 2> oracle_fault(const ExecutionPlan<T>& plan,
                                         Workspace<T>& ws,
                                         const ActivationCache<T>& g,
                                         const AppliedFault& f) {
  const auto& steps = plan.steps();
  const Executor<T> exec(plan);
  InjectionRecord rec;
  Tensor<T> cur(steps[f.layer].out_shape);
  if (f.flip_layer_input) {
    Tensor<T> in;
    in.assign(g.layer_input(f.layer));
    const T before = in[f.input_index];
    const T after = detail::storage_apply(before, f.input_op, f.input_storage);
    in[f.input_index] = after;
    rec.corrupted_before = detail::to_d(before);
    rec.corrupted_after = detail::to_d(after);
    rec.zero_to_one =
        detail::storage_apply_dir(before, f.input_op, f.input_storage);
    rec.applied = true;
    RunRequest<T> req;
    req.input = in;
    cur.assign(exec.run_range(ws, f.layer, f.layer + 1, req));
  } else {
    cur.assign(g.act(f.layer));
    steps[f.layer].layer->apply_faults(g.layer_input(f.layer), cur.view(),
                                       f.faults, &rec);
  }
  std::optional<std::size_t> first_match;
  for (std::size_t i = f.layer; !first_match; ++i) {
    if (tensor::bitwise_equal<T>(cur.view(), g.act(i))) {
      first_match = i;
      cur.assign(g.output());
    } else if (i + 1 == steps.size()) {
      break;
    } else {
      RunRequest<T> req;
      req.input = cur.view();
      Tensor<T> next;
      next.assign(exec.run_range(ws, i + 1, i + 2, req));
      cur = std::move(next);
    }
  }
  std::array<OracleRun<T>, 2> runs;
  for (OracleRun<T>& r : runs) {
    r.out = cur;
    r.rec = rec;
    r.info.fault_layer = f.layer;
    r.info.layers_run = steps.size() - f.layer;
  }
  if (first_match) {
    ReplayInfo& info = runs[1].info;
    info.masked = true;
    info.masked_at = *first_match;
    info.layers_run = *first_match - f.layer + 1;
  }
  return runs;
}

/// Every fault class on MAC layer `layer`: the four MAC latch sites, a
/// weight, a scoped input, a systolic column and a global-buffer word, with
/// indices and bits (low mantissa to exponent/sign) derived from `salt`.
template <typename T>
std::vector<AppliedFault> every_fault_class(const Network<T>& net,
                                            std::size_t layer,
                                            std::size_t salt) {
  const auto& st = net.plan().steps()[layer];
  const std::size_t outs = st.out_shape.size();
  const std::size_t steps = st.macs / outs;
  const std::size_t plane = st.out_shape.h * st.out_shape.w;
  Rng rng(salt);
  const auto next = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  const auto op = [&] {
    return fault::FaultOp::flip(
        static_cast<int>(next(numeric::numeric_traits<T>::width)));
  };
  std::vector<AppliedFault> out;
  for (const MacSite site : kMacSites) {
    AppliedFault f;
    f.layer = layer;
    f.faults.mac = MacFault{next(outs), next(steps), site, op()};
    out.push_back(f);
  }
  {
    AppliedFault f;
    f.layer = layer;
    WeightFault wf;
    wf.weight_index = next(net.layer(layer).weights().size());
    wf.op = op();
    f.faults.weight = wf;
    out.push_back(f);
  }
  {
    AppliedFault f;
    f.layer = layer;
    ScopedInputFault sf;
    sf.input_index = next(st.in_shape.size());
    // FC outputs are 1 x 1 x out: the "channel" is the output index.
    sf.out_channel = next(st.kernel == StepKernel::kFc ? outs : st.out_shape.c);
    sf.out_row = next(st.out_shape.h);
    sf.op = op();
    f.faults.scoped_input = sf;
    out.push_back(f);
  }
  {
    AppliedFault f;
    f.layer = layer;
    ColumnFault cf;
    cf.cols = 4;
    cf.first_out = next(outs);
    cf.col = st.kernel == StepKernel::kFc ? cf.first_out % cf.cols
                                          : (cf.first_out / plane) % cf.cols;
    cf.step = next(steps);
    cf.op = op();
    f.faults.column = cf;
    out.push_back(f);
  }
  {
    AppliedFault f;
    f.layer = layer;
    f.flip_layer_input = true;
    f.input_index = next(st.in_shape.size());
    f.input_op = op();
    out.push_back(f);
  }
  return out;
}

void expect_record_equal(const InjectionRecord& got,
                         const InjectionRecord& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.corrupted_before), bits(want.corrupted_before));
  EXPECT_EQ(bits(got.corrupted_after), bits(want.corrupted_after));
  EXPECT_EQ(bits(got.act_before), bits(want.act_before));
  EXPECT_EQ(bits(got.act_after), bits(want.act_after));
  EXPECT_EQ(got.zero_to_one, want.zero_to_one);
  EXPECT_EQ(got.applied, want.applied);
}

/// Cone replay of network `id` against the oracle, under every kernel set
/// registered for T, with and without early exit: output, InjectionRecord
/// and ReplayInfo must be equal. MAC layer j takes fault classes j % 4 (a
/// MAC site) and j % 4 + 4 (weight, scoped input, column, global buffer),
/// so every four consecutive MAC layers cover all eight; the full
/// layer-by-class product takes minutes on the scalar FLOAT16 set in a
/// sanitizer build.
template <typename T>
void expect_cone_matches_oracle(zoo::NetworkId id) {
  struct RestoreMode {
    std::string mode = kernels::kernel_profile().mode;
    ~RestoreMode() { kernels::set_active_mode(mode); }
  } restore;
  const auto spec = zoo::network_spec(id);
  for (const char* set : kernels::registered_names<T>()) {
    ASSERT_TRUE(kernels::set_active_mode(set));
    Network<T> net(spec);  // the plan captures `set`
    ASSERT_STREQ(net.plan().kernel_set().name, set);
    load_weights(net, random_blob(spec, 71));
    const auto img = random_image<T>(spec.input, 72);
    const ActivationCache<T> cache(net.plan(), img);
    const Executor<T> exec(net.plan());
    Workspace<T> ws(net.plan()), oracle_ws(net.plan());
    for (std::size_t j = 0; j < net.mac_layers().size(); ++j) {
      const std::size_t layer = net.mac_layers()[j];
      const auto faults = every_fault_class(net, layer, j + 1);
      for (const std::size_t c : {j % 4, j % 4 + 4}) {
        const AppliedFault& f = faults[c];
        const auto oracle = oracle_fault(net.plan(), oracle_ws, cache, f);
        for (const bool early_exit : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << set << " layer " << layer << " fault class " << c
                       << " early_exit " << early_exit);
          const OracleRun<T>& want = oracle[early_exit ? 1 : 0];
          InjectionRecord rec;
          ReplayInfo info;
          RunRequest<T> req;
          req.cache = &cache;
          req.fault = &f;
          req.record = &rec;
          req.early_exit = early_exit;
          req.replay = &info;
          expect_bits_equal<T>(exec.run(ws, req), want.out);
          expect_record_equal(rec, want.rec);
          EXPECT_EQ(info.fault_layer, want.info.fault_layer);
          EXPECT_EQ(info.layers_run, want.info.layers_run);
          EXPECT_EQ(info.masked, want.info.masked);
          EXPECT_EQ(info.masked_at, want.info.masked_at);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

template <typename T>
class ConeReplayOracle : public ::testing::Test {};
TYPED_TEST_SUITE(ConeReplayOracle, DatapathTypes);

// LRN before pool.
TYPED_TEST(ConeReplayOracle, AlexNetS) {
  expect_cone_matches_oracle<TypeParam>(zoo::NetworkId::kAlexNetS);
}
// Pool before LRN.
TYPED_TEST(ConeReplayOracle, CaffeNetS) {
  expect_cone_matches_oracle<TypeParam>(zoo::NetworkId::kCaffeNetS);
}
// 1x1 convs and a global average pool.
TYPED_TEST(ConeReplayOracle, NiNS) {
  expect_cone_matches_oracle<TypeParam>(zoo::NetworkId::kNiNS);
}
TYPED_TEST(ConeReplayOracle, ConvNet) {
  expect_cone_matches_oracle<TypeParam>(zoo::NetworkId::kConvNet);
}

// ---------------------------------------------------------------------------
// Box rules, brute force: raise each input element of a one-step network in
// turn, run the step in full before and after, and require every output
// that changed to lie inside out_box of that one element (too large is
// allowed, too small is not). exec_step_box must also reproduce the full
// step on the raised input bit-for-bit.
// ---------------------------------------------------------------------------

/// A network whose step 0 is the step under test; a trailing FC head
/// satisfies the spec's two-class count.
NetworkSpec one_step(SpecBuilder b) { return b.fc(2).build(); }

void check_box_rule(const NetworkSpec& spec) {
  SCOPED_TRACE(spec.name);
  Network<float> net(spec);
  init_weights(net, 81);
  const ExecutionPlan<float>& plan = net.plan();
  Workspace<float> ws(plan);
  const auto& st = plan.steps()[0];
  const Tensor<float> in = random_image<float>(st.in_shape, 82);
  Tensor<float> want(st.out_shape), got(st.out_shape), base(st.out_shape);
  plan.exec_step(0, in.view(), base.view(), ws.packed_data());
  std::size_t partial = 0;  // elements whose box is not the whole output
  for (std::size_t e = 0; e < in.size(); ++e) {
    Tensor<float> raised = in;
    raised[e] += 50.0f;
    plan.exec_step(0, raised.view(), want.view(), ws.packed_data());
    const Box box = plan.out_box(0, Box::element(st.in_shape, e));
    if (!box.covers(st.out_shape)) ++partial;
    for (std::size_t c = 0; c < st.out_shape.c; ++c)
      for (std::size_t y = 0; y < st.out_shape.h; ++y)
        for (std::size_t x = 0; x < st.out_shape.w; ++x) {
          const std::size_t o = st.out_shape.index(0, c, y, x);
          const bool inside = c >= box.c0 && c < box.c1 && y >= box.y0 &&
                              y < box.y1 && x >= box.x0 && x < box.x1;
          if (want[o] != base[o]) {
            ASSERT_TRUE(inside) << "input " << e << " changed output (" << c
                                << ", " << y << ", " << x << ") outside box ["
                                << box.c0 << "," << box.c1 << ")x[" << box.y0
                                << "," << box.y1 << ")x[" << box.x0 << ","
                                << box.x1 << ")";
          }
        }
    const Box wrote =
        plan.exec_step_box(0, raised.view(), Box::element(st.in_shape, e),
                           got.view(), base.view(), ws.packed_data(),
                           ws.tile_data());
    EXPECT_EQ(wrote, box);
    expect_bits_equal<float>(got.view(), want);
  }
  EXPECT_GT(partial, 0U) << "every box is the whole output";
}

using tensor::chw;

TEST(ConeReplayBoxRules, ConvK5S2P2AllBorders) {
  check_box_rule(
      one_step(SpecBuilder("k5s2p2", chw(2, 9, 9), 2).conv(3, 5, 2, 2)));
  check_box_rule(
      one_step(SpecBuilder("k5s2p2-even", chw(2, 10, 8), 2).conv(17, 5, 2, 2)));
}

TEST(ConeReplayBoxRules, ConvK3S1P1) {
  check_box_rule(
      one_step(SpecBuilder("k3s1p1", chw(3, 7, 6), 2).conv(18, 3, 1, 1)));
}

TEST(ConeReplayBoxRules, Conv1x1) {
  check_box_rule(one_step(SpecBuilder("1x1", chw(4, 5, 5), 2).conv(3, 1)));
  check_box_rule(
      one_step(SpecBuilder("1x1-s2", chw(4, 5, 5), 2).conv(3, 1, 2)));
}

TEST(ConeReplayBoxRules, MaxPoolK3S2Overlapping) {
  check_box_rule(one_step(SpecBuilder("k3s2", chw(3, 9, 10), 2).maxpool(3, 2)));
  check_box_rule(one_step(SpecBuilder("k2s2", chw(2, 7, 7), 2).maxpool(2, 2)));
}

TEST(ConeReplayBoxRules, LrnChannelEdges) {
  check_box_rule(one_step(SpecBuilder("lrn5", chw(7, 3, 4), 2).lrn(5, 0.1)));
  check_box_rule(one_step(SpecBuilder("lrn3", chw(2, 5, 3), 2).lrn(3, 0.1)));
}

TEST(ConeReplayBoxRules, Relu) {
  check_box_rule(one_step(SpecBuilder("relu", chw(3, 4, 5), 2).relu()));
}

}  // namespace
}  // namespace dnnfi::dnn
