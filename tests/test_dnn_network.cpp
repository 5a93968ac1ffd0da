// Network assembly, golden activation caches, fault-aware partial
// re-execution, predictions, the model zoo topologies, and serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "dnnfi/common/rng.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/serialize.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"
#include "temp_path.h"

namespace dnnfi::dnn {
namespace {

using numeric::Fx16r10;
using numeric::Half;
using tensor::chw;
using tensor::Tensor;

NetworkSpec tiny_spec() {
  return SpecBuilder("tiny", chw(1, 8, 8), 4)
      .conv(2, 3, 1, 1).relu().maxpool(2, 2)
      .fc(4).softmax()
      .build();
}

Tensor<float> random_image(tensor::Shape s, std::uint64_t seed) {
  Tensor<float> t(s);
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal() * 0.5);
  return t;
}

WeightsBlob random_blob(const NetworkSpec& spec, std::uint64_t seed) {
  Network<float> net(spec);
  init_weights(net, seed);
  return extract_weights(net);
}

/// Faulty forward pass replayed from `golden` with no early exit: every
/// layer from the fault layer on re-executes. Returns the final output.
template <typename T>
Tensor<T> faulty_forward(const Network<T>& net,
                         const ActivationCache<T>& golden,
                         const AppliedFault& f, InjectionRecord* rec = nullptr,
                         const LayerObserver<T>* observer = nullptr) {
  Workspace<T> ws(net.plan());
  RunRequest<T> req;
  req.cache = &golden;
  req.fault = &f;
  req.record = rec;
  req.observer = observer;
  Tensor<T> out;
  out.assign(Executor<T>(net.plan()).run(ws, req));
  return out;
}

TEST(Network, BuildsAndValidatesShapes) {
  Network<float> net(tiny_spec());
  EXPECT_EQ(net.num_layers(), 5U);
  EXPECT_EQ(net.mac_layers().size(), 2U);
  EXPECT_EQ(net.num_classes(), 4U);
  EXPECT_TRUE(net.has_softmax());
}

TEST(Network, RejectsInconsistentClassCount) {
  NetworkSpec bad = tiny_spec();
  bad.num_classes = 7;  // fc outputs 4
  EXPECT_THROW(Network<float>{bad}, ContractViolation);
}

TEST(Network, ForwardMatchesTrace) {
  const auto spec = tiny_spec();
  Network<float> net(spec);
  init_weights(net, 3);
  const auto img = random_image(spec.input, 4);
  const auto out = net.forward(img);
  const ActivationCache<float> cache(net.plan(), img);
  ASSERT_EQ(cache.num_layers(), net.num_layers());
  ASSERT_EQ(out.size(), cache.output().size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], cache.output()[i]);
}

TEST(Network, TotalMacsMatchesManualCount) {
  Network<float> net(tiny_spec());
  // conv: 2*8*8 outputs x (1*3*3) steps; fc: 32 inputs x 4 outputs.
  EXPECT_EQ(net.total_macs(), 2U * 64U * 9U + 2U * 4U * 4U * 4U);
  EXPECT_EQ(net.total_weights(), 2U * 9U + 32U * 4U);
}

TEST(Network, FaultFreeFaultPathIsIdentity) {
  // A faulty replay with a zero-effect fault (flip applied twice via two
  // trials is not possible; instead flip a bit and flip it back by running
  // the golden reference): here we check the machinery by applying a MAC
  // fault and verifying only downstream layers differ from golden.
  const auto spec = tiny_spec();
  Network<Half> net(spec);
  const auto blob = random_blob(spec, 5);
  load_weights(net, blob);
  const auto img = tensor::convert<Half>(random_image(spec.input, 6));
  const ActivationCache<Half> golden(net.plan(), img);

  AppliedFault f;
  f.layer = net.mac_layers()[0];
  MacFault mf;
  mf.out_index = 3;
  mf.step = 2;
  mf.site = MacSite::kAccumulator;
  mf.op = fault::FaultOp::flip(14);  // high exponent bit of binary16
  f.faults.mac = mf;

  InjectionRecord rec;
  const auto out = faulty_forward(net, golden, f, &rec);
  EXPECT_TRUE(rec.applied);
  // The final output differs from golden in at least one element (bit 14
  // flips make huge values that survive ReLU or softmax reweighting).
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (!(out[i] == golden.output()[i])) ++diffs;
  EXPECT_GT(diffs, 0U);
}

TEST(Network, GlobalBufferFaultEqualsFullForwardOnFlippedInput) {
  const auto spec = tiny_spec();
  Network<float> net(spec);
  const auto blob = random_blob(spec, 7);
  load_weights(net, blob);
  const auto img = random_image(spec.input, 8);
  const ActivationCache<float> golden(net.plan(), img);

  // Fault: flip bit 25 of input element 10 of the FC layer (layer input =
  // maxpool output).
  const std::size_t fc_layer = net.mac_layers()[1];
  AppliedFault f;
  f.layer = fc_layer;
  f.flip_layer_input = true;
  f.input_index = 10;
  f.input_op = fault::FaultOp::flip(25);
  const auto fast = faulty_forward(net, golden, f);

  // Reference: full forward with the same flip applied at that point.
  Tensor<float> a = img, b;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    if (i == fc_layer) a[10] = numeric::flip_bit(a[10], 25);
    net.layer(i).forward(a, b);
    std::swap(a, b);
  }
  ASSERT_EQ(fast.size(), a.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_EQ(numeric::numeric_traits<float>::to_bits(fast[i]),
              numeric::numeric_traits<float>::to_bits(a[i]));
}

TEST(Network, ObserverSeesAllLayersFromFaultOnward) {
  const auto spec = tiny_spec();
  Network<float> net(spec);
  load_weights(net, random_blob(spec, 9));
  const auto img = random_image(spec.input, 10);
  const ActivationCache<float> golden(net.plan(), img);
  AppliedFault f;
  f.layer = 0;
  f.faults.mac = MacFault{0, 0, MacSite::kProduct, fault::FaultOp::flip(30)};
  std::vector<std::size_t> seen;
  const LayerObserver<float> obs =
      [&](std::size_t layer, tensor::ConstTensorView<float>) {
        seen.push_back(layer);
      };
  (void)faulty_forward(net, golden, f, nullptr, &obs);
  ASSERT_EQ(seen.size(), net.num_layers());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(Prediction, RankingAndTies) {
  Prediction p;
  p.scores = {0.1, 0.5, 0.2, 0.5};
  EXPECT_EQ(p.top1(), 1U);  // first max wins deterministic tie-break
  const auto top3 = p.topk(3);
  ASSERT_EQ(top3.size(), 3U);
  EXPECT_EQ(top3[0], 1U);
  EXPECT_EQ(top3[1], 3U);
  EXPECT_EQ(top3[2], 2U);
  EXPECT_DOUBLE_EQ(p.top1_score(), 0.5);
}

TEST(Prediction, TopkClampsToSize) {
  Prediction p;
  p.scores = {1.0, 2.0};
  EXPECT_EQ(p.topk(5).size(), 2U);
}

TEST(Zoo, AllSpecsBuildInEveryDType) {
  for (const auto id : zoo::kAllNetworks) {
    const auto spec = zoo::network_spec(id);
    EXPECT_FALSE(spec.layers.empty());
    // Instantiate in representative dtypes; construction validates shapes.
    EXPECT_NO_THROW(Network<float>{spec});
    EXPECT_NO_THROW(Network<Half>{spec});
    EXPECT_NO_THROW(Network<Fx16r10>{spec});
  }
}

TEST(Zoo, TopologiesMatchPaperTable2) {
  const auto count_kind = [](const NetworkSpec& s, LayerKind k) {
    std::size_t n = 0;
    for (const auto& l : s.layers) n += (l.kind == k) ? 1 : 0;
    return n;
  };
  const auto convnet = zoo::network_spec(zoo::NetworkId::kConvNet);
  EXPECT_EQ(count_kind(convnet, LayerKind::kConv), 3U);
  EXPECT_EQ(count_kind(convnet, LayerKind::kFullyConnected), 2U);
  EXPECT_EQ(count_kind(convnet, LayerKind::kLrn), 0U);
  EXPECT_TRUE(convnet.has_softmax());
  EXPECT_EQ(convnet.num_blocks(), 5);

  const auto alex = zoo::network_spec(zoo::NetworkId::kAlexNetS);
  EXPECT_EQ(count_kind(alex, LayerKind::kConv), 5U);
  EXPECT_EQ(count_kind(alex, LayerKind::kFullyConnected), 3U);
  EXPECT_EQ(count_kind(alex, LayerKind::kLrn), 2U);
  EXPECT_TRUE(alex.has_softmax());
  EXPECT_EQ(alex.num_blocks(), 8);

  const auto caffe = zoo::network_spec(zoo::NetworkId::kCaffeNetS);
  EXPECT_EQ(count_kind(caffe, LayerKind::kConv), 5U);
  EXPECT_EQ(count_kind(caffe, LayerKind::kLrn), 2U);

  const auto nin = zoo::network_spec(zoo::NetworkId::kNiNS);
  EXPECT_EQ(count_kind(nin, LayerKind::kConv), 12U);
  EXPECT_EQ(count_kind(nin, LayerKind::kFullyConnected), 0U);
  EXPECT_FALSE(nin.has_softmax());
  EXPECT_EQ(nin.num_blocks(), 12);
}

TEST(Zoo, AlexAndCaffeDifferOnlyInPoolLrnOrder) {
  const auto alex = zoo::network_spec(zoo::NetworkId::kAlexNetS);
  const auto caffe = zoo::network_spec(zoo::NetworkId::kCaffeNetS);
  ASSERT_EQ(alex.layers.size(), caffe.layers.size());
  // AlexNet: ...relu, lrn, pool...; CaffeNet: ...relu, pool, lrn...
  auto kind_seq = [](const NetworkSpec& s) {
    std::vector<LayerKind> kinds;
    for (const auto& l : s.layers) kinds.push_back(l.kind);
    return kinds;
  };
  const auto ka = kind_seq(alex);
  const auto kc = kind_seq(caffe);
  EXPECT_NE(ka, kc);
  // Same multiset of kinds.
  auto sa = ka;
  auto sc = kc;
  std::sort(sa.begin(), sa.end());
  std::sort(sc.begin(), sc.end());
  EXPECT_EQ(sa, sc);
}

TEST(Zoo, ModelFilenames) {
  EXPECT_EQ(zoo::model_filename(zoo::NetworkId::kConvNet), "convnet.dnnfi");
  EXPECT_EQ(zoo::model_filename(zoo::NetworkId::kAlexNetS), "alexnets.dnnfi");
}

TEST(Serialize, RoundTripsSpecAndWeights) {
  const auto spec = tiny_spec();
  const auto blob = random_blob(spec, 11);
  const std::string path =
      testutil::temp_path("dnnfi_test_model.dnnfi").string();
  save_model(path, spec, blob);
  EXPECT_TRUE(is_model_file(path));
  const Model m = load_model(path);
  EXPECT_EQ(m.spec, spec);
  ASSERT_EQ(m.blob.layers.size(), blob.layers.size());
  for (std::size_t i = 0; i < blob.layers.size(); ++i) {
    EXPECT_EQ(m.blob.layers[i].weights, blob.layers[i].weights);
    EXPECT_EQ(m.blob.layers[i].biases, blob.layers[i].biases);
  }
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path =
      testutil::temp_path("dnnfi_garbage.bin").string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a model";
  }
  EXPECT_FALSE(is_model_file(path));
  EXPECT_THROW(load_model(path), std::runtime_error);
  EXPECT_THROW(load_model("/nonexistent/nowhere.dnnfi"), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Weights, QuantizedLoadMatchesConversion) {
  const auto spec = tiny_spec();
  const auto blob = random_blob(spec, 13);
  Network<Fx16r10> net(spec);
  load_weights(net, blob);
  const auto& layer = net.layer(net.mac_layers()[0]);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(layer.weights()[i].raw(),
              Fx16r10(static_cast<double>(blob.layers[0].weights[i])).raw());
  }
}

TEST(Weights, SizeMismatchThrows) {
  const auto spec = tiny_spec();
  auto blob = random_blob(spec, 15);
  blob.layers[0].weights.pop_back();
  Network<float> net(spec);
  EXPECT_THROW(load_weights(net, blob), ContractViolation);
}

}  // namespace
}  // namespace dnnfi::dnn
