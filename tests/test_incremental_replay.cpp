// Incremental fault replay, locked down: seeding trials from the per-input
// ActivationCache and early-exiting when a replayed layer matches the cache
// bit-for-bit is purely a speed optimization — every TrialRecord a campaign
// streams out is byte-identical to the full-replay run, across dtypes,
// injection depths, thread counts, and site classes (DESIGN.md §8).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dnnfi/accel/dataflow.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/mitigate/sed.h"
#include "temp_path.h"

namespace dnnfi::fault {
namespace {

using dnn::SpecBuilder;
using numeric::DType;
using tensor::chw;
using tensor::Tensor;

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

Campaign tiny_campaign(DType dt) {
  return Campaign(tiny_spec(), tiny_blob(), dt, tiny_inputs(3));
}

CampaignOptions base_options() {
  CampaignOptions opt;
  opt.trials = 96;
  opt.seed = 77;
  opt.record_block_distances = true;
  // A live detector so `detected` is part of the compared state too.
  opt.detector = [](int, double v) { return v > 40.0 || v < -40.0; };
  return opt;
}

/// Byte-exact encoding of everything a trial produced (the same encoding
/// the sharding-determinism suite uses).
void record_bytes(ByteWriter& w, std::uint64_t trial, const TrialRecord& t) {
  w.u64(trial);
  w.u32(static_cast<std::uint32_t>(t.fault.cls));
  w.u32(static_cast<std::uint32_t>(t.fault.latch));
  w.u64(t.fault.mac_ordinal);
  w.u64(t.fault.layer_index);
  w.u32(static_cast<std::uint32_t>(t.fault.block));
  w.u64(t.fault.element);
  w.u64(t.fault.step);
  w.u64(t.fault.out_channel);
  w.u64(t.fault.out_row);
  w.u32(static_cast<std::uint32_t>(t.fault.bit));
  w.u64(t.fault.op.set0);
  w.u64(t.fault.op.set1);
  w.u64(t.fault.op.toggle);
  w.u8(t.outcome.sdc1 ? 1 : 0);
  w.u8(t.outcome.sdc5 ? 1 : 0);
  w.u8(t.outcome.sdc10 ? 1 : 0);
  w.u8(t.outcome.sdc20 ? 1 : 0);
  w.f64(t.record.corrupted_before);
  w.f64(t.record.corrupted_after);
  w.f64(t.record.act_before);
  w.f64(t.record.act_after);
  w.u8(t.record.zero_to_one ? 1 : 0);
  w.u8(t.record.applied ? 1 : 0);
  w.u64(t.input_index);
  w.u8(t.detected ? 1 : 0);
  w.f64(t.output_corruption);
  w.u64(t.block_distance.size());
  for (const double d : t.block_distance) w.f64(d);
}

struct ShardCapture {
  std::vector<std::uint8_t> records;
  ShardResult result;
};

ShardCapture capture(const Campaign& c, const CampaignOptions& opt,
                     ShardSpec shard = {}) {
  ShardCapture cap;
  ByteWriter w;
  const TrialSink sink = [&w](std::uint64_t trial, const TrialRecord& t) {
    record_bytes(w, trial, t);
  };
  cap.result = c.run_shard(opt, shard, &sink);
  cap.records = w.take();
  return cap;
}

std::string temp_path(const std::string& stem) {
  return testutil::temp_path("dnnfi_test_" + stem + ".ckpt").string();
}

struct TempFile {
  explicit TempFile(const std::string& stem) : path(temp_path(stem)) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

// ---------------------------------------------------------------------------
// The core equivalence: incremental replay (cache seeding + masked-fault
// early exit) streams byte-identical TrialRecords to the full replay, for
// two dtypes x every injection depth (early/mid/late logical block) x
// 1 and 8 worker threads. The incremental run must actually early-exit
// somewhere (otherwise this test would be vacuous) and the full run never.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, ByteIdenticalAcrossDepthsDtypesThreads) {
  for (const DType dt : {DType::kFloat16, DType::kFx32r10}) {
    const Campaign c = tiny_campaign(dt);
    std::uint64_t masked_somewhere = 0;
    for (const int block : {1, 2, 3}) {
      CampaignOptions opt = base_options();
      opt.constraint.fixed_block = block;

      opt.incremental_replay = false;
      const ShardCapture full = capture(c, opt);
      ASSERT_TRUE(full.result.complete);
      EXPECT_EQ(full.result.masked_exits, 0u)
          << "full replay must never early-exit";

      for (const std::size_t workers : {0UL, 8UL}) {
        ThreadPool pool(workers);
        opt.pool = &pool;
        opt.incremental_replay = true;
        const ShardCapture inc = capture(c, opt);
        ASSERT_TRUE(inc.result.complete);
        EXPECT_EQ(inc.records, full.records)
            << "dtype " << static_cast<int>(dt) << " block " << block << " "
            << workers << " workers";
        EXPECT_EQ(inc.result.acc.bytes(), full.result.acc.bytes());
        masked_somewhere += inc.result.masked_exits;
        opt.pool = nullptr;
      }
    }
    EXPECT_GT(masked_somewhere, 0u)
        << "no trial was ever masked; the early exit went unexercised";
  }
}

// The global-buffer site class takes the flip-layer-input lowering (the
// whole target layer re-executes), a different record-writing path than
// datapath patches; it must be byte-identical too.
TEST(IncrementalReplay, ByteIdenticalGlobalBufferSite) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = base_options();
  opt.site = SiteClass::kGlobalBuffer;

  opt.incremental_replay = false;
  const ShardCapture full = capture(c, opt);
  opt.incremental_replay = true;
  const ShardCapture inc = capture(c, opt);
  EXPECT_EQ(inc.records, full.records);
  EXPECT_EQ(inc.result.acc.bytes(), full.result.acc.bytes());
}

// ---------------------------------------------------------------------------
// ActivationCache integrity: cache entries equal a fresh fault-free forward
// bit-for-bit, including after the workspace has been reused for 100 faulty
// replays (the cache is immutable; replays only touch workspace slots).
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, CacheMatchesFreshForwardAfterWorkspaceReuse) {
  using T = numeric::Half;
  const auto spec = tiny_spec();
  const auto net = dnn::instantiate<T>(spec, tiny_blob());
  const auto inputs = tiny_inputs(1);
  const auto image = tensor::convert<T>(inputs[0].image);

  const dnn::ActivationCache<T> cache(net.plan(), image);
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());

  Sampler sampler(spec, DType::kFloat16);
  for (std::size_t t = 0; t < 100; ++t) {
    Rng rng = derive_stream(5, t);
    const auto fd = sampler.sample(SiteClass::kDatapathLatch, rng);
    auto out = inject(exec, ws, net.mac_layers(), cache, fd);
    ASSERT_FALSE(out.empty());
  }

  std::vector<tensor::Tensor<T>> fresh(net.num_layers());
  const dnn::LayerObserver<T> copy_out =
      [&](std::size_t i, tensor::ConstTensorView<T> out) {
        fresh[i].assign(out);
      };
  dnn::RunRequest<T> req;
  req.input = image;
  req.observer = &copy_out;
  exec.run(ws, req);
  ASSERT_EQ(fresh.size(), cache.num_layers());
  EXPECT_TRUE(tensor::bitwise_equal<T>(cache.input(), image.view()));
  for (std::size_t i = 0; i < cache.num_layers(); ++i)
    EXPECT_TRUE(tensor::bitwise_equal<T>(
        cache.act(i), tensor::ConstTensorView<T>(fresh[i])))
        << "layer " << i;
}

// ---------------------------------------------------------------------------
// run_range: executing [0, k) then [k, N) from the intermediate activation
// reproduces the full forward bit-for-bit, for every split point.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, RunRangeSplitsReproduceFullForward) {
  using T = numeric::Half;
  const auto net = dnn::instantiate<T>(tiny_spec(), tiny_blob());
  const auto image = tensor::convert<T>(tiny_inputs(1)[0].image);
  const dnn::Executor<T> exec(net.plan());
  dnn::Workspace<T> ws(net.plan());
  const std::size_t n = net.plan().num_layers();

  dnn::RunRequest<T> req;
  req.input = image;
  Tensor<T> whole;
  whole.assign(exec.run(ws, req));

  for (std::size_t k = 1; k < n; ++k) {
    dnn::RunRequest<T> lo;
    lo.input = image;
    Tensor<T> mid;
    mid.assign(exec.run_range(ws, 0, k, lo));
    dnn::RunRequest<T> hi;
    hi.input = mid;
    Tensor<T> out;
    out.assign(exec.run_range(ws, k, n, hi));
    EXPECT_TRUE(tensor::bitwise_equal(out, whole)) << "split at " << k;
  }
}

// ---------------------------------------------------------------------------
// masked_exits is deterministic, carried through checkpoints, and summed
// correctly across a kill/resume boundary.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, MaskedExitsSurviveCheckpointResume) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();

  const ShardResult whole = c.run_shard(opt, ShardSpec{});
  ASSERT_TRUE(whole.complete);
  ASSERT_GT(whole.masked_exits, 0u);

  TempFile ck("masked_resume");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  shard.batch = 16;
  shard.stop_after = 40;
  const ShardResult stopped = c.run_shard(opt, shard);
  ASSERT_FALSE(stopped.complete);

  const ShardCheckpoint on_disk = load_shard_checkpoint(ck.path);
  EXPECT_EQ(on_disk.masked_exits, stopped.masked_exits);

  shard.stop_after = 0;
  const ShardResult resumed = c.run_shard(opt, shard);
  ASSERT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.masked_exits, whole.masked_exits);
  EXPECT_EQ(resumed.acc.bytes(), whole.acc.bytes());
}

// ---------------------------------------------------------------------------
// SedDetector::golden_flags agrees with flags() on every block of a
// fault-free cache — the golden-truth table early exit consults.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, SedGoldenFlagsMatchPerBlockScan) {
  using T = numeric::Half;
  const auto spec = tiny_spec();
  const auto net = dnn::instantiate<T>(spec, tiny_blob());
  const auto image = tensor::convert<T>(tiny_inputs(1)[0].image);
  const dnn::ActivationCache<T> cache(net.plan(), image);
  const auto ends = block_end_layers(spec);

  // Learned-from-golden bounds never flag the golden activations.
  const Campaign c = tiny_campaign(DType::kFloat16);
  const mitigate::SedDetector learned(c.golden_block_ranges(), 0.10);
  const auto quiet = learned.golden_flags<T>(cache, ends);
  ASSERT_EQ(quiet.size(), ends.size());
  for (std::size_t b = 0; b < ends.size(); ++b) {
    EXPECT_FALSE(quiet[b]) << "block " << b + 1;
    EXPECT_EQ(quiet[b],
              learned.flags<T>(static_cast<int>(b) + 1, cache.act(ends[b])));
  }

  // Absurdly tight bounds flag every block, and golden_flags tracks the
  // per-block scan exactly.
  const mitigate::SedDetector tight(
      std::vector<BlockRange>(ends.size(), BlockRange{-1e-30, 1e-30}), 0.0);
  const auto loud = tight.golden_flags<T>(cache, ends);
  for (std::size_t b = 0; b < ends.size(); ++b) {
    EXPECT_EQ(loud[b],
              tight.flags<T>(static_cast<int>(b) + 1, cache.act(ends[b])));
    EXPECT_TRUE(loud[b]) << "block " << b + 1;
  }
}

// ---------------------------------------------------------------------------
// accel::analyze_range / macs_in_range: the static accounting of what a
// layer-range replay executes partitions the full-network totals.
// ---------------------------------------------------------------------------

TEST(IncrementalReplay, DataflowRangeAccountingPartitionsTotals) {
  const auto spec = tiny_spec();
  const auto all = accel::analyze(spec);
  const std::size_t n = spec.layers.size();

  EXPECT_EQ(accel::macs_in_range(all, 0, n), accel::total_macs(all));
  const auto whole = accel::analyze_range(spec, 0, n);
  ASSERT_EQ(whole.size(), all.size());

  // Any split point partitions both the footprint list and the MAC total.
  for (std::size_t k = 1; k < n; ++k) {
    const auto lo = accel::analyze_range(spec, 0, k);
    const auto hi = accel::analyze_range(spec, k, n);
    EXPECT_EQ(lo.size() + hi.size(), all.size()) << "split " << k;
    EXPECT_EQ(accel::macs_in_range(all, 0, k) + accel::macs_in_range(all, k, n),
              accel::total_macs(all))
        << "split " << k;
  }
}

}  // namespace
}  // namespace dnnfi::fault
