// The sharding contract, locked down: per-trial results are a pure function
// of (options, global trial index), so the same campaign produces
// byte-identical records and aggregates at any thread count, under any
// shard partition, and across checkpoint/kill/resume boundaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
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

/// Byte-exact encoding of everything a trial produced.
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
  std::vector<std::uint8_t> records;  // concatenated record encodings
  ShardResult result;
};

ShardCapture capture(const Campaign& c, const CampaignOptions& opt,
                     ShardSpec shard) {
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
// Thread-count invariance: 1, 2, and 8 workers produce byte-identical
// record streams and aggregates.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, ThreadCountInvariance) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  CampaignOptions opt = base_options();

  ThreadPool serial(0);
  opt.pool = &serial;
  const ShardCapture ref = capture(c, opt, ShardSpec{});
  ASSERT_TRUE(ref.result.complete);
  ASSERT_EQ(ref.result.acc.trials(), opt.trials);
  ASSERT_FALSE(ref.records.empty());

  for (const std::size_t workers : {2UL, 8UL}) {
    ThreadPool pool(workers);
    opt.pool = &pool;
    const ShardCapture got = capture(c, opt, ShardSpec{});
    EXPECT_EQ(got.records, ref.records) << workers << " workers";
    EXPECT_EQ(got.result.acc.bytes(), ref.result.acc.bytes())
        << workers << " workers";
  }
}

// ---------------------------------------------------------------------------
// Shard-union invariance: {[0,k) u [k,N)} == [0,N), for two split points
// and two dtypes, both as record streams and as merged aggregates (in both
// merge orders — the merge is exactly commutative).
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, ShardUnionEqualsMonolithic) {
  for (const DType dt : {DType::kFloat16, DType::kFx32r10}) {
    const Campaign c = tiny_campaign(dt);
    const CampaignOptions opt = base_options();
    const ShardCapture whole = capture(c, opt, ShardSpec{});
    ASSERT_TRUE(whole.result.complete);

    for (const std::uint64_t k : {17ULL, 50ULL}) {
      ShardSpec lo, hi;
      lo.begin = 0;
      lo.end = k;
      hi.begin = k;
      hi.end = opt.trials;
      const ShardCapture a = capture(c, opt, lo);
      const ShardCapture b = capture(c, opt, hi);
      ASSERT_TRUE(a.result.complete);
      ASSERT_TRUE(b.result.complete);
      EXPECT_EQ(a.result.acc.trials(), k);
      EXPECT_EQ(b.result.acc.trials(), opt.trials - k);

      // Record streams concatenate to the monolithic stream.
      std::vector<std::uint8_t> joined = a.records;
      joined.insert(joined.end(), b.records.begin(), b.records.end());
      EXPECT_EQ(joined, whole.records) << "dtype " << static_cast<int>(dt)
                                       << " split " << k;

      // Aggregates merge to the monolithic aggregate, in either order.
      OutcomeAccumulator ab = a.result.acc;
      ab.merge(b.result.acc);
      EXPECT_EQ(ab.bytes(), whole.result.acc.bytes());
      OutcomeAccumulator ba = b.result.acc;
      ba.merge(a.result.acc);
      EXPECT_EQ(ba.bytes(), whole.result.acc.bytes());
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint round trip: a run killed mid-shard and resumed from its
// checkpoint finishes with aggregates bit-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, CheckpointResumeBitIdentical) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();

  const ShardResult uninterrupted = c.run_shard(opt, ShardSpec{});
  ASSERT_TRUE(uninterrupted.complete);

  TempFile ck("resume");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  shard.batch = 16;
  shard.stop_after = 40;
  const ShardResult stopped = c.run_shard(opt, shard);
  EXPECT_FALSE(stopped.complete);
  EXPECT_GE(stopped.next_trial, 40u);
  EXPECT_LT(stopped.next_trial, opt.trials);
  ASSERT_TRUE(std::filesystem::exists(ck.path));

  // The checkpoint on disk holds exactly the stopped run's state.
  const ShardCheckpoint on_disk = load_shard_checkpoint(ck.path);
  EXPECT_EQ(on_disk.next_trial, stopped.next_trial);
  EXPECT_FALSE(on_disk.complete);
  EXPECT_EQ(on_disk.acc.bytes(), stopped.acc.bytes());

  shard.stop_after = 0;
  const ShardResult resumed = c.run_shard(opt, shard);
  EXPECT_TRUE(resumed.resumed);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.acc.bytes(), uninterrupted.acc.bytes());

  // Running once more is a no-op: the checkpoint says complete.
  const ShardResult again = c.run_shard(opt, shard);
  EXPECT_TRUE(again.complete);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.acc.bytes(), uninterrupted.acc.bytes());
}

// ---------------------------------------------------------------------------
// Corruption and mismatch: every structural defect loads as a clean
// CheckpointError, never UB or silent state.
// ---------------------------------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CampaignDeterminism, CorruptCheckpointsFailCleanly) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();
  TempFile ck("corrupt");
  ShardSpec shard;
  shard.checkpoint = ck.path;
  ASSERT_TRUE(c.run_shard(opt, shard).complete);
  const std::vector<char> good = slurp(ck.path);
  ASSERT_GT(good.size(), 40u);

  // Flipped payload byte -> CRC mismatch.
  std::vector<char> flipped = good;
  flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x40);
  spit(ck.path, flipped);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Truncation -> size/CRC failure, not a crash.
  std::vector<char> truncated(good.begin(), good.begin() + 30);
  spit(ck.path, truncated);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Wrong magic -> not a checkpoint.
  std::vector<char> magic = good;
  magic[0] = 'X';
  spit(ck.path, magic);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Wrong version -> explicit version error.
  std::vector<char> version = good;
  version[8] = 9;
  spit(ck.path, version);
  EXPECT_THROW(c.run_shard(opt, shard), CheckpointError);

  // Valid file, different campaign options -> fingerprint mismatch.
  spit(ck.path, good);
  CampaignOptions other = base_options();
  other.seed = opt.seed + 1;
  EXPECT_THROW(c.run_shard(other, shard), CheckpointError);
  // And a different shard range under the same options.
  ShardSpec narrower = shard;
  narrower.begin = 8;
  EXPECT_THROW(c.run_shard(opt, narrower), CheckpointError);
}

// ---------------------------------------------------------------------------
// The streaming aggregates agree with the buffered path on every statistic
// they both compute.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, AccumulatorMatchesBufferedRun) {
  const Campaign c = tiny_campaign(DType::kFloat16);
  const CampaignOptions opt = base_options();
  const CampaignResult buffered = c.run(opt);
  const ShardResult streamed = c.run_shard(opt, ShardSpec{});

  ASSERT_EQ(buffered.trials.size(), streamed.acc.trials());
  EXPECT_EQ(buffered.sdc1().hits, streamed.acc.sdc1().hits);
  EXPECT_EQ(buffered.sdc5().hits, streamed.acc.sdc5().hits);
  EXPECT_EQ(buffered.sdc10().hits, streamed.acc.sdc10().hits);
  EXPECT_EQ(buffered.sdc20().hits, streamed.acc.sdc20().hits);

  std::size_t detected = 0, reached = 0;
  for (const auto& t : buffered.trials) {
    detected += t.detected ? 1U : 0U;
    reached += t.output_corruption > 0 ? 1U : 0U;
  }
  EXPECT_EQ(streamed.acc.detections(), detected);
  EXPECT_EQ(streamed.acc.reached_output().hits, reached);
}

}  // namespace
}  // namespace dnnfi::fault
