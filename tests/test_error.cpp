// The error taxonomy, locked down: Errc <-> exit-code mapping is a
// round-trip (it is the supervisor/worker process-boundary protocol),
// retryability is classified the way the supervisor's retry policy
// assumes, Expected carries exactly one of value/error, and every
// checkpoint / stats / atomic-file failure path reports the typed code
// the supervisor dispatches on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dnnfi/common/atomic_file.h"
#include "dnnfi/common/error.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/stats_io.h"

namespace dnnfi {
namespace {

namespace fs = std::filesystem;

constexpr Errc kAllCodes[] = {
    Errc::kOk,          Errc::kIo,
    Errc::kOutOfMemory, Errc::kTimeout,
    Errc::kWorkerCrash, Errc::kInterrupted,
    Errc::kTransport,   Errc::kCheckpointShip,
    Errc::kCorruptData, Errc::kVersionSkew,
    Errc::kFingerprintMismatch, Errc::kShardMismatch,
    Errc::kInvalidArgument, Errc::kQuarantineOverflow,
    Errc::kNoHosts,     Errc::kInternal};

TEST(Errc, ExitCodeRoundTripsForEveryCode) {
  for (const Errc c : kAllCodes) {
    const int ec = exit_code(c);
    EXPECT_EQ(errc_from_exit(ec), c) << errc_name(c);
  }
  // Unknown statuses (a worker that called exit(1), a shell's 127) classify
  // as kInternal: retried once, then bisected -- never treated as success.
  EXPECT_EQ(errc_from_exit(1), Errc::kInternal);
  EXPECT_EQ(errc_from_exit(127), Errc::kInternal);
  EXPECT_EQ(errc_from_exit(99), Errc::kInternal);
}

TEST(Errc, RetryablePartitionsTransientFromFatal) {
  // Transient: retrying can plausibly succeed.
  for (const Errc c : {Errc::kIo, Errc::kOutOfMemory, Errc::kTimeout,
                       Errc::kWorkerCrash, Errc::kInterrupted, Errc::kTransport,
                       Errc::kCheckpointShip, Errc::kInternal})
    EXPECT_TRUE(retryable(c)) << errc_name(c);
  // Fatal: the same inputs fail the same way; retrying wastes the budget
  // and bisecting would quarantine every trial.
  for (const Errc c : {Errc::kOk, Errc::kCorruptData, Errc::kVersionSkew,
                       Errc::kFingerprintMismatch, Errc::kShardMismatch,
                       Errc::kInvalidArgument, Errc::kQuarantineOverflow,
                       Errc::kNoHosts})
    EXPECT_FALSE(retryable(c)) << errc_name(c);
}

TEST(Errc, ExitCodesAreDistinctAndShellSafe) {
  std::vector<int> seen;
  for (const Errc c : kAllCodes) {
    const int ec = exit_code(c);
    EXPECT_GE(ec, 0);
    EXPECT_LT(ec, 126);  // stay clear of shell's 126/127/128+signal range
    EXPECT_EQ(std::count(seen.begin(), seen.end(), ec), 0)
        << "duplicate exit code " << ec;
    seen.push_back(ec);
  }
}

TEST(Expected, ValueSideRoundTrips) {
  Expected<int> e = 42;
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(static_cast<bool>(e));
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.value_or(-1), 42);
}

TEST(Expected, ErrorSideCarriesCodeAndMessage) {
  Expected<int> e = fail(Errc::kTimeout, "heartbeat missed");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, Errc::kTimeout);
  EXPECT_TRUE(e.error().retryable());
  EXPECT_EQ(e.error().message, "heartbeat missed");
  EXPECT_EQ(e.error().to_string(), "timeout: heartbeat missed");
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Expected, VoidSpecialization) {
  Expected<void> good;
  EXPECT_TRUE(good.ok());
  Expected<void> bad = fail(Errc::kIo, "disk full");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kIo);
}

TEST(AtomicFile, FailureToUnwritableDirIsIoAndTargetUntouched) {
  const auto r = write_file_atomic("/nonexistent-dir/x/y.txt", "hi");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kIo);
  EXPECT_FALSE(fs::exists("/nonexistent-dir/x/y.txt"));
}

std::string read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Names of the "*.tmp" files left in `dir`.
std::vector<std::string> tmp_files(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".tmp") out.push_back(e.path().string());
  return out;
}

TEST(AtomicFile, SuccessLeavesNoTmpSibling) {
  const fs::path dir = fs::temp_directory_path() / "dnnfi_atomic_test_single";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "out.txt";
  ASSERT_TRUE(write_file_atomic(path.string(), "payload").ok());
  EXPECT_EQ(read_all(path), "payload");
  EXPECT_TRUE(tmp_files(dir).empty());
  fs::remove_all(dir);
}

TEST(AtomicFile, ConcurrentWritersOfOnePathAllSucceed) {
  // An orphaned worker and its replacement can write one checkpoint path at
  // the same time; every write must land whole and leave no tmp behind.
  const fs::path dir =
      fs::temp_directory_path() / "dnnfi_atomic_test_concurrent";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "shard.ckpt").string();
  constexpr std::size_t kThreads = 4, kWrites = 200, kBytes = 256 * 1024;
  // Payload (t, i): every byte is (t * kWrites + i) mod 251, led by t and i.
  const auto payload = [&](std::size_t t, std::size_t i) {
    std::string p(kBytes, static_cast<char>((t * kWrites + i) % 251));
    p[0] = static_cast<char>(t);
    p[1] = static_cast<char>(i);
    return p;
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kWrites; ++i)
        if (!write_file_atomic(path, payload(t, i)).ok()) ++failures;
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const std::string body = read_all(path);
  ASSERT_EQ(body.size(), kBytes);
  const auto t = static_cast<std::size_t>(static_cast<unsigned char>(body[0]));
  const auto i = static_cast<std::size_t>(static_cast<unsigned char>(body[1]));
  ASSERT_LT(t, kThreads);
  ASSERT_LT(i, kWrites);
  EXPECT_TRUE(body == payload(t, i));
  EXPECT_TRUE(tmp_files(dir).empty());
  fs::remove_all(dir);
}

class CheckpointErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs the fixture's tests in parallel
    // processes, and a shared directory would let one test's TearDown
    // delete another's checkpoint mid-load.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("dnnfi_test_error_ckpt_") + info->name());
    fs::create_directories(dir_);
    path_ = (dir_ / "shard.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fault::ShardCheckpoint sample() const {
    fault::ShardCheckpoint ck;
    ck.fingerprint = 0xDEADBEEFCAFEF00DULL;
    ck.network = "tiny";
    ck.trials_total = 96;
    ck.shard_begin = 0;
    ck.shard_end = 48;
    ck.next_trial = 48;
    ck.complete = true;
    ck.masked_exits = 7;
    return ck;
  }

  std::string read_all() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void write_all(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointErrors, LoadNonexistentIsIo) {
  const auto r = fault::try_load_shard_checkpoint(path_ + ".missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kIo);
  EXPECT_TRUE(r.error().retryable());
}

TEST_F(CheckpointErrors, SaveToUnwritableDirIsIo) {
  const auto r = fault::try_save_shard_checkpoint(
      "/nonexistent-dir/x/shard.ckpt", sample());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kIo);
}

TEST_F(CheckpointErrors, FlippedPayloadByteIsCorruptData) {
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
  std::string bytes = read_all();
  ASSERT_GT(bytes.size(), 30u);
  bytes[bytes.size() - 3] ^= 0x40;  // payload flip breaks the CRC
  write_all(bytes);
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kCorruptData);
  EXPECT_FALSE(r.error().retryable());
}

TEST_F(CheckpointErrors, BadMagicIsCorruptData) {
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
  std::string bytes = read_all();
  bytes[0] = 'X';
  write_all(bytes);
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kCorruptData);
}

TEST_F(CheckpointErrors, UnknownVersionIsVersionSkew) {
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
  std::string bytes = read_all();
  bytes[8] = 9;  // version field, little-endian u32 at offset 8
  write_all(bytes);
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kVersionSkew);
  EXPECT_FALSE(r.error().retryable());
}

TEST_F(CheckpointErrors, ThrowingWrapperCarriesTheSameCode) {
  std::string bytes;
  {
    ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
    bytes = read_all();
    bytes[8] = 9;
    write_all(bytes);
  }
  try {
    (void)fault::load_shard_checkpoint(path_);
    FAIL() << "expected CheckpointError";
  } catch (const fault::CheckpointError& e) {
    EXPECT_EQ(e.code(), Errc::kVersionSkew);
  }
}

TEST_F(CheckpointErrors, AbortedTrialsRoundTripInV3) {
  fault::ShardCheckpoint ck = sample();
  ck.aborted_trials = {5, 17, 40};
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, ck).ok());
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().aborted_trials, (std::vector<std::uint64_t>{5, 17, 40}));
  EXPECT_EQ(r.value().masked_exits, 7u);
  EXPECT_EQ(r.value().fingerprint, ck.fingerprint);
}

TEST_F(CheckpointErrors, V3FileIsRejectedWithVersionSkew) {
  // A pre-geometry (v3) checkpoint lacks the accel/fault_op identity
  // strings; reading its payload under the v4 layout would shift every
  // subsequent field. The version gate must reject it as typed skew, not
  // let it parse.
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
  std::string bytes = read_all();
  bytes[8] = 3;  // version field, little-endian u32 at offset 8
  write_all(bytes);
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kVersionSkew);
  EXPECT_FALSE(r.error().retryable());
  EXPECT_NE(r.error().message.find("version 3"), std::string::npos);
}

TEST_F(CheckpointErrors, V5FileIsRejectedWithVersionSkew) {
  // v5 shares v6's layout, but its fingerprint folded the accel, fault-op
  // and sampler axes only when non-default: no v5 fingerprint can match a
  // v6 campaign. The version gate says so instead of a misleading
  // fingerprint mismatch.
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, sample()).ok());
  std::string bytes = read_all();
  bytes[8] = 5;
  write_all(bytes);
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kVersionSkew);
  EXPECT_NE(r.error().message.find("version 5"), std::string::npos);
}

TEST_F(CheckpointErrors, AcceleratorAxesRoundTrip) {
  fault::ShardCheckpoint ck = sample();
  ck.set_axes(fault::StatsAxes{"systolic:16x16", "set1:4",
                               "stratified(pilot=4,round=256,ci=0.005)"});
  ASSERT_TRUE(fault::try_save_shard_checkpoint(path_, ck).ok());
  const auto r = fault::try_load_shard_checkpoint(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().accel, "systolic:16x16");
  EXPECT_EQ(r.value().fault_op, "set1:4");
  EXPECT_EQ(r.value().sampler, "stratified(pilot=4,round=256,ci=0.005)");
}

TEST_F(CheckpointErrors, MismatchedAcceleratorIsFingerprintMismatch) {
  fault::ShardCheckpoint ck = sample();
  ck.accel = "systolic:16x16";
  const auto r = fault::validate_checkpoint_axes(ck, fault::StatsAxes{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kFingerprintMismatch);
  EXPECT_FALSE(r.error().retryable());
  EXPECT_NE(r.error().message.find("systolic:16x16"), std::string::npos);
  EXPECT_NE(r.error().message.find("eyeriss"), std::string::npos);
}

TEST_F(CheckpointErrors, MismatchedFaultOpIsFingerprintMismatch) {
  fault::ShardCheckpoint ck = sample();  // default axes: eyeriss + toggle
  const auto r = fault::validate_checkpoint_axes(
      ck, fault::StatsAxes{"eyeriss", "set0:0x0005", "uniform"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kFingerprintMismatch);
  EXPECT_NE(r.error().message.find("set0:0x0005"), std::string::npos);
  // A differing sampler is refused the same way.
  const auto s = fault::validate_checkpoint_axes(
      ck, fault::StatsAxes{"eyeriss", "toggle", "stratified(pilot=4)"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, Errc::kFingerprintMismatch);
  // Matching axes validate clean.
  EXPECT_TRUE(fault::validate_checkpoint_axes(ck, fault::StatsAxes{}).ok());
}

TEST(StatsIo, WriteToUnwritableDirIsIo) {
  fault::OutcomeAccumulator acc;
  const auto r =
      fault::write_stats_file("/nonexistent-dir/x/s.stats", 1, acc, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kIo);
}

TEST(StatsIo, AbortedTrialsAreEnumeratedSorted) {
  fault::OutcomeAccumulator acc;
  std::ostringstream os;
  fault::write_stats(os, 42, acc, 3, {11, 2});
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("dnnfi-campaign-stats v6\n", 0), 0u);
  EXPECT_NE(s.find("aborted 2\n"), std::string::npos);
  const auto a2 = s.find("aborted_trial 2\n");
  const auto a11 = s.find("aborted_trial 11\n");
  ASSERT_NE(a2, std::string::npos);
  ASSERT_NE(a11, std::string::npos);
  EXPECT_LT(a2, a11);  // ascending regardless of input order
}

TEST(StatsIo, IdentityLinesAlwaysPresent) {
  // One format for every campaign: the header and the accel / fault_op /
  // sampler lines appear whatever the axes, defaults included.
  fault::OutcomeAccumulator acc;
  std::ostringstream os;
  fault::write_stats(os, 42, acc, 0, {},
                     fault::StatsAxes{"systolic:8x8", "set1", "uniform"});
  EXPECT_EQ(os.str().rfind("dnnfi-campaign-stats v6\n"
                           "fingerprint 42\n"
                           "accel systolic:8x8\n"
                           "fault_op set1\n"
                           "sampler uniform\n"
                           "trials 0\n",
                           0),
            0u);
  std::ostringstream def;
  fault::write_stats(def, 42, acc, 0);
  EXPECT_EQ(def.str().rfind("dnnfi-campaign-stats v6\n"
                            "fingerprint 42\n"
                            "accel eyeriss\n"
                            "fault_op toggle\n"
                            "sampler uniform\n"
                            "trials 0\n",
                            0),
            0u);
}

TEST(StatsIo, CleanRunPrintsAbortedZero) {
  // Monolithic runs and clean supervised runs must produce identical
  // bytes, so the quarantine section must not vanish when empty.
  fault::OutcomeAccumulator acc;
  std::ostringstream os;
  fault::write_stats(os, 42, acc, 0);
  EXPECT_NE(os.str().find("aborted 0\n"), std::string::npos);
}

}  // namespace
}  // namespace dnnfi
