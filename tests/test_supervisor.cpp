// End-to-end supervisor robustness: these tests exec the real
// dnnfi_campaign binary (path injected as DNNFI_CAMPAIGN_BIN) and assert
// the contract that matters — a supervised campaign's merged stats are
// byte-identical to a monolithic run of the same configuration, no matter
// what is done to the workers in between: SIGKILL mid-shard, a hung
// worker reaped by the heartbeat watchdog, or a poison trial that is
// bisected down to and quarantined.
//
// Failure injection uses the worker's env-gated test hooks
// (DNNFI_TEST_CRASH_ONCE_FILE / DNNFI_TEST_HANG_ONCE_FILE /
// DNNFI_TEST_POISON_TRIAL), which are inert in production.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/checkpoint.h"
#include "temp_path.h"

namespace dnnfi {
namespace {

namespace fs = std::filesystem;

#ifndef DNNFI_CAMPAIGN_BIN
#error "build must define DNNFI_CAMPAIGN_BIN"
#endif
#ifndef DNNFI_REPO_MODELS
#error "build must define DNNFI_REPO_MODELS"
#endif

// One small campaign configuration shared by every test; small enough
// that a full supervised round trip is a few seconds, large enough for
// several shards per worker.
const char* kCampaignFlags =
    "--network convnet --trials 64 --seed 7 --inputs 4 --batch 16";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Runs `DNNFI_CAMPAIGN_BIN <args>` through the shell with optional extra
/// environment assignments; returns the exit code (-1 on abnormal death).
int run_tool(const std::string& args, const std::string& env = "",
             const std::string& log = "/dev/null") {
  std::ostringstream cmd;
  cmd << "env DNNFI_MODEL_DIR='" << DNNFI_REPO_MODELS << "' " << env << " '"
      << DNNFI_CAMPAIGN_BIN << "' " << args << " >" << log << " 2>&1";
  const int st = std::system(cmd.str().c_str());
  if (st == -1 || !WIFEXITED(st)) return -1;
  return WEXITSTATUS(st);
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::temp_path("dnnfi_test_supervisor_" +
                               std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  /// Monolithic reference stats for kCampaignFlags.
  std::string monolithic() {
    const std::string out = path("mono.stats");
    EXPECT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                           " --no-progress --out " + out,
                       "", path("mono.log")),
              0)
        << read_file(path("mono.log"));
    return read_file(out);
  }

  std::string supervise_flags(const std::string& extra = "") const {
    return std::string("supervise ") + kCampaignFlags +
           " --workers 2 --shard-size 8 --backoff 0.05 --ckpt-dir " +
           (dir_ / "ckpt").string() + " --out " + (dir_ / "sup.stats").string() +
           " " + extra;
  }

  /// `merge --out` is the third CLI stats emitter (after `run --out` and
  /// `supervise --out`): merged shard checkpoints must print the monolithic
  /// run's bytes, identity lines included, on any axes.
  void expect_merge_matches_monolithic(const std::string& axes) {
    const std::string run =
        std::string("run ") + kCampaignFlags + " --no-progress " + axes;
    for (const std::string& cmd :
         {run + " --out " + path("mono.stats"),
          run + " --shard 0:40 --checkpoint " + path("a.ckpt"),
          run + " --shard 40:64 --checkpoint " + path("b.ckpt"),
          "merge " + path("a.ckpt") + " " + path("b.ckpt") + " --out " +
              path("merged.stats")})
      ASSERT_EQ(run_tool(cmd, "", path("cli.log")), 0)
          << cmd << "\n" << read_file(path("cli.log"));
    const std::string mono = read_file(path("mono.stats"));
    ASSERT_FALSE(mono.empty());
    EXPECT_EQ(read_file(path("merged.stats")), mono);
  }

  fs::path dir_;
};

TEST_F(SupervisorTest, CleanSupervisedRunMatchesMonolithicByteForByte) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  ASSERT_EQ(run_tool(supervise_flags(), "", path("sup.log")), 0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);

  // The merged campaign checkpoint is written alongside and covers the
  // whole range with nothing quarantined.
  const auto ck =
      fault::try_load_shard_checkpoint((dir_ / "ckpt/campaign.ckpt").string());
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_TRUE(ck.value().complete);
  EXPECT_EQ(ck.value().shard_begin, 0u);
  EXPECT_EQ(ck.value().shard_end, 64u);
  EXPECT_TRUE(ck.value().aborted_trials.empty());
}

TEST_F(SupervisorTest, SigkilledWorkerIsRetriedAndResumesByteIdentical) {
  const std::string mono = monolithic();
  // The first worker to reach mid-shard SIGKILLs itself (fire-once via the
  // sentinel file); the supervisor must classify worker-crash as retryable,
  // relaunch, resume from the shard checkpoint, and still merge clean.
  ASSERT_EQ(run_tool(supervise_flags(),
                     "DNNFI_TEST_CRASH_ONCE_FILE='" + path("crashed") + "'",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_TRUE(fs::exists(path("crashed"))) << "crash hook never fired";
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("worker-crash"),
            std::string::npos);
}

TEST_F(SupervisorTest, HungWorkerIsKilledByHeartbeatWatchdog) {
  const std::string mono = monolithic();
  // The first worker to reach mid-shard stops heartbeating forever; only
  // the watchdog can end it. A short deadline keeps the test fast.
  ASSERT_EQ(run_tool(supervise_flags("--heartbeat-timeout 1.5"),
                     "DNNFI_TEST_HANG_ONCE_FILE='" + path("hung") + "'",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_TRUE(fs::exists(path("hung"))) << "hang hook never fired";
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("watchdog"), std::string::npos);
}

TEST_F(SupervisorTest, PoisonTrialIsBisectedToAndQuarantined) {
  // Trial 37 aborts the worker on every attempt. Retries cannot help;
  // bisection must converge on exactly that trial, quarantine it, and
  // complete the campaign with the other 63 trials aggregated.
  ASSERT_EQ(run_tool(supervise_flags(), "DNNFI_TEST_POISON_TRIAL=37",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  const std::string stats = read_file(path("sup.stats"));
  EXPECT_NE(stats.find("\naborted 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\naborted_trial 37\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("trials 63\n"), std::string::npos) << stats;

  const auto ck =
      fault::try_load_shard_checkpoint((dir_ / "ckpt/campaign.ckpt").string());
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_EQ(ck.value().aborted_trials, (std::vector<std::uint64_t>{37}));
}

TEST_F(SupervisorTest, RestartedSupervisorResumesAnIncompleteLocalShard) {
  const std::string mono = monolithic();
  // A half-done shard checkpoint in --ckpt-dir (left by a supervisor killed
  // mid-shard; made here by --stop-after, whose batch must be smaller than
  // the shard to stop inside it) is shipped to the relaunched worker in its
  // init frame and resumed, not redone.
  fs::create_directories(dir_ / "ckpt");
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                         " --batch 4 --no-progress --shard 0:8"
                         " --stop-after 4 --checkpoint " +
                         (dir_ / "ckpt/shard_0_8.ckpt").string(),
                     "", path("stop.log")),
            3)
      << read_file(path("stop.log"));
  ASSERT_EQ(run_tool(supervise_flags(), "", path("sup.log")), 0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find("shard [0, 8) complete (4 trials this attempt)"),
            std::string::npos)
      << log;
}

TEST_F(SupervisorTest, GracefulSigtermSavesCheckpointAndResumeMatches) {
  const std::string mono = monolithic();
  const std::string ckpt = path("run.ckpt");
  const std::string out = path("resumed.stats");

  // Launch a monolithic run directly (no shell wrapper, so the pid we
  // signal is the tool itself), interrupt it mid-campaign, and expect the
  // distinct "interrupted" exit code plus a loadable checkpoint.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    // Slow the run down enough to be interruptible: many more trials,
    // checkpoint every batch.
    execl(DNNFI_CAMPAIGN_BIN, DNNFI_CAMPAIGN_BIN, "run", "--network",
          "convnet", "--trials", "100000", "--seed", "7", "--inputs", "4",
          "--batch", "16", "--no-progress", "--checkpoint", ckpt.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  // Give it time to load the model and fold at least one batch, then ask
  // for a graceful stop.
  for (int i = 0; i < 200 && !fs::exists(ckpt); ++i) usleep(100 * 1000);
  ASSERT_TRUE(fs::exists(ckpt)) << "no checkpoint appeared within 20s";
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int st = 0;
  ASSERT_EQ(waitpid(pid, &st, 0), pid);
  ASSERT_TRUE(WIFEXITED(st)) << "tool died on the signal instead of exiting";
  EXPECT_EQ(WEXITSTATUS(st), exit_code(Errc::kInterrupted));

  const auto ck = fault::try_load_shard_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_FALSE(ck.value().complete);
  EXPECT_GT(ck.value().next_trial, 0u);

  // A fresh 64-trial campaign over the same seed still matches the
  // monolithic reference — the interrupted run shares its prefix but must
  // not have disturbed anything global (model cache, results dirs).
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                         " --no-progress --out " + out,
                     "", path("rerun.log")),
            0)
      << read_file(path("rerun.log"));
  EXPECT_EQ(read_file(out), mono);
}

TEST_F(SupervisorTest, MergedShardsMatchMonolithicOnDefaultAxes) {
  expect_merge_matches_monolithic("");
  EXPECT_NE(read_file(path("merged.stats"))
                .find("\naccel eyeriss\nfault_op toggle\nsampler uniform\n"),
            std::string::npos);
}

TEST_F(SupervisorTest, MergedShardsMatchMonolithicOnSystolicStuckAt1) {
  expect_merge_matches_monolithic("--accel systolic:8x8 --fault-op set1");
  EXPECT_NE(read_file(path("merged.stats"))
                .find("\naccel systolic:8x8\nfault_op set1\nsampler "
                      "uniform\n"),
            std::string::npos);
}

TEST_F(SupervisorTest, StratifiedMergeMatchesTheRunsOwnStats) {
  const std::string ckpt = path("strat.ckpt");
  ASSERT_EQ(run_tool(std::string("run ") + kCampaignFlags +
                         " --no-progress --sampler stratified --ci-target 0"
                         " --checkpoint " + ckpt + " --out " +
                         path("run.stats"),
                     "", path("run.log")),
            0)
      << read_file(path("run.log"));
  ASSERT_EQ(run_tool("merge " + ckpt + " --out " + path("merged.stats"), "",
                     path("merge.log")),
            0)
      << read_file(path("merge.log"));
  const std::string run = read_file(path("run.stats"));
  EXPECT_NE(run.find("\nsampler stratified("), std::string::npos);
  EXPECT_NE(run.find("\nstratum "), std::string::npos);
  EXPECT_EQ(read_file(path("merged.stats")), run);
}

}  // namespace
}  // namespace dnnfi
