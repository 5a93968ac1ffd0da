// Distributed-fleet robustness: frame codec and channel properties at the
// unit level, then end-to-end fleet campaigns exec'ing the real
// dnnfi_campaign binary (path injected as DNNFI_CAMPAIGN_BIN). The
// contract under test is the same one test_supervisor.cpp pins for the
// single-host path: merged stats byte-identical to a monolithic run, no
// matter what happens to the fleet in between — a whole node SIGKILLed
// repeatedly, a host that fails every spawn (quarantine), or membership
// rewritten mid-campaign via SIGHUP.
//
// "Remote" hosts here are localhost fleet nodes (direct exec, private
// scratch dirs, full ship-over-frames protocol) or fake-ssh hosts whose
// transport is a stub script via DNNFI_FLEET_SSH — the wire protocol and
// scheduling are exactly those of a real multi-machine fleet; only the
// network hop is simulated.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/fleet.h"
#include "dnnfi/fault/transport.h"
#include "temp_path.h"

namespace dnnfi::fault {
namespace {

namespace fs = std::filesystem;

#ifndef DNNFI_CAMPAIGN_BIN
#error "build must define DNNFI_CAMPAIGN_BIN"
#endif
#ifndef DNNFI_REPO_MODELS
#error "build must define DNNFI_REPO_MODELS"
#endif

// ---- frame codec properties ----------------------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(FrameCodec, RoundTripsAcrossArbitraryChunkBoundaries) {
  // Several frames of different types and sizes, delivered one byte at a
  // time: every frame must come out intact, in order, and never early.
  const std::vector<std::pair<FrameType, std::vector<std::uint8_t>>> frames = {
      {FrameType::kInit, bytes_of("")},
      {FrameType::kBeat, bytes_of("\x01\x02\x03\x04\x05\x06\x07\x08")},
      {FrameType::kCheckpoint, bytes_of(std::string(3000, 'x') + "tail")},
      {FrameType::kBeat, bytes_of("01234567")},
  };
  std::vector<std::uint8_t> wire;
  for (const auto& [type, payload] : frames) {
    const auto f = encode_frame(type, payload.data(), payload.size());
    wire.insert(wire.end(), f.begin(), f.end());
  }

  FrameDecoder dec;
  std::size_t decoded = 0;
  for (const std::uint8_t b : wire) {
    dec.feed(&b, 1);
    while (true) {
      auto next = dec.next();
      ASSERT_TRUE(next.ok()) << next.error().to_string();
      if (!next.value().has_value()) break;
      ASSERT_LT(decoded, frames.size()) << "decoder invented a frame";
      EXPECT_EQ(next.value()->type, frames[decoded].first);
      EXPECT_EQ(next.value()->payload, frames[decoded].second);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, frames.size());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, TruncatedFrameStaysPendingNotAnError) {
  const auto payload = bytes_of("truncate me somewhere");
  const auto wire =
      encode_frame(FrameType::kCheckpoint, payload.data(), payload.size());
  // Every proper prefix must decode to "no frame yet" without error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    auto next = dec.next();
    ASSERT_TRUE(next.ok()) << "prefix of " << cut << " bytes: "
                           << next.error().to_string();
    EXPECT_FALSE(next.value().has_value()) << "decoded from " << cut
                                           << " of " << wire.size()
                                           << " bytes";
  }
}

TEST(FrameCodec, EveryPayloadBitFlipIsRejectedByCrc) {
  const auto payload = bytes_of("integrity matters");
  auto wire = encode_frame(FrameType::kBeat, payload.data(), payload.size());
  const std::size_t header = wire.size() - payload.size();
  for (std::size_t i = header; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = wire;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder dec;
      dec.feed(damaged.data(), damaged.size());
      auto next = dec.next();
      ASSERT_FALSE(next.ok()) << "flipped bit " << bit << " of byte " << i
                              << " went unnoticed";
      EXPECT_EQ(next.error().code, Errc::kTransport);
    }
  }
}

TEST(FrameCodec, OversizedLengthAndUnknownTypeAreTransportErrors) {
  // A length past the bound must be rejected from the header alone —
  // before any payload arrives and long before any allocation.
  std::uint8_t oversized[9] = {};
  const std::uint32_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    oversized[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  oversized[4] = 2;  // kBeat
  FrameDecoder dec;
  dec.feed(oversized, sizeof oversized);
  auto next = dec.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, Errc::kTransport);

  const auto payload = bytes_of("x");
  auto wire = encode_frame(FrameType::kBeat, payload.data(), payload.size());
  wire[4] = 99;  // not a FrameType
  FrameDecoder dec2;
  dec2.feed(wire.data(), wire.size());
  auto next2 = dec2.next();
  ASSERT_FALSE(next2.ok());
  EXPECT_EQ(next2.error().code, Errc::kTransport);
}

// ---- worker channel ------------------------------------------------------

TEST(WorkerChannel, FramedDialectYieldsBeatsAndCheckpoints) {
  std::vector<std::uint8_t> wire;
  std::uint8_t beat[8] = {42, 0, 0, 0, 0, 0, 0, 0};
  const auto f1 = encode_frame(FrameType::kBeat, beat, sizeof beat);
  const auto image = bytes_of("pretend checkpoint file image");
  const auto f2 =
      encode_frame(FrameType::kCheckpoint, image.data(), image.size());
  wire.insert(wire.end(), f1.begin(), f1.end());
  wire.insert(wire.end(), f2.begin(), f2.end());

  // Whole, then split at every byte and every third byte (pipes do that):
  // the same two events must come out every time.
  for (const std::size_t chunk :
       {wire.size(), std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    WorkerChannel ch;
    std::vector<ChannelEvent> events;
    for (std::size_t i = 0; i < wire.size(); i += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - i);
      auto fed = ch.feed(wire.data() + i, n, events);
      ASSERT_TRUE(fed.ok()) << fed.error().to_string();
    }
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, ChannelEvent::Kind::kBeat);
    EXPECT_EQ(events[0].done, 42u);
    EXPECT_EQ(events[1].kind, ChannelEvent::Kind::kCheckpoint);
    EXPECT_EQ(events[1].bytes, image);
  }
}

TEST(WorkerChannel, FramedDamageIsATransportErrorAndWrongDirectionToo) {
  {
    WorkerChannel ch;
    std::uint8_t bad_beat[3] = {1, 2, 3};  // beats must be exactly 8 bytes
    const auto f = encode_frame(FrameType::kBeat, bad_beat, sizeof bad_beat);
    std::vector<ChannelEvent> events;
    auto fed = ch.feed(f.data(), f.size(), events);
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.error().code, Errc::kTransport);
  }
  {
    // Workers never send kInit; one arriving means the stream is confused.
    WorkerChannel ch;
    std::uint8_t one = 0;
    const auto f = encode_frame(FrameType::kInit, &one, 1);
    std::vector<ChannelEvent> events;
    auto fed = ch.feed(f.data(), f.size(), events);
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.error().code, Errc::kTransport);
  }
}

// ---- host specs and fleet membership -------------------------------------

TEST(HostSpec, ParsesHostsWithSlotsAndOptionalWorkdir) {
  auto specs = parse_hosts("alpha:4,localhost:2:/scratch/n0,beta:1");
  ASSERT_TRUE(specs.ok()) << specs.error().to_string();
  ASSERT_EQ(specs.value().size(), 3u);
  EXPECT_EQ(specs.value()[0].host, "alpha");
  EXPECT_EQ(specs.value()[0].slots, 4);
  EXPECT_TRUE(specs.value()[0].workdir.empty());
  EXPECT_FALSE(specs.value()[0].is_local());
  EXPECT_EQ(specs.value()[1].host, "localhost");
  EXPECT_EQ(specs.value()[1].workdir, "/scratch/n0");
  EXPECT_TRUE(specs.value()[1].is_local());
  EXPECT_EQ(specs.value()[2].slots, 1);
}

TEST(HostSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "alpha", "alpha:0", "alpha:-2", "alpha:x",
                          ":4", "alpha:2:"}) {
    auto specs = parse_hosts(bad);
    EXPECT_FALSE(specs.ok()) << "accepted '" << bad << "'";
    if (!specs.ok()) {
      EXPECT_EQ(specs.error().code, Errc::kInvalidArgument) << bad;
    }
  }
}

TEST(HostSpec, HostsFileSkipsCommentsAndNamesBadLines) {
  const fs::path file = testutil::temp_path("dnnfi_fleet_hosts_test");
  {
    std::ofstream out(file);
    out << "# fleet for the nightly\n"
        << "alpha:4\n"
        << "\n"
        << "  localhost:2  # on-box lanes\n";
  }
  auto specs = parse_hosts_file(file.string());
  ASSERT_TRUE(specs.ok()) << specs.error().to_string();
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[1].host, "localhost");

  {
    std::ofstream out(file);
    out << "alpha:4\nbogus line\n";
  }
  auto bad = parse_hosts_file(file.string());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kInvalidArgument);
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos)
      << bad.error().message;
  fs::remove(file);
}

FleetConfig test_fleet_config() {
  FleetConfig cfg;
  cfg.fail_limit = 3;
  cfg.quarantine_base_s = 60.0;  // long enough to be "forever" in a test
  cfg.quarantine_cap_s = 300.0;
  cfg.scratch_root = testutil::temp_path("dnnfi_fleet_unit").string();
  return cfg;
}

TEST(FleetMembership, AcquirePrefersAnotherHostForRetries) {
  auto specs = parse_hosts("alpha:2,beta:2");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());

  Fleet::Node* first = fleet.acquire("");
  ASSERT_NE(first, nullptr);
  // Retry-elsewhere: avoiding the first host must pick the other one even
  // though the first still has a free slot.
  Fleet::Node* other = fleet.acquire(first->id);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->id, first->id);
  // With beta saturated, an avoid=alpha acquire still yields alpha (a busy
  // fleet beats a dead shard) — preference, not a hard ban.
  Fleet::Node* beta_last = fleet.acquire(first->id);
  ASSERT_NE(beta_last, nullptr);
  EXPECT_NE(beta_last->id, first->id);
  Fleet::Node* forced = fleet.acquire(first->id);
  ASSERT_NE(forced, nullptr);
  EXPECT_EQ(forced->id, first->id);
  EXPECT_EQ(fleet.acquire(""), nullptr) << "all four slots are out";
}

TEST(FleetMembership, RepeatedFailuresQuarantineTheHostThenExpire) {
  auto specs = parse_hosts("alpha:1,beta:1");
  ASSERT_TRUE(specs.ok());
  FleetConfig cfg = test_fleet_config();
  cfg.quarantine_base_s = 0.05;  // expire within the test
  Fleet fleet(specs.value(), cfg);

  Fleet::Node* alpha = fleet.nodes()[0].get();
  ReleaseOutcome out;
  for (int i = 0; i < cfg.fail_limit; ++i) {
    Fleet::Node* n = fleet.acquire("beta#1");
    ASSERT_EQ(n, alpha);
    out = fleet.release(*n, /*success=*/false);
  }
  EXPECT_TRUE(out.quarantined);
  EXPECT_GT(out.quarantine_s, 0.0);
  // Quarantined: every acquire lands on beta, but alpha still counts
  // toward capacity (quarantine is temporary, not membership).
  Fleet::Node* n = fleet.acquire("");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->spec.host, "beta");
  EXPECT_EQ(fleet.total_slots(), 2);
  fleet.release(*n, /*success=*/true);
  // After expiry the host rejoins on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  bool alpha_back = false;
  for (int i = 0; i < 2; ++i) {
    Fleet::Node* m = fleet.acquire("");
    ASSERT_NE(m, nullptr);
    alpha_back |= (m->spec.host == "alpha");
  }
  EXPECT_TRUE(alpha_back);
}

TEST(FleetMembership, ReloadJoinsNewHostsAndDrainsVanishedOnes) {
  auto specs = parse_hosts("alpha:2,beta:2");
  ASSERT_TRUE(specs.ok());
  Fleet fleet(specs.value(), test_fleet_config());
  Fleet::Node* busy_beta = fleet.acquire("alpha#0");
  ASSERT_NE(busy_beta, nullptr);
  ASSERT_EQ(busy_beta->spec.host, "beta");

  auto next = parse_hosts("alpha:4,gamma:1");
  ASSERT_TRUE(next.ok());
  const auto [joined, drained] = fleet.reload(next.value());
  EXPECT_EQ(joined, 1);   // gamma
  EXPECT_EQ(drained, 1);  // beta
  EXPECT_EQ(fleet.total_slots(), 5);  // alpha grew to 4, gamma 1, beta gone
  // The busy drained node survives until its worker is released; it never
  // takes new work.
  EXPECT_TRUE(busy_beta->draining);
  for (int i = 0; i < 5; ++i) {
    Fleet::Node* n = fleet.acquire("");
    ASSERT_NE(n, nullptr);
    EXPECT_NE(n->spec.host, "beta");
  }
}

// ---- end-to-end fleet campaigns ------------------------------------------

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

/// N of the supervisor's "N checkpoint(s) shipped" summary, or -1.
int shipped_count(const std::string& log) {
  const auto at = log.find(" checkpoint(s) shipped");
  if (at == std::string::npos || at == 0) return -1;
  const auto start = log.find_last_not_of("0123456789", at - 1) + 1;
  return start == at ? -1 : std::stoi(log.substr(start, at - start));
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::temp_path("dnnfi_test_fleet_" +
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
           " --shard-size 8 --backoff 0.05 --ckpt-dir " +
           (dir_ / "ckpt").string() + " --out " + (dir_ / "sup.stats").string() +
           " " + extra;
  }

  fs::path dir_;
};

TEST_F(FleetTest, SingleHostFleetlessPathStillMatchesMonolithic) {
  // Without --hosts the supervisor runs --workers workers on this host over
  // the same framed wire a localhost fleet node uses: byte-identical
  // results, every batch's checkpoint shipped home, the workers' scratch
  // copies under the checkpoint directory, and the per-shard stderr logs
  // beside them.
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  ASSERT_EQ(run_tool(supervise_flags("--workers 2"), "", path("sup.log")), 0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_GT(shipped_count(log), 0) << log;
  EXPECT_TRUE(fs::is_directory(dir_ / "ckpt/local"))
      << "local scratch dir missing";
  EXPECT_TRUE(fs::exists(dir_ / "ckpt/logs")) << "per-shard log dir missing";
}

TEST_F(FleetTest, TwoNodeFleetMatchesMonolithicByteForByte) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // Two localhost nodes: separate scratch dirs, framed channels, every
  // batch shipped home. The merged result must not care.
  ASSERT_EQ(run_tool(supervise_flags("--hosts localhost:1,localhost:1"), "",
                     path("sup.log")),
            0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  // Checkpoints were shipped over frames, and the node scratch dirs exist.
  EXPECT_NE(read_file(path("sup.log")).find("checkpoint(s) shipped"),
            std::string::npos);
  EXPECT_TRUE(fs::exists(dir_ / "ckpt/node0") ||
              fs::exists(dir_ / "ckpt/node1"))
      << "no node scratch directory was created";
}

TEST_F(FleetTest, NodeKilledRepeatedlyMidCampaignRetriesElsewhere) {
  // A longer campaign than the other fixtures (1024 trials, batch 8) so
  // the killer has a real window: the 64-trial default finishes before a
  // single kill can land.
  const char* flags = "--network convnet --trials 1024 --seed 7 --inputs 4 "
                      "--batch 8";
  const std::string mono_out = path("mono.stats");
  ASSERT_EQ(run_tool(std::string("run ") + flags + " --no-progress --out " +
                         mono_out,
                     "", path("mono.log")),
            0)
      << read_file(path("mono.log"));
  const std::string mono = read_file(mono_out);
  ASSERT_FALSE(mono.empty());

  // Repeatedly SIGKILL every worker of node0 — the whole "machine" dies,
  // over and over — while node1 stays healthy. Shards stranded on node0
  // must be rescheduled on node1, resuming from shipped checkpoints, and
  // the merge must still be byte-identical.
  std::atomic<bool> done{false};
  int rc = -1;
  std::thread sup([&] {
    rc = run_tool(std::string("supervise ") + flags +
                      " --shard-size 64 --backoff 0.05 --ckpt-dir " +
                      (dir_ / "ckpt").string() + " --out " +
                      (dir_ / "sup.stats").string() +
                      " --hosts localhost:1,localhost:1"
                      " --max-attempts 100 --host-quarantine 0.5",
                  "", path("sup.log"));
    done.store(true);
  });
  // "[0]" keeps the pattern from matching the sh -c wrapper's own command
  // line (pkill would SIGKILL its parent shell and report failure).
  const std::string killer =
      "pkill -9 -f '" + (dir_ / "ckpt/node").string() + "[0]/' 2>/dev/null";
  int kills = 0;
  for (int i = 0; i < 6000 && !done.load(); ++i) {
    if (std::system(killer.c_str()) == 0) ++kills;
    usleep(20 * 1000);
  }
  sup.join();
  ASSERT_EQ(rc, 0) << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_GT(kills, 0) << "the killer never caught a node0 worker";
}

TEST_F(FleetTest, SpawnDeadHostIsQuarantinedAndCampaignCompletes) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // "phantom" is a non-local host, so its workers go through the ssh
  // command — overridden to /bin/false, which exits 1 instantly. Every
  // phantom attempt fails, the host's streak trips the quarantine, and
  // the campaign completes on the healthy localhost node.
  ASSERT_EQ(
      run_tool(supervise_flags("--hosts phantom:1,localhost:1 "
                               "--max-attempts 100 --host-quarantine 0.2"),
               "DNNFI_FLEET_SSH=/bin/false", path("sup.log")),
      0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  const std::string log = read_file(path("sup.log"));
  EXPECT_NE(log.find("quarantin"), std::string::npos) << log;
}

TEST_F(FleetTest, FakeSshTransportCarriesTheWholeProtocol) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());
  // A stand-in ssh client: drops the host argument and runs the command
  // locally — the full quoted-command + framed-stdio path a real ssh fleet
  // exercises, minus the network. The host's workdir keeps the "remote"
  // scratch inside this test's directory instead of the shared default
  // under /tmp.
  const std::string fake = path("fake_ssh.sh");
  {
    std::ofstream out(fake);
    out << "#!/bin/sh\nshift\nexec sh -c \"$1\"\n";
  }
  ASSERT_EQ(chmod(fake.c_str(), 0755), 0);
  ASSERT_EQ(
      run_tool(supervise_flags("--hosts worker-box:2:" + path("remote")),
               "DNNFI_FLEET_SSH='" + fake + "'", path("sup.log")),
      0)
      << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
}

TEST_F(FleetTest, OrphanedWorkerStopsWhenItsChannelIsGone) {
  // A worker whose supervisor was kill -9'd can no longer ship anything.
  // Its next frame write fails, so it must finish the in-flight batch,
  // checkpoint, and exit kInterrupted — not run its whole shard (hours at
  // this size) rewriting a scratch checkpoint a replacement worker owns.
  int to_worker[2];
  int from_worker[2];
  ASSERT_EQ(pipe(to_worker), 0);
  ASSERT_EQ(pipe(from_worker), 0);
  const std::string ckpt = path("scratch/shard_0_100000000.ckpt");
  const std::string log = path("worker.log");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(to_worker[0], 0);
    dup2(from_worker[1], 1);
    for (const int fd : {to_worker[0], to_worker[1], from_worker[0],
                         from_worker[1]})
      close(fd);
    const int lfd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (lfd >= 0) dup2(lfd, 2);
    setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    execl(DNNFI_CAMPAIGN_BIN, DNNFI_CAMPAIGN_BIN, "worker", "--network",
          "convnet", "--trials", "100000000", "--seed", "7", "--inputs", "4",
          "--batch", "16", "--shard", "0:100000000", "--checkpoint",
          ckpt.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Never leave the worker behind, whatever fails below.
  struct Reaper {
    pid_t pid;
    ~Reaper() {
      if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
      }
    }
  } reaper{pid};
  close(to_worker[0]);
  close(from_worker[1]);

  const std::uint8_t start_fresh = 0;
  const auto init = encode_frame(FrameType::kInit, &start_fresh, 1);
  ASSERT_EQ(write(to_worker[1], init.data(), init.size()),
            static_cast<ssize_t>(init.size()));
  close(to_worker[1]);

  // Wait for the first beat, then hang up as a dead supervisor would.
  WorkerChannel ch;
  std::vector<ChannelEvent> events;
  std::uint8_t buf[4096];
  while (events.empty()) {
    const ssize_t n = read(from_worker[0], buf, sizeof buf);
    ASSERT_GT(n, 0) << "worker closed its channel first: " << read_file(log);
    ASSERT_TRUE(ch.feed(buf, static_cast<std::size_t>(n), events).ok());
  }
  EXPECT_EQ(events[0].kind, ChannelEvent::Kind::kBeat);
  close(from_worker[0]);

  int st = 0;
  for (int i = 0; i < 200 && reaper.pid > 0; ++i) {
    if (waitpid(pid, &st, WNOHANG) == pid)
      reaper.pid = -1;
    else
      usleep(100 * 1000);
  }
  ASSERT_EQ(reaper.pid, -1) << "orphaned worker still running after 20 s";
  ASSERT_TRUE(WIFEXITED(st)) << read_file(log);
  EXPECT_EQ(WEXITSTATUS(st), exit_code(Errc::kInterrupted)) << read_file(log);
  const auto ck = try_load_shard_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.error().to_string();
  EXPECT_FALSE(ck.value().complete);
  EXPECT_GT(ck.value().next_trial, 0u);
}

TEST_F(FleetTest, SighupHostsFileReloadRescuesAStalledCampaign) {
  const std::string mono = monolithic();
  ASSERT_FALSE(mono.empty());

  // Membership starts as a single dead host (spawns via /bin/false), so
  // the campaign can only spin. Mid-run the hosts file is rewritten to a
  // healthy localhost pair and SIGHUP delivered: the fleet must pick up
  // the new members, drain the dead one, and finish byte-identical.
  const std::string hosts_file = path("hosts.txt");
  {
    std::ofstream out(hosts_file);
    out << "phantom:1\n";
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("DNNFI_MODEL_DIR", DNNFI_REPO_MODELS, 1);
    setenv("DNNFI_FLEET_SSH", "/bin/false", 1);
    const int log = open(path("sup.log").c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    const std::string ckpt = path("ckpt");
    const std::string out = path("sup.stats");
    execl(DNNFI_CAMPAIGN_BIN, DNNFI_CAMPAIGN_BIN, "supervise", "--network",
          "convnet", "--trials", "64", "--seed", "7", "--inputs", "4",
          "--batch", "16", "--shard-size", "8", "--backoff", "0.05",
          "--max-attempts", "1000", "--host-quarantine", "0.2", "--ckpt-dir",
          ckpt.c_str(), "--out", out.c_str(), "--hosts-file",
          hosts_file.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // Let it start and fail on the phantom for a while, then fix the fleet.
  usleep(1500 * 1000);
  {
    std::ofstream out(hosts_file);
    out << "localhost:2\n";
  }
  ASSERT_EQ(kill(pid, SIGHUP), 0);

  int st = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 1200; ++i) {
    reaped = waitpid(pid, &st, WNOHANG);
    if (reaped == pid) break;
    usleep(100 * 1000);
  }
  if (reaped != pid) {
    kill(pid, SIGKILL);
    waitpid(pid, &st, 0);
    FAIL() << "supervise did not finish after the reload: "
           << read_file(path("sup.log"));
  }
  ASSERT_TRUE(WIFEXITED(st));
  ASSERT_EQ(WEXITSTATUS(st), 0) << read_file(path("sup.log"));
  EXPECT_EQ(read_file(path("sup.stats")), mono);
  EXPECT_NE(read_file(path("sup.log")).find("hosts-file reloaded"),
            std::string::npos);
}

}  // namespace
}  // namespace dnnfi::fault
