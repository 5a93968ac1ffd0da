// Campaign benchmark harness: runs one workload of perfbench/README.md and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench_campaign --workload NAME --seed N --seconds S --trace 0|1
//                      --campaign-bin PATH --work-dir DIR
//                      [--spans FILE] [--corrupt-accumulator]
//                      [--rss-probe HEX]
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the wall clock around public calls. --trace 1 measures the per-layer
// metrics: every call into a dnnfi module is wrapped in a span (kept in
// memory, written to --spans at exit), and the traced campaign is timed
// against an untraced one to report the tracing overhead. The harness only
// calls public functions of src/; it never patches the program.
//
// Correctness gate: every timed run's OutcomeAccumulator bytes must equal
// (1) the workload's 1-thread (1-worker) run, (2) for uniform campaigns the
// merge of a scalar-kernel prefix with the active-kernel remainder (for the
// stratified campaign, a scalar prefix equals the active prefix), and (3)
// for the supervised workload, the in-process run of the same options. A
// mismatch counts the run's trials as failed, suppresses every speed
// metric, and exits 1. --corrupt-accumulator flips one byte of the first
// timed run's bytes to prove the gate fires.
#include <sys/resource.h>
#include <sys/wait.h>
#include <sched.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dnnfi/common/rng.h"
#include "dnnfi/common/thread_pool.h"
#include "dnnfi/data/pretrain.h"
#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/fault/adaptive_sampler.h"
#include "dnnfi/fault/campaign.h"
#include "dnnfi/fault/checkpoint.h"
#include "dnnfi/fault/injector.h"
#include "dnnfi/fault/stats_io.h"
#include "dnnfi/fault/supervisor.h"
#include "dnnfi/fault/transport.h"

namespace {

using namespace dnnfi;
using Clock = std::chrono::steady_clock;
using dnn::zoo::NetworkId;
using Bytes = std::vector<std::uint8_t>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Total trials over total wall time of a set of runs. A lone thread on a
/// shared host swings between fast and slow stretches from one run to the
/// next, and the median of such runs jumps between the two; the pooled
/// rate weighs every run by how long it took instead.
struct Pooled {
  double trials = 0, wall = 0;
  void add(double run_trials, double run_wall) {
    trials += run_trials;
    wall += run_wall;
  }
  double rate() const { return wall > 0 ? trials / wall : 0.0; }
};

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder. Spans nest through an explicit stack (all
/// traced calls happen on the driving thread), and are written out once at
/// exit in Chrome trace-event format. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  void open(const std::string& name) {
    if (on_) stack_.push_back(Rec{++next_, parent(), name, us(Clock::now()), 0});
  }

  void close() {
    if (!on_) return;
    Rec r = std::move(stack_.back());
    stack_.pop_back();
    r.t1_us = us(Clock::now());
    done_.push_back(std::move(r));
  }

  /// Records an already-finished child of the innermost open span.
  void record(const std::string& name, Clock::time_point a,
              Clock::time_point b) {
    if (on_) done_.push_back(Rec{++next_, parent(), name, us(a), us(b)});
  }

  std::size_t size() const noexcept { return done_.size(); }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n" << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < done_.size(); ++i) {
      const Rec& r = done_[i];
      f << "{\"name\": \"" << r.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, \"ts\": " << r.t0_us << ", \"dur\": "
        << (r.t1_us - r.t0_us) << ", \"args\": {\"id\": " << r.id
        << ", \"parent\": " << r.parent << "}}"
        << (i + 1 < done_.size() ? "," : "") << "\n";
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Rec {
    std::uint64_t id = 0, parent = 0;
    std::string name;
    double t0_us = 0, t1_us = 0;
  };

  std::uint64_t parent() const {
    return stack_.empty() ? 0 : stack_.back().id;
  }
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::uint64_t next_ = 0;
  std::vector<Rec> stack_;  ///< open spans, innermost last
  std::vector<Rec> done_;
};

/// Scoped span around one call into a layer (no-op when tracing is off).
class Span {
 public:
  Span(Tracer& t, const std::string& name) : t_(t) { t_.open(name); }
  ~Span() { t_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
};

// ---- metrics --------------------------------------------------------------

/// Named metrics in report order; non-finite values print as 0.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    m_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void json(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < m_.size(); ++i)
      os << (i ? ", " : "") << "\"" << m_[i].name << "\": {\"value\": "
         << std::setprecision(17) << m_[i].value << ", \"unit\": \""
         << m_[i].unit << "\"}";
    os << "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> m_;
};

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  NetworkId net;
  numeric::DType dtype;
  fault::SiteClass site;
  bool stratified;
  bool supervised;
  std::uint64_t trials;  ///< timed campaign size (stratified: budget)
  std::uint64_t prefix;  ///< trials of the scalar-kernel reference
  /// Stratified convergence target (SDC-1 CI half-width).
  double ci_target;
  /// Campaigns per run: --seed and seeds derived from it.
  std::uint64_t seeds;
};

// Uniform trial counts size one timed run at roughly 0.2-0.5 s on 4 threads
// of a 4-core host. The latch campaign's trial costs are heavy-tailed, so
// its rate depends on the seed's mix of masked and replayed trials; 16,384
// trials keep that within a few percent. A 1-worker supervised run of the
// ConvNet campaign lasts ~1.4 s, long enough to average over the second-
// scale speed swings a lone thread sees on a shared host. The stratified
// campaign runs to its CI target instead, and the trials that takes vary
// by ±15-20% from seed to seed at any target; a run therefore cycles
// through four campaigns with seeds derived from --seed, which halves the
// seed's share of the spread between runs.
constexpr Workload kWorkloads[] = {
    {"latch-alexnet-f16", NetworkId::kAlexNetS, numeric::DType::kFloat16,
     fault::SiteClass::kDatapathLatch, false, false, 16384, 1024, 0, 1},
    {"gbuf-alexnet-f16", NetworkId::kAlexNetS, numeric::DType::kFloat16,
     fault::SiteClass::kGlobalBuffer, false, false, 512, 32, 0, 1},
    {"supervise-convnet-f32", NetworkId::kConvNet, numeric::DType::kFloat,
     fault::SiteClass::kDatapathLatch, false, true, 65536, 2048, 0, 1},
    {"stratified-alexnet-f16", NetworkId::kAlexNetS, numeric::DType::kFloat16,
     fault::SiteClass::kDatapathLatch, true, false, 200000, 1024, 0.0012,
     4},
};

constexpr std::size_t kInputs = 8;  ///< images per campaign (CLI default)

const char* cli_network(NetworkId id) {
  return id == NetworkId::kConvNet ? "convnet" : "alexnet";
}

/// The CLI's input convention (first held-out test images), so in-process
/// and supervised campaigns replay the same images.
std::vector<dnn::Example> test_inputs(NetworkId id) {
  const auto ds = data::dataset_for(id);
  std::vector<dnn::Example> v;
  for (std::size_t i = 0; i < kInputs; ++i) {
    auto s = ds->sample(data::kTestSplitBegin + i);
    v.push_back(dnn::Example{std::move(s.image), s.label});
  }
  return v;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

double rss_mb(const rusage& ru) {
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- campaign runs --------------------------------------------------------

/// What one campaign run produced: the gate's bytes plus counts.
struct RunOut {
  Bytes bytes;
  std::uint64_t trials = 0;
  std::uint64_t masked = 0;
  std::uint64_t rounds = 0;
  std::uint64_t aborted = 0;
  double wall = 0;
  /// Stratified only: per-stratum SDC-1 counts, the allocator's input.
  std::vector<fault::StratumCounts> counts;
};

/// The campaign seeds of one run: --seed itself, then seeds derived from
/// it for workloads that cycle through several campaigns.
std::vector<std::uint64_t> run_seeds(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> v{seed};
  for (std::uint64_t k = 1; k < w.seeds; ++k)
    v.push_back(seed ^ (k * 0x9E3779B97F4A7C15ULL));
  return v;
}

fault::CampaignOptions campaign_options(const Workload& w,
                                        std::uint64_t seed) {
  fault::CampaignOptions opt;
  opt.site = w.site;
  opt.trials = static_cast<std::size_t>(w.trials);
  opt.seed = seed;
  if (w.stratified) {
    opt.sampler = fault::SamplerMode::kStratified;
    opt.stratified.target_ci = w.ci_target;
  }
  return opt;
}

/// A stratified campaign's identity bytes: pooled plus every stratum, in
/// canonical order, plus the round count.
Bytes stratified_bytes(const fault::StratifiedResult& r) {
  Bytes b = r.pooled.bytes();
  for (const auto& s : r.per_stratum) {
    const Bytes sb = s.bytes();
    b.insert(b.end(), sb.begin(), sb.end());
  }
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(r.rounds >> (8 * i)));
  return b;
}

/// Runs `shard` of the campaign on `pool`. With `batch_ms` non-null the
/// run is traced: each progress callback closes a batch span (a round, for
/// stratified campaigns) and appends its duration.
RunOut run_campaign(const fault::Campaign& c, fault::CampaignOptions opt,
                    ThreadPool& pool, fault::ShardSpec shard, Tracer& tr,
                    std::vector<double>* batch_ms = nullptr) {
  opt.pool = &pool;
  Clock::time_point last = Clock::now();
  if (batch_ms != nullptr) {
    opt.progress = [&](const fault::CampaignProgress&) {
      const auto now = Clock::now();
      tr.record(opt.sampler == fault::SamplerMode::kStratified
                    ? "fault.adaptive_sampler.round"
                    : "fault.campaign.batch",
                last, now);
      batch_ms->push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
      last = now;
    };
  }
  RunOut out;
  const auto t0 = Clock::now();
  last = t0;
  if (opt.sampler == fault::SamplerMode::kStratified) {
    const Span s(tr, "fault.Campaign.run_stratified");
    const fault::StratifiedResult r = c.run_stratified(opt, shard);
    out.wall = since(t0);
    out.bytes = stratified_bytes(r);
    out.trials = r.trials;
    out.masked = r.masked_exits;
    out.rounds = r.rounds;
    out.counts = r.counts(
        [](const fault::OutcomeAccumulator& a) { return a.sdc1_count(); });
  } else {
    const Span s(tr, "fault.Campaign.run_shard");
    const fault::ShardResult r = c.run_shard(opt, shard);
    out.wall = since(t0);
    out.bytes = r.acc.bytes();
    out.trials = r.acc.trials();
    out.masked = r.masked_exits;
  }
  return out;
}

struct Loaded {
  dnn::Model model;
  std::unique_ptr<fault::Campaign> campaign;
};

/// The in-process set-up a campaign pays once: model load, input
/// generation, Campaign construction (plan, activation caches, ranges).
Loaded set_up(const Workload& w, Tracer& tr) {
  Loaded l;
  {
    const Span s(tr, "data.pretrained");
    l.model = data::pretrained(w.net);
  }
  std::vector<dnn::Example> inputs;
  {
    const Span s(tr, "data.test_inputs");
    inputs = test_inputs(w.net);
  }
  const Span s(tr, "fault.Campaign.construct");
  l.campaign = std::make_unique<fault::Campaign>(l.model.spec, l.model.blob,
                                                 w.dtype, std::move(inputs));
  return l;
}

// ---- correctness gate -----------------------------------------------------

std::uint64_t fnv1a(const Bytes& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t x : b) {
    h ^= x;
    h *= 0x100000001b3ULL;
  }
  return h;
}

class Gate {
 public:
  explicit Gate(bool corrupt_first) : corrupt_(corrupt_first) {}

  /// Compares a timed run against the reference; counts its trials as
  /// attempted, and as failed on mismatch (or when trials were aborted).
  void check(const char* what, Bytes got, const Bytes& ref,
             std::uint64_t trials, std::uint64_t aborted = 0) {
    if (corrupt_ && !got.empty()) {
      got[got.size() / 2] ^= 0x01;
      corrupt_ = false;
    }
    attempted_ += trials;
    if (got != ref) {
      failed_ += trials;
      ok_ = false;
      std::cerr << "perfbench: correctness gate FAILED: " << what
                << " accumulator bytes differ from the reference\n";
    } else if (aborted > 0) {
      failed_ += aborted;
    }
  }

  /// A reference-vs-reference check. When it fails, the reference every
  /// timed run is held to is wrong, so every attempted trial counts as
  /// failed.
  void require(const char* what, bool holds) {
    if (!holds) {
      ok_ = false;
      reference_wrong_ = true;
      std::cerr << "perfbench: correctness gate FAILED: " << what << "\n";
    }
  }

  /// Records the reference the timed runs are held to.
  void reference(const Bytes& b) { digest_ = fnv1a(b); }
  std::uint64_t digest() const noexcept { return digest_; }

  /// An untimed run whose trials still count as attempted.
  void count(std::uint64_t trials) { attempted_ += trials; }

  bool ok() const noexcept { return ok_; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept {
    return reference_wrong_ ? attempted_ : failed_;
  }

 private:
  bool corrupt_;
  bool ok_ = true;
  bool reference_wrong_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = 0;
};


/// The scalar-kernel reference. Uniform campaigns: the scalar kernels'
/// first P trials merged with the active kernels' remaining trials must
/// reproduce `ref`, the whole run. Stratified: the scalar kernels' first
/// rounds (up to P trials) must equal the active kernels' first rounds.
bool scalar_reference_matches(const Workload& w, const Loaded& l,
                              fault::CampaignOptions opt, ThreadPool& pool,
                              Tracer& tr, const Bytes& ref) {
  const std::string mode = dnn::kernels::kernel_profile().mode;
  dnn::kernels::set_active_mode("scalar");
  const fault::Campaign scalar(l.model.spec, l.model.blob, w.dtype,
                               test_inputs(w.net));
  dnn::kernels::set_active_mode(mode);
  fault::ShardSpec prefix;
  if (w.stratified) {
    prefix.stop_after = w.prefix;
    prefix.batch = 1u << 30;  // stop at the first round boundary past P
    return run_campaign(scalar, opt, pool, prefix, tr).bytes ==
           run_campaign(*l.campaign, opt, pool, prefix, tr).bytes;
  }
  opt.pool = &pool;
  prefix.end = w.prefix;
  fault::ShardSpec rest;
  rest.begin = w.prefix;
  fault::ShardResult head = [&] {
    const Span s(tr, "fault.Campaign.run_shard.scalar");
    return scalar.run_shard(opt, prefix);
  }();
  head.acc.merge(l.campaign->run_shard(opt, rest).acc);
  return head.acc.bytes() == ref;
}

// ---- supervised runs ------------------------------------------------------

struct SupervisedOut {
  RunOut run;
  fault::SupervisorReport report;
};

/// One supervised campaign in a fresh checkpoint directory: `workers`
/// single-thread worker processes over shards of trials / workers.
std::optional<SupervisedOut> supervise(const Workload& w, std::uint64_t seed,
                                       std::uint64_t trials, int workers,
                                       const std::string& bin,
                                       const std::string& dir, Tracer& tr) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  fault::SupervisorOptions so;
  so.binary = bin;
  so.trials = trials;
  so.workers = workers;
  so.shard_size = (trials + static_cast<std::uint64_t>(workers) - 1) /
                  static_cast<std::uint64_t>(workers);
  so.checkpoint_dir = dir;
  so.jitter_seed = seed;
  so.verbose = false;
  // Checkpoint every batch: ten shard checkpoints per worker.
  const std::uint64_t batch = std::max<std::uint64_t>(1, so.shard_size / 10);
  so.worker_flags = {"--network", cli_network(w.net),
                     "--dtype",   std::string(numeric::dtype_name(w.dtype)),
                     "--site",    fault::site_class_name(w.site),
                     "--trials",  std::to_string(trials),
                     "--seed",    std::to_string(seed),
                     "--inputs",  std::to_string(kInputs),
                     "--batch",   std::to_string(batch)};
  SupervisedOut out;
  const auto t0 = Clock::now();
  auto rep = [&] {
    const Span s(tr, "fault.supervise");
    return fault::supervise(so);
  }();
  out.run.wall = since(t0);
  if (!rep.ok() || rep.value().cancelled) {
    std::cerr << "perfbench: supervise failed: "
              << (rep.ok() ? std::string("cancelled")
                           : rep.error().to_string())
              << "\n";
    return std::nullopt;
  }
  out.report = std::move(rep.value());
  {
    // Final aggregates on disk, as `dnnfi_campaign supervise --out` does.
    const Span s(tr, "fault.write_stats_file");
    (void)fault::write_stats_file(dir + "/campaign.stats",
                                  out.report.fingerprint, out.report.acc,
                                  out.report.masked_exits,
                                  out.report.aborted_trials);
  }
  out.run.bytes = out.report.acc.bytes();
  out.run.trials = trials;
  out.run.aborted = out.report.aborted_trials.size();
  return out;
}

// ---- per-layer probes (--trace 1) ------------------------------------------

/// Runs `fn` repeatedly for about `budget_s` (at least `min_reps` times)
/// and returns the median seconds per call. One span covers the loop, so
/// micro-benchmarks do not flood the span file.
template <typename Fn>
double time_median(Tracer& tr, const std::string& name, double budget_s,
                   int min_reps, Fn&& fn) {
  const Span span(tr, name);
  std::vector<double> v;
  const auto start = Clock::now();
  while (static_cast<int>(v.size()) < min_reps || since(start) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(since(t0));
    if (v.size() >= 100000) break;
  }
  return median(v);
}

const char* step_kind(const dnn::PlanStep<numeric::Half>& st) {
  switch (st.kernel) {
    case dnn::StepKernel::kConv: return "conv";
    case dnn::StepKernel::kFc: return "fc";
    case dnn::StepKernel::kRelu: return "relu";
    case dnn::StepKernel::kLrn: return "lrn";
    case dnn::StepKernel::kMaxPool: return "maxpool";
    case dnn::StepKernel::kAvgPool: return "avgpool";
    case dnn::StepKernel::kSoftmax: return "softmax";
    case dnn::StepKernel::kNone: break;
  }
  return dnn::layer_kind_name(st.layer->kind());
}

/// Independent-chain mul+add loops: `kChains` accumulators, each step one
/// multiply and one separate add per lane (no FMA: the exact kernel sets
/// issue separate mul and add too). Returns GFLOP/s on one core.
constexpr int kChains = 12;

template <typename V>
[[gnu::always_inline]] inline double chain_loop(std::size_t iters, float m,
                                                float a, int lanes) {
  V acc[kChains];
  V vm, va;
  for (int l = 0; l < lanes; ++l) {
    vm[l] = m;
    va[l] = a;
  }
  for (int k = 0; k < kChains; ++k)
    for (int l = 0; l < lanes; ++l) acc[k][l] = 1.0f + static_cast<float>(k);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * vm + va;
  const double s = since(t0);
  float sink = 0;
  for (int k = 0; k < kChains; ++k)
    for (int l = 0; l < lanes; ++l) sink += acc[k][l];
  if (sink == 12345.0f) std::cerr << "";  // keep the chains live
  return 2.0 * kChains * lanes * static_cast<double>(iters) / s / 1e9;
}

typedef float v16f __attribute__((vector_size(64)));
typedef float v8f __attribute__((vector_size(32)));
typedef float v1f __attribute__((vector_size(4)));

[[gnu::target("avx512f"), gnu::noinline]] double peak_avx512(
    std::size_t iters, float m, float a) {
  return chain_loop<v16f>(iters, m, a, 16);
}
[[gnu::target("avx2"), gnu::noinline]] double peak_avx2(std::size_t iters,
                                                        float m, float a) {
  return chain_loop<v8f>(iters, m, a, 8);
}
[[gnu::noinline]] double peak_scalar(std::size_t iters, float m, float a) {
  return chain_loop<v1f>(iters, m, a, 1);
}

/// Peak mul+add GFLOP/s at the active FLOAT kernel set's lane width: the
/// best of several ~20 ms windows.
double peak_gflops(const std::string& active_set) {
  const auto fn = active_set.rfind("avx512", 0) == 0 ? &peak_avx512
                  : active_set.rfind("avx2", 0) == 0 ? &peak_avx2
                                                     : &peak_scalar;
  // Runtime operands: the compiler can fold neither the multiplier nor
  // the addend, and 1.0 * x + tiny keeps every value normal.
  volatile float m = 1.0f, a = 1e-30f;
  std::size_t iters = 1 << 14;
  while (true) {
    const auto t0 = Clock::now();
    fn(iters, m, a);
    if (since(t0) > 0.02 || iters > (std::size_t{1} << 34)) break;
    iters *= 2;
  }
  double best = 0;
  for (int r = 0; r < 5; ++r) best = std::max(best, fn(iters, m, a));
  return best;
}

/// Layer-level probes on one typed network: executor set-up costs, the
/// external 1-thread replay loop (mirroring the campaign's trial path
/// through public calls), sampler, classification and accumulator costs.
template <typename T>
struct TypedProbe {
  dnn::Network<T> net;
  std::vector<dnn::ActivationCache<T>> caches;
  std::vector<dnn::Prediction> golden;

  TypedProbe(const dnn::Model& m, const std::vector<dnn::Example>& inputs,
             Tracer& tr, Metrics& out)
      : net(dnn::instantiate<T>(m.spec, m.blob)) {
    std::vector<double> build_ms;
    for (const auto& ex : inputs) {
      const dnn::Tensor<T> image = tensor::convert<T>(ex.image);
      const auto t0 = Clock::now();
      {
        const Span s(tr, "dnn.ActivationCache.build");
        caches.emplace_back(net.plan(), image);
      }
      build_ms.push_back(since(t0) * 1e3);
      golden.push_back(net.interpret(caches.back().output()));
    }
    out.set("dnn.executor.cache_build_ms", median(build_ms), "ms");
    const dnn::Executor<T> exec(net.plan());
    dnn::Workspace<T> ws(net.plan());
    const dnn::Tensor<T> image = tensor::convert<T>(inputs.front().image);
    dnn::RunRequest<T> req;
    req.input = image.view();
    const double fwd = time_median(tr, "dnn.Executor.run.plain", 0.2, 5, [&] {
      (void)exec.run(ws, req);
    });
    out.set("dnn.executor.forward_ms", fwd * 1e3, "ms");
  }

  /// Replays trials [0, n) one by one through public calls on one thread,
  /// folding records exactly as Campaign does; returns the accumulator.
  fault::OutcomeAccumulator replay(const fault::Campaign& c,
                                   const fault::CampaignOptions& opt,
                                   std::uint64_t n, Tracer& tr,
                                   Metrics& out) {
    const auto ends = fault::block_end_layers(net.spec());
    const std::size_t last_end = ends.back();
    const auto& plan = net.plan();
    const dnn::Executor<T> exec(plan);
    dnn::Workspace<T> ws(plan);
    fault::OutcomeAccumulator acc(ends.size());

    // Sample + lower, timed as one span over the whole batch.
    std::vector<fault::FaultDescriptor> fds(n);
    std::vector<dnn::AppliedFault> afs(n);
    double sample_s = 0;
    {
      const Span s(tr, "fault.Sampler.sample+fault.lower");
      const auto t0 = Clock::now();
      for (std::uint64_t t = 0; t < n; ++t) {
        Rng rng = derive_stream(opt.seed, t);
        fds[t] = c.sampler().sample(opt.site, rng, opt.constraint);
        afs[t] = fault::lower(fds[t], net.mac_layers());
      }
      sample_s = since(t0);
    }

    double corruption = 0;
    const dnn::ActivationCache<T>* cache = nullptr;
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          if (layer != last_end) return;
          const std::size_t mism =
              tensor::bitwise_mismatch_count<T>(act, cache->act(layer));
          corruption =
              static_cast<double>(mism) / static_cast<double>(act.size());
        };

    double replay_s = 0, classify_s = 0, add_s = 0;
    std::uint64_t masked = 0, layers = 0, macs = 0;
    fault::TrialRecord tr_rec;
    dnn::ReplayInfo info;
    {
      const Span loop(tr, "replay.loop");
      for (std::uint64_t t = 0; t < n; ++t) {
        const std::size_t input = static_cast<std::size_t>(t % caches.size());
        tr_rec.input_index = input;
        tr_rec.fault = fds[t];
        tr_rec.record = dnn::InjectionRecord{};
        cache = &caches[input];
        corruption = 0;
        dnn::RunRequest<T> req;
        req.cache = cache;
        req.fault = &afs[t];
        req.record = &tr_rec.record;
        req.observer = &observer;
        req.early_exit = opt.incremental_replay;
        req.replay = &info;
        const auto t0 = Clock::now();
        const dnn::ConstTensorView<T> o = exec.run(ws, req);
        const auto t1 = Clock::now();
        tr.record("dnn.Executor.run.faulty", t0, t1);
        tr_rec.outcome = fault::classify(golden[input], net.interpret(o));
        tr_rec.detected = false;
        tr_rec.output_corruption = corruption;
        tr_rec.block_distance.clear();
        const auto t2 = Clock::now();
        acc.add(tr_rec);
        const auto t3 = Clock::now();
        replay_s += std::chrono::duration<double>(t1 - t0).count();
        classify_s += std::chrono::duration<double>(t2 - t1).count();
        add_s += std::chrono::duration<double>(t3 - t2).count();
        if (info.masked) ++masked;
        layers += info.layers_run;
        for (std::size_t l = info.fault_layer;
             l < info.fault_layer + info.layers_run; ++l)
          macs += plan.steps()[l].macs;
      }
    }
    const double dn = static_cast<double>(n);
    out.set("fault.sampler.sample_lower_ns", sample_s / dn * 1e9, "ns");
    out.set("replay.ns_per_trial", replay_s / dn * 1e9, "ns");
    out.set("replay.masked_frac", static_cast<double>(masked) / dn, "ratio");
    out.set("replay.layers_per_trial", static_cast<double>(layers) / dn,
            "count");
    out.set("replay.macs_per_trial", static_cast<double>(macs) / dn, "count");
    out.set("fault.outcome.classify_ns", classify_s / dn * 1e9, "ns");
    out.set("fault.accumulator.add_ns", add_s / dn * 1e9, "ns");
    covered_s = sample_s + replay_s + classify_s + add_s;
    return acc;
  }

  double covered_s = 0;  ///< time inside timed public calls, last replay()
};

/// Executor step profile and kernel throughput on AlexNet-S: the network
/// whose conv (gbuf) and post-MAC (latch) steps the headline workloads
/// load. Both the FLOAT16 and FLOAT plans are probed.
template <typename T>
struct KernelTimes {
  double conv_s = 0, fc_s = 0;
  double conv_flop = 0, fc_flop = 0;
  double conv_bytes = 0, fc_bytes = 0;
  double lrn_ns = 0, maxpool_ns = 0, relu_ns = 0;
};

template <typename T>
KernelTimes<T> kernel_probe(const dnn::Network<T>& net,
                            const dnn::ActivationCache<T>& cache, Tracer& tr,
                            const char* tag) {
  KernelTimes<T> k;
  const auto& plan = net.plan();
  const auto& set = plan.kernel_set();
  for (std::size_t i = 0; i < plan.num_layers(); ++i) {
    const auto& st = plan.steps()[i];
    const T* in = cache.layer_input(i).data().data();
    std::vector<T> out(st.out_shape.size());
    std::vector<T> packed;
    const std::string span = std::string("dnn.kernels.") + tag + ".";
    switch (st.kernel) {
      case dnn::StepKernel::kConv: {
        const std::size_t rows = st.conv.out_c, cols = st.conv.steps();
        packed.resize(dnn::kernels::packed_elems(rows, cols, set.pack_lanes));
        if (!packed.empty())
          dnn::kernels::pack_rows(st.w, rows, cols, set.pack_lanes,
                                  packed.data());
        const T* pk = packed.empty() ? nullptr : packed.data();
        k.conv_s += time_median(tr, span + "conv", 0.05, 3, [&] {
          set.conv(st.conv, in, st.w, pk, st.bias, out.data());
        });
        k.conv_flop += 2.0 * static_cast<double>(st.macs);
        k.conv_bytes += static_cast<double>(
            (st.in_shape.size() + rows * cols + rows + out.size()) *
            sizeof(T));
        break;
      }
      case dnn::StepKernel::kFc: {
        const std::size_t rows = st.fc.out, cols = st.fc.in;
        packed.resize(dnn::kernels::packed_elems(rows, cols, set.pack_lanes));
        if (!packed.empty())
          dnn::kernels::pack_rows(st.w, rows, cols, set.pack_lanes,
                                  packed.data());
        const T* pk = packed.empty() ? nullptr : packed.data();
        k.fc_s += time_median(tr, span + "fc", 0.02, 3, [&] {
          set.fc(st.fc, in, st.w, pk, st.bias, out.data());
        });
        k.fc_flop += 2.0 * static_cast<double>(st.macs);
        k.fc_bytes += static_cast<double>(
            (cols + rows * cols + rows + rows) * sizeof(T));
        break;
      }
      case dnn::StepKernel::kLrn:
        k.lrn_ns += 1e9 * time_median(tr, span + "lrn_forward", 0.02, 3, [&] {
          dnn::kernels::lrn_forward(st.lrn, in, out.data());
        });
        break;
      case dnn::StepKernel::kMaxPool:
        k.maxpool_ns += 1e9 * time_median(tr, span + "maxpool_forward", 0.02, 3, [&] {
          dnn::kernels::maxpool_forward(st.pool, in, out.data());
        });
        break;
      case dnn::StepKernel::kRelu:
        k.relu_ns += 1e9 * time_median(tr, span + "relu_forward", 0.01, 3, [&] {
          dnn::kernels::relu_forward(in, out.data(), st.in_shape.size());
        });
        break;
      default:
        break;
    }
  }
  return k;
}

void alexnet_probes(Tracer& tr, Metrics& out) {
  const dnn::Model m = data::pretrained(NetworkId::kAlexNetS);
  const auto inputs = test_inputs(NetworkId::kAlexNetS);
  const auto net16 = dnn::instantiate<numeric::Half>(m.spec, m.blob);
  const auto net32 = dnn::instantiate<float>(m.spec, m.blob);
  const dnn::ActivationCache<numeric::Half> c16(
      net16.plan(), tensor::convert<numeric::Half>(inputs.front().image));
  const dnn::ActivationCache<float> c32(
      net32.plan(), tensor::convert<float>(inputs.front().image));

  // Per-step wall time of the FLOAT16 plan through exec_step, from the
  // fault-free cache (the replay path's inputs).
  const auto& plan = net16.plan();
  dnn::Workspace<numeric::Half> ws(plan);
  for (std::size_t i = 0; i < plan.num_layers(); ++i) {
    const auto& st = plan.steps()[i];
    const auto in = c16.layer_input(i);
    const auto o = ws.out_buffer(0, st.out_shape);
    const std::string name = "dnn.executor.step" + std::to_string(i) + "." +
                             step_kind(st);
    const double s = time_median(tr, name, 0.03, 3, [&] {
      plan.exec_step(i, in, o, ws.packed_data());
    });
    out.set(name + ".ns", s * 1e9, "ns");
    if (st.macs > 0)
      out.set(name + ".gflops", 2.0 * static_cast<double>(st.macs) / s / 1e9,
              "GFLOP/s");
  }

  const auto k16 = kernel_probe(net16, c16, tr, "f16");
  const auto k32 = kernel_probe(net32, c32, tr, "f32");
  const double peak = [&] {
    const Span s(tr, "perfbench.peak_probe");
    return peak_gflops(dnn::kernels::kernel_profile().active_float);
  }();
  const double conv16 = k16.conv_flop / k16.conv_s / 1e9;
  out.set("dnn.kernels.conv_f16.gflops", conv16, "GFLOP/s");
  out.set("dnn.kernels.conv_f32.gflops", k32.conv_flop / k32.conv_s / 1e9,
          "GFLOP/s");
  out.set("dnn.kernels.fc_f16.gflops", k16.fc_flop / k16.fc_s / 1e9,
          "GFLOP/s");
  out.set("dnn.kernels.fc_f32.gflops", k32.fc_flop / k32.fc_s / 1e9,
          "GFLOP/s");
  out.set("dnn.kernels.conv_f16.bytes", k16.conv_bytes, "bytes");
  out.set("dnn.kernels.fc_f16.bytes", k16.fc_bytes, "bytes");
  out.set("dnn.kernels.lrn_f16.ns", k16.lrn_ns, "ns");
  out.set("dnn.kernels.lrn_f32.ns", k32.lrn_ns, "ns");
  out.set("dnn.kernels.maxpool_f16.ns", k16.maxpool_ns, "ns");
  out.set("dnn.kernels.maxpool_f32.ns", k32.maxpool_ns, "ns");
  out.set("dnn.kernels.relu_f16.ns", k16.relu_ns, "ns");
  out.set("dnn.kernels.relu_f32.ns", k32.relu_ns, "ns");
  out.set("dnn.kernels.peak.gflops", peak, "GFLOP/s");
  out.set("dnn.kernels.conv_f16.pct_peak", 100.0 * conv16 / peak, "%");
}

/// Checkpoint, stats and frame codec costs on the workload's own
/// accumulator.
void artifact_probes(const fault::OutcomeAccumulator& acc,
                     std::uint64_t trials, const std::string& dir,
                     Tracer& tr, Metrics& out) {
  std::filesystem::create_directories(dir);
  fault::ShardCheckpoint ck;
  ck.fingerprint = 1;
  ck.network = "perfbench";
  ck.trials_total = trials;
  ck.shard_end = trials;
  ck.next_trial = trials;
  ck.complete = true;
  ck.acc = acc;
  const std::string path = dir + "/probe.ckpt";
  const double save = time_median(tr, "fault.try_save_shard_checkpoint", 0.05, 5, [&] {
    (void)fault::try_save_shard_checkpoint(path, ck);
  });
  const double load = time_median(tr, "fault.try_load_shard_checkpoint", 0.05, 5, [&] {
    (void)fault::try_load_shard_checkpoint(path);
  });
  out.set("fault.checkpoint.save_ms", save * 1e3, "ms");
  out.set("fault.checkpoint.load_ms", load * 1e3, "ms");
  out.set("fault.checkpoint.bytes",
          static_cast<double>(std::filesystem::file_size(path)), "bytes");

  const double stats = time_median(tr, "fault.write_stats_file", 0.05, 5, [&] {
    (void)fault::write_stats_file(dir + "/probe.stats", 1, acc, 0);
  });
  out.set("fault.stats_io.write_ms", stats * 1e3, "ms");

  // Frame codec on a checkpoint-sized payload (the file image a worker
  // ships home every batch).
  auto image = fault::read_checkpoint_bytes(path);
  const Bytes payload = image.ok() ? image.value() : Bytes(1024, 0);
  const double mb = static_cast<double>(payload.size()) / 1e6;
  Bytes frame;
  const double enc = time_median(tr, "fault.encode_frame", 0.05, 20, [&] {
    frame = fault::encode_frame(fault::FrameType::kCheckpoint, payload.data(),
                                payload.size());
  });
  const double dec = time_median(tr, "fault.FrameDecoder", 0.05, 20, [&] {
    fault::FrameDecoder d;
    d.feed(frame.data(), frame.size());
    (void)d.next();
  });
  out.set("fault.transport.frame_encode_mbps", mb / enc, "MB/s");
  out.set("fault.transport.frame_decode_mbps", mb / dec, "MB/s");
}

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string campaign_bin;
  std::string work_dir = ".";
  std::string spans;
  bool corrupt = false;
  /// Set in the child process that peak_rss_mb measures: the reference
  /// digest its one campaign run must reproduce.
  std::optional<std::uint64_t> rss_probe;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_campaign: " << why << "\n"
            << "usage: perfbench_campaign --workload NAME --seed N "
               "--seconds S --trace 0|1 --campaign-bin PATH --work-dir DIR "
               "[--spans FILE] [--corrupt-accumulator] [--rss-probe HEX]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-accumulator") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--campaign-bin") a.campaign_bin = v;
      else if (k == "--work-dir") a.work_dir = v;
      else if (k == "--spans") a.spans = v;
      else if (k == "--rss-probe") a.rss_probe = std::stoull(v, nullptr, 16);
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string host_json(std::size_t threads, const char* unit) {
  const auto p = dnn::kernels::kernel_profile();
  std::ostringstream os;
  os << "{\"nproc\": " << nproc() << ", \"" << unit << "\": " << threads
     << ", \"kernel_mode\": \"" << p.mode << "\", \"kernels_float\": \""
     << p.active_float << "\", \"kernels_float16\": \"" << p.active_float16
     << "\", \"cpu_avx2\": " << (p.cpu_avx2 ? "true" : "false")
     << ", \"cpu_avx512_bundle\": " << (p.cpu_avx512 ? "true" : "false")
     << ", \"cpu_f16c\": " << (p.cpu_f16c ? "true" : "false")
     << ", \"f16c_compiled\": " << (p.f16c_compiled ? "true" : "false")
     << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

/// Appends `"name": [sample, ...]` to the record's info, in the order the
/// samples were taken, so a reader can see what a median rests on.
void describe(std::ostringstream& info, const char* name,
              const std::vector<double>& v) {
  info << "\"" << name << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) info << (i ? ", " : "") << v[i];
  info << "], ";
}

/// Budgeted repetition: runs `fn` at least `min_reps` times and until
/// `budget_s` has elapsed.
template <typename Fn>
void repeat(double budget_s, int min_reps, Fn&& fn) {
  const auto start = Clock::now();
  for (int r = 0; r < min_reps || since(start) < budget_s; ++r) fn();
}

/// The measurement window of --trace 0: `cycle` takes samples of every
/// end-to-end metric, repeated (at least 3 times) while the next cycle
/// still fits in `budget_s`. Interleaving keeps a slow stretch of the host
/// from landing on one metric only.
template <typename Fn>
int cycles(double budget_s, Fn&& cycle) {
  const auto start = Clock::now();
  int n = 0;
  for (double last = 0; n < 3 || since(start) + last < budget_s; ++n) {
    const auto t0 = Clock::now();
    cycle();
    last = since(t0);
  }
  return n;
}

/// The --rss-probe child: holds what one `dnnfi_campaign run` holds, one
/// set-up and one campaign run on nproc threads, and nothing else. Exits 0
/// when the run's accumulator bytes match the reference digest.
int rss_probe_child(const Workload& w, const Args& a) {
  Tracer off(false);
  const Loaded l = set_up(w, off);
  ThreadPool pool(nproc());
  const RunOut r =
      run_campaign(*l.campaign, campaign_options(w, a.seed), pool, {}, off);
  return fnv1a(r.bytes) == *a.rss_probe ? 0 : 1;
}

/// Peak RSS of a fresh --rss-probe child (this binary, re-executed), or
/// nothing when the child failed or its bytes differ from `digest`. The
/// harness itself holds several models and campaigns, so its own peak is
/// not the campaign's.
std::optional<double> probe_peak_rss_mb(const Args& a, std::uint64_t digest) {
  std::ostringstream hex;
  hex << std::hex << digest;
  std::vector<std::string> args = {
      "perfbench_campaign", "--workload",  a.workload, "--seed",
      std::to_string(a.seed), "--rss-probe", hex.str()};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                  environ) != 0)
    return std::nullopt;
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return std::nullopt;
  return rss_mb(ru);
}

/// What every workload computes before its timed runs: the first set-up,
/// the 1-thread reference run, and the scalar-kernel check against it.
struct Prepared {
  Loaded l;
  RunOut ref;  ///< 1-thread run of the whole campaign
  std::vector<double> setup_s;
};

Prepared prepare(const Workload& w, const fault::CampaignOptions& opt,
                 ThreadPool& pool_n, ThreadPool& pool_1, Tracer& tr,
                 Gate& gate) {
  Prepared p;
  const auto t0 = Clock::now();
  p.l = set_up(w, tr);
  p.setup_s.push_back(since(t0));
  // Warm-up (pool spin-up, first touch of the caches), untimed.
  {
    fault::ShardSpec warm;
    if (w.stratified) {
      warm.stop_after = 256;
      warm.batch = 1u << 30;
    } else {
      warm.end = std::max<std::uint64_t>(1, w.trials / 8);
    }
    gate.count(run_campaign(*p.l.campaign, opt, pool_n, warm, tr).trials);
  }
  p.ref = run_campaign(*p.l.campaign, opt, pool_1, {}, tr);
  gate.count(p.ref.trials);
  gate.reference(p.ref.bytes);
  gate.require("scalar-kernel reference differs from the active kernels",
               scalar_reference_matches(w, p.l, opt, pool_n, tr, p.ref.bytes));
  return p;
}

double tps(const RunOut& r) {
  return static_cast<double>(r.trials) / r.wall;
}

/// --trace 0 for the in-process workloads. Each leg of a cycle steps
/// through the run's campaign seeds, and every run is held to the 1-thread
/// reference of its own seed.
void in_process_e2e(const Workload& w, const Args& a, Tracer& tr, Gate& gate,
                    Metrics& out, std::ostringstream& info) {
  ThreadPool pool_n(nproc()), pool_1(1);
  std::vector<fault::CampaignOptions> opts;
  for (const std::uint64_t seed : run_seeds(w, a.seed))
    opts.push_back(campaign_options(w, seed));
  const std::size_t k = opts.size();
  Prepared p = prepare(w, opts[0], pool_n, pool_1, tr, gate);
  std::vector<Bytes> refs{p.ref.bytes};
  Pooled one_thread;
  std::vector<double> tpsn, tps1{tps(p.ref)}, campaign_s;
  one_thread.add(static_cast<double>(p.ref.trials), p.ref.wall);
  for (std::size_t i = 1; i < k; ++i) {
    const RunOut ref = run_campaign(*p.l.campaign, opts[i], pool_1, {}, tr);
    gate.count(ref.trials);
    gate.require("scalar-kernel reference differs from the active kernels",
                 scalar_reference_matches(w, p.l, opts[i], pool_n, tr,
                                          ref.bytes));
    refs.push_back(ref.bytes);
    tps1.push_back(tps(ref));
    one_thread.add(static_cast<double>(ref.trials), ref.wall);
  }

  std::vector<double> rss;
  for (int r = 0; r < 3; ++r) {
    if (const auto mb = probe_peak_rss_mb(a, gate.digest())) {
      gate.count(p.ref.trials);
      rss.push_back(*mb);
    } else {
      gate.check("peak-RSS probe run", {}, p.ref.bytes, p.ref.trials);
    }
  }

  std::size_t next_1t = 1 % k;  // the 1-thread leg's next seed
  const int n = cycles(0.9 * a.seconds, [&] {
    for (int r = 0; r < 6; ++r) {
      const auto t0 = Clock::now();
      const Loaded l = set_up(w, tr);
      p.setup_s.push_back(since(t0));
    }
    for (std::size_t r = 0; r < std::max<std::size_t>(4, k); ++r) {
      const std::size_t i = r % k;
      const RunOut run = run_campaign(*p.l.campaign, opts[i], pool_n, {}, tr);
      gate.check("timed run", run.bytes, refs[i], run.trials);
      tpsn.push_back(tps(run));
    }
    for (int r = 0; r < 2; ++r) {
      const std::size_t i = next_1t;
      next_1t = (next_1t + 1) % k;
      const RunOut one = run_campaign(*p.l.campaign, opts[i], pool_1, {}, tr);
      gate.check("1-thread run", one.bytes, refs[i], one.trials);
      tps1.push_back(tps(one));
      one_thread.add(static_cast<double>(one.trials), one.wall);
    }
    for (std::size_t r = 0; r < std::max<std::size_t>(2, k); ++r) {
      const std::size_t i = r % k;
      const auto t0 = Clock::now();
      const Loaded fresh = set_up(w, tr);
      const RunOut run = run_campaign(*fresh.campaign, opts[i], pool_n, {}, tr);
      campaign_s.push_back(since(t0));
      gate.check("set-up + campaign run", run.bytes, refs[i], run.trials);
    }
  });
  out.set("trials_per_s", median(tpsn), "1/s");
  out.set("trials_per_s_1t", one_thread.rate(), "1/s");
  out.set("setup_s", median(p.setup_s), "s");
  out.set("campaign_s", median(campaign_s), "s");
  out.set("peak_rss_mb", median(rss), "MB");
  info << "\"trials_per_run\": " << p.ref.trials
       << ", \"rounds\": " << p.ref.rounds << ", \"masked_frac\": "
       << static_cast<double>(p.ref.masked) / static_cast<double>(p.ref.trials)
       << ", \"campaign_seeds\": " << k << ", \"cycles\": " << n << ", ";
  describe(info, "trials_per_s", tpsn);
  describe(info, "trials_per_s_1t", tps1);
  describe(info, "setup_s", p.setup_s);
  describe(info, "campaign_s", campaign_s);
}

/// --trace 0 for supervise-convnet-f32: nproc single-thread workers.
void supervised_e2e(const Workload& w, const Args& a, Tracer& tr, Gate& gate,
                    Metrics& out, std::ostringstream& info) {
  const std::size_t n = nproc();
  const int workers = static_cast<int>(n);
  ThreadPool pool_n(n), pool_1(1);
  const fault::CampaignOptions opt = campaign_options(w, a.seed);
  const Prepared p = prepare(w, opt, pool_n, pool_1, tr, gate);
  const RunOut inproc = run_campaign(*p.l.campaign, opt, pool_n, {}, tr);
  gate.count(inproc.trials);
  gate.require("in-process run differs from the 1-thread run",
               inproc.bytes == p.ref.bytes);
  const std::string dir = a.work_dir + "/supervise";

  // Set-up: a supervised campaign of one trial per worker prices spawn,
  // per-worker model load and the merge.
  fault::CampaignOptions tiny = opt;
  tiny.trials = n;
  const RunOut tiny_ref = run_campaign(*p.l.campaign, tiny, pool_n, {}, tr);
  // One supervised campaign, gated; its supervise() wall time, or nothing
  // when it failed.
  const auto supervised = [&](std::uint64_t trials, int k, const Bytes& ref,
                              const char* what) -> std::optional<double> {
    const auto r = supervise(w, a.seed, trials, k, a.campaign_bin, dir, tr);
    if (!r) {
      gate.check(what, {}, ref, trials);
      return std::nullopt;
    }
    gate.check(what, r->run.bytes, ref, trials, r->run.aborted);
    return r->run.wall;
  };
  std::vector<double> setup_s, tpsn, tps1, campaign_s;
  Pooled one_worker;
  const int cycles_run = cycles(0.9 * a.seconds, [&] {
    for (int r = 0; r < 6; ++r)
      if (const auto s =
              supervised(n, workers, tiny_ref.bytes, "supervised set-up"))
        setup_s.push_back(*s);
    for (int r = 0; r < 4; ++r) {
      const auto t0 = Clock::now();
      if (const auto s =
              supervised(w.trials, workers, p.ref.bytes, "supervised run")) {
        tpsn.push_back(static_cast<double>(w.trials) / *s);
        campaign_s.push_back(since(t0));  // + the stats-file write
      }
    }
    for (int r = 0; r < 4; ++r)
      if (const auto s = supervised(w.trials, 1, p.ref.bytes,
                                    "1-worker supervised run")) {
        tps1.push_back(static_cast<double>(w.trials) / *s);
        one_worker.add(static_cast<double>(w.trials), *s);
      }
  });
  out.set("trials_per_s", median(tpsn), "1/s");
  out.set("trials_per_s_1t", one_worker.rate(), "1/s");
  out.set("setup_s", median(setup_s), "s");
  out.set("campaign_s", median(campaign_s), "s");
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);  // the largest worker
  out.set("peak_rss_mb", rss_mb(ru), "MB");
  info << "\"trials_per_run\": " << w.trials << ", \"cycles\": "
       << cycles_run << ", ";
  describe(info, "trials_per_s", tpsn);
  describe(info, "trials_per_s_1t", tps1);
  describe(info, "setup_s", setup_s);
  describe(info, "campaign_s", campaign_s);
}

/// --trace 1: the per-layer metrics, measured on the workload's own
/// (network, datatype, site) wherever the layer is workload-specific.
void trace_layers(const Workload& w, const Args& a, Tracer& tr, Gate& gate,
                  Metrics& out, std::ostringstream& info) {
  const std::size_t n = nproc();
  ThreadPool pool_n(n), pool_1(1);
  const fault::CampaignOptions opt = campaign_options(w, a.seed);
  const Prepared p = prepare(w, opt, pool_n, pool_1, tr, gate);
  const fault::Campaign& c = *p.l.campaign;

  out.set("data.model_load_s", time_median(tr, "data.pretrained", 0.0, 3, [&] {
            (void)data::pretrained(w.net);
          }),
          "s");

  // External replay loop vs run_shard on the same uniform trials.
  fault::CampaignOptions uni = opt;
  uni.sampler = fault::SamplerMode::kUniform;
  uni.trials = static_cast<std::size_t>(
      w.stratified ? 4096 : std::max<std::uint64_t>(256, w.trials / 4));
  const auto inputs = test_inputs(w.net);
  Bytes external;
  double covered = 0;
  if (w.dtype == numeric::DType::kFloat16) {
    TypedProbe<numeric::Half> probe(p.l.model, inputs, tr, out);
    external = probe.replay(c, uni, uni.trials, tr, out).bytes();
    covered = probe.covered_s;
  } else {
    TypedProbe<float> probe(p.l.model, inputs, tr, out);
    external = probe.replay(c, uni, uni.trials, tr, out).bytes();
    covered = probe.covered_s;
  }
  const RunOut one = run_campaign(c, uni, pool_1, {}, tr);
  gate.count(one.trials);
  gate.require("external replay loop differs from run_shard",
               external == one.bytes);
  out.set("fault.campaign.overhead_frac", 1.0 - covered / one.wall, "ratio");

  ByteReader reader(one.bytes);
  const fault::OutcomeAccumulator acc =
      fault::OutcomeAccumulator::deserialize(reader);
  std::vector<double> merge_s;
  for (int r = 0; r < 200; ++r) {
    fault::OutcomeAccumulator x = acc;
    const auto t0 = Clock::now();
    {
      const Span s(tr, "fault.OutcomeAccumulator.merge");
      x.merge(acc);
    }
    merge_s.push_back(since(t0));
  }
  out.set("fault.accumulator.merge_us", median(merge_s) * 1e6, "us");
  out.set("fault.accumulator.bytes", static_cast<double>(one.bytes.size()),
          "bytes");

  // Parallel efficiency from plain runs, as trials_per_s is measured. The
  // tracing overhead from untraced vs traced runs that take the same
  // batches and a progress callback, so only the traced run's span and
  // batch-time recording differs.
  std::vector<double> plain_s, untraced_s, traced_s, batch_ms;
  fault::ShardSpec batched;
  batched.batch = w.stratified ? (1u << 30)
                               : std::max<std::uint64_t>(1, w.trials / 16);
  fault::CampaignOptions noop = opt;
  noop.progress = [](const fault::CampaignProgress&) {};
  Tracer untraced(false);
  repeat(0.3 * a.seconds, 3, [&] {
    const RunOut plain = run_campaign(c, opt, pool_n, {}, untraced);
    gate.check("plain run", plain.bytes, p.ref.bytes, plain.trials);
    const RunOut u = run_campaign(c, noop, pool_n, batched, untraced);
    gate.check("untraced run", u.bytes, p.ref.bytes, u.trials);
    const RunOut t = run_campaign(c, opt, pool_n, batched, tr, &batch_ms);
    gate.check("traced run", t.bytes, p.ref.bytes, t.trials);
    plain_s.push_back(plain.wall);
    untraced_s.push_back(u.wall);
    traced_s.push_back(t.wall);
  });
  const double tps_n = static_cast<double>(p.ref.trials) / median(plain_s);
  out.set("fault.campaign.parallel_eff",
          tps_n / (static_cast<double>(n) * tps(p.ref)), "ratio");
  out.set("fault.campaign.batch_ms.p50", median(batch_ms), "ms");
  out.set("fault.campaign.batch_ms.max", max_of(batch_ms), "ms");
  out.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0,
          "ratio");

  // The adaptive controller on this workload's configuration.
  fault::CampaignOptions strat = opt;
  if (!w.stratified) {
    strat.sampler = fault::SamplerMode::kStratified;
    strat.trials = static_cast<std::size_t>(
        std::max<std::uint64_t>(1024, w.trials / 4));
    strat.stratified.target_ci = 0;  // a fixed budget
  }
  std::vector<double> round_ms;
  fault::ShardSpec per_round;
  per_round.batch = 1u << 30;
  const RunOut sr = run_campaign(c, strat, pool_n, per_round, tr, &round_ms);
  gate.count(sr.trials);
  out.set("fault.adaptive_sampler.rounds", static_cast<double>(sr.rounds),
          "count");
  out.set("fault.adaptive_sampler.trials", static_cast<double>(sr.trials),
          "count");
  out.set("fault.adaptive_sampler.next_allocation_us",
          1e6 * time_median(tr, "fault.next_allocation", 0.05, 20, [&] {
            (void)fault::next_allocation(sr.counts, strat.stratified,
                                         strat.trials);
          }),
          "us");
  out.set("fault.adaptive_sampler.round_ms.p50", median(round_ms), "ms");

  artifact_probes(acc, one.trials, a.work_dir + "/artifacts", tr, out);
  alexnet_probes(tr, out);

  // The supervisor on this workload's (uniform) campaign vs in process.
  fault::CampaignOptions sup_opt = uni;
  sup_opt.trials = static_cast<std::size_t>(w.stratified ? 16384 : w.trials);
  const RunOut inproc = run_campaign(c, sup_opt, pool_n, {}, tr);
  gate.count(inproc.trials);
  const auto sup = supervise(w, a.seed, sup_opt.trials, static_cast<int>(n),
                             a.campaign_bin, a.work_dir + "/supervise", tr);
  if (!sup) {
    gate.check("supervised run", {}, inproc.bytes, sup_opt.trials);
    return;
  }
  gate.check("supervised run", sup->run.bytes, inproc.bytes, sup_opt.trials,
             sup->run.aborted);
  const auto& rep = sup->report;
  out.set("fault.supervisor.workers_spawned", rep.workers_spawned, "count");
  // Retries and watchdog kills are 0 on a good run, so each is reported as
  // the share of worker launches that ended without one (1 on a good run);
  // the raw counts go to the record's info.
  const double spawned = std::max(1, rep.workers_spawned);
  out.set("fault.supervisor.retry_free_frac", 1.0 - rep.retries / spawned,
          "ratio");
  out.set("fault.supervisor.watchdog_free_frac",
          1.0 - rep.watchdog_kills / spawned, "ratio");
  out.set("fault.supervisor.vs_inproc", inproc.wall / sup->run.wall,
          "ratio");
  info << "\"replay_trials\": " << uni.trials << ", \"supervisor_retries\": "
       << rep.retries << ", \"supervisor_watchdog_kills\": "
       << rep.watchdog_kills << ", ";
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage("unknown workload '" + a.workload + "'");
  if (a.rss_probe) return rss_probe_child(*w, a);
  if (a.campaign_bin.empty()) usage("--campaign-bin is required");
  // Supervised workers run one thread each: nproc workers, nproc threads.
  setenv("DNNFI_THREADS", "1", 1);
  std::filesystem::create_directories(a.work_dir);

  Tracer tr(a.trace);
  Gate gate(a.corrupt);
  Metrics out;
  std::ostringstream info;
  try {
    if (a.trace) trace_layers(*w, a, tr, gate, out, info);
    else if (w->supervised) supervised_e2e(*w, a, tr, gate, out, info);
    else in_process_e2e(*w, a, tr, gate, out, info);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w->name << " failed: " << e.what() << "\n";
    return 1;
  }
  if (a.trace && !a.spans.empty() && !tr.write(a.spans))
    std::cerr << "perfbench: could not write spans to " << a.spans << "\n";

  const double attempted = static_cast<double>(gate.attempted());
  const double success =
      attempted > 0 ? 1.0 - static_cast<double>(gate.failed()) / attempted
                    : 0.0;
  Metrics shown;
  if (gate.ok() && !a.trace) out.set("success_frac", success, "ratio");
  if (!gate.ok()) shown.set("success_frac", success, "ratio");
  std::cout << "{\"correct\": " << (gate.ok() ? "true" : "false")
            << ", \"attempted\": " << gate.attempted()
            << ", \"failed\": " << gate.failed() << ", \"metrics\": ";
  (gate.ok() ? out : shown).json(std::cout);
  std::cout << ", \"host\": "
            << host_json(nproc(), w->supervised ? "workers" : "threads")
            << ", \"info\": {" << info.str() << "\"spans\": " << tr.size()
            << ", \"acc_digest\": \"" << std::hex << gate.digest() << std::dec
            << "\"}}" << std::endl;
  return gate.ok() ? 0 : 1;
}
