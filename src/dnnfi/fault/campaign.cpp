#include "dnnfi/fault/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <utility>

#include "dnnfi/common/thread_pool.h"
#include "dnnfi/fault/checkpoint.h"

namespace dnnfi::fault {

using numeric::DType;

std::string sampler_id(const CampaignOptions& opt) {
  return opt.sampler == SamplerMode::kStratified ? opt.stratified.to_string()
                                                 : std::string("uniform");
}

StatsAxes campaign_axes(const CampaignOptions& opt) {
  return StatsAxes{opt.accel.to_string(), opt.constraint.op.to_string(),
                   sampler_id(opt)};
}

std::vector<StratumCheckpoint> StratifiedResult::stratum_state() const {
  DNNFI_EXPECTS(strata.size() == weights.size() &&
                strata.size() == per_stratum.size());
  std::vector<StratumCheckpoint> v(strata.size());
  for (std::size_t h = 0; h < strata.size(); ++h) {
    v[h].id = strata[h].id();
    v[h].weight = weights[h];
    v[h].acc = per_stratum[h];
  }
  return v;
}

std::vector<StratumCounts> StratifiedResult::counts(
    const std::function<std::size_t(const OutcomeAccumulator&)>& metric)
    const {
  DNNFI_EXPECTS(weights.size() == per_stratum.size());
  std::vector<StratumCounts> c(per_stratum.size());
  for (std::size_t h = 0; h < per_stratum.size(); ++h) {
    c[h].weight = weights[h];
    c[h].hits = metric(per_stratum[h]);
    c[h].n = per_stratum[h].trials();
  }
  return c;
}

StratifiedEstimate StratifiedResult::sdc1() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc1().hits; }));
}
StratifiedEstimate StratifiedResult::sdc5() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc5().hits; }));
}
StratifiedEstimate StratifiedResult::sdc10() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc10().hits; }));
}
StratifiedEstimate StratifiedResult::sdc20() const {
  return stratified_estimate(
      counts([](const OutcomeAccumulator& a) { return a.sdc20().hits; }));
}

Estimate CampaignResult::rate(const Pred& pred) const {
  std::size_t hits = 0;
  for (const auto& t : trials) hits += pred(t) ? 1U : 0U;
  return estimate(hits, trials.size());
}

Estimate CampaignResult::rate_if(const Pred& filter, const Pred& pred) const {
  std::size_t hits = 0, n = 0;
  for (const auto& t : trials) {
    if (!filter(t)) continue;
    ++n;
    hits += pred(t) ? 1U : 0U;
  }
  return estimate(hits, n);
}

Estimate CampaignResult::sdc1() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc1; });
}
Estimate CampaignResult::sdc5() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc5; });
}
Estimate CampaignResult::sdc10() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc10; });
}
Estimate CampaignResult::sdc20() const {
  return rate([](const TrialRecord& t) { return t.outcome.sdc20; });
}

std::vector<std::size_t> block_end_layers(const dnn::NetworkSpec& spec) {
  std::vector<std::size_t> ends;
  for (int b = 1; b <= spec.num_blocks(); ++b) {
    std::size_t last = spec.layers.size();
    for (std::size_t i = 0; i < spec.layers.size(); ++i) {
      if (spec.layers[i].block == b &&
          spec.layers[i].kind != dnn::LayerKind::kSoftmax)
        last = i;
    }
    DNNFI_EXPECTS(last < spec.layers.size());
    ends.push_back(last);
  }
  return ends;
}

/// Type-erased backend interface; one TypedBackend<T> per datapath type.
/// The fingerprint is computed by Campaign (it only needs type-erased
/// accessors) and passed down so checkpoints can be validated.
struct Campaign::Backend {
  virtual ~Backend() = default;
  virtual ShardResult run_shard(const CampaignOptions& opt,
                                const ShardSpec& shard, const TrialSink* sink,
                                std::uint64_t fingerprint) const = 0;
  virtual StratifiedResult run_stratified(const CampaignOptions& opt,
                                          const ShardSpec& shard,
                                          std::uint64_t fingerprint) const = 0;
  virtual const dnn::NetworkSpec& spec() const = 0;
  virtual DType dtype() const = 0;
  virtual const Sampler& sampler() const = 0;
  virtual std::size_t num_inputs() const = 0;
  virtual const dnn::Prediction& golden_prediction(std::size_t i) const = 0;
  virtual const std::vector<BlockRange>& golden_block_ranges() const = 0;
};

template <typename T>
struct Campaign::TypedBackend final : Campaign::Backend {
  TypedBackend(const dnn::NetworkSpec& network_spec,
               const dnn::WeightsBlob& blob, std::vector<dnn::Example> inputs)
      : net(dnn::instantiate<T>(network_spec, blob)),
        site_sampler(network_spec, numeric::dtype_of<T>()),
        ends(block_end_layers(network_spec)) {
    DNNFI_EXPECTS(!inputs.empty());
    // Per-layer -> block-slot map, so the hot-path observer is a table
    // lookup instead of a std::find over the block-end list.
    layer_to_block.assign(net.num_layers(), -1);
    for (std::size_t b = 0; b < ends.size(); ++b)
      layer_to_block[ends[b]] = static_cast<int>(b);
    caches.reserve(inputs.size());
    predictions.reserve(inputs.size());
    ranges.assign(ends.size(), BlockRange{std::numeric_limits<double>::max(),
                                          std::numeric_limits<double>::lowest()});
    for (const auto& ex : inputs) {
      const dnn::Tensor<T> image = tensor::convert<T>(ex.image);
      dnn::ActivationCache<T> cache(net.plan(), image);
      predictions.push_back(net.interpret(cache.output()));
      for (std::size_t b = 0; b < ends.size(); ++b) {
        const auto [lo, hi] = tensor::value_range<T>(cache.act(ends[b]));
        ranges[b].lo = std::min(ranges[b].lo, lo);
        ranges[b].hi = std::max(ranges[b].hi, hi);
      }
      caches.push_back(std::move(cache));
    }
  }

  /// Golden truths for blocks a masked-fault early exit skips: in the full
  /// replay those blocks carry exactly the fault-free activations, so the
  /// detector verdict and block distance can be read off precomputed
  /// tables instead of replaying the suffix. The self-distance is almost
  /// always zero, but euclidean_distance clamps non-finite deltas to 1e30,
  /// so an activation holding Inf/NaN has a nonzero distance to itself —
  /// precomputing it (rather than assuming 0) keeps records byte-identical.
  struct GoldenTables {
    std::vector<char> fires;       ///< [input * blocks + b], iff detector
    std::vector<double> self_dist; ///< [input * blocks + b], iff distances
  };

  GoldenTables compute_golden(const CampaignOptions& opt) const {
    GoldenTables g;
    if (opt.incremental_replay && opt.detector) {
      g.fires.assign(caches.size() * ends.size(), 0);
      for (std::size_t in = 0; in < caches.size(); ++in) {
        for (std::size_t b = 0; b < ends.size(); ++b) {
          const auto act = caches[in].act(ends[b]);
          for (std::size_t i = 0; i < act.size(); ++i) {
            const double v = numeric::numeric_traits<T>::to_double(act[i]);
            if (opt.detector(static_cast<int>(b) + 1, v)) {
              g.fires[in * ends.size() + b] = 1;
              break;
            }
          }
        }
      }
    }
    if (opt.incremental_replay && opt.record_block_distances) {
      g.self_dist.assign(caches.size() * ends.size(), 0.0);
      for (std::size_t in = 0; in < caches.size(); ++in)
        for (std::size_t b = 0; b < ends.size(); ++b)
          g.self_dist[in * ends.size() + b] = tensor::euclidean_distance<T>(
              caches[in].act(ends[b]), caches[in].act(ends[b]));
    }
    return g;
  }

  /// One sampled-and-lowered trial awaiting execution. `idx` is the trial's
  /// slot in the caller's record buffer (its batch-relative index).
  struct Pending {
    std::size_t idx;
    std::size_t input;
    FaultDescriptor fd;
    dnn::AppliedFault af;
  };

  /// Executes one chunk's trials on the calling thread — the shared hot
  /// path of the uniform shard loop and the stratified runner. Sorts
  /// `pending` by (input, fault layer, idx) so trials sharing an activation
  /// cache and injection depth run back to back, keeping the cache segment
  /// hot; records land in slots[idx] when `slots` is non-null (restoring
  /// batch order for the caller) or in one reused scratch record otherwise.
  /// Each finished record is handed to done(pending, record, masked); all
  /// aggregation policy lives in the caller.
  template <typename Done>
  void execute_span(const CampaignOptions& opt, const dnn::Executor<T>& exec,
                    const GoldenTables& golden, std::vector<Pending>& pending,
                    TrialRecord* slots, const Done& done) const {
    const bool incremental = opt.incremental_replay;
    dnn::Workspace<T> ws(net.plan());
    const std::size_t last_end = ends.back();

    std::sort(pending.begin(), pending.end(),
              [](const Pending& a, const Pending& b) {
                if (a.input != b.input) return a.input < b.input;
                if (a.af.layer != b.af.layer) return a.af.layer < b.af.layer;
                return a.idx < b.idx;
              });

    // Per-chunk observer state, reset per trial; the closure itself is
    // built once per chunk.
    std::vector<double> dist(ends.size(), 0.0);
    const dnn::ActivationCache<T>* cache = nullptr;
    bool detected = false;
    double corruption = 0;
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          // Block-slot table lookup (hoisted out of the std::find the
          // observer used to do per layer).
          const int bslot = layer_to_block[layer];
          if (bslot < 0) return;
          const auto b = static_cast<std::size_t>(bslot);
          if (opt.detector && !detected) {
            const int block = bslot + 1;
            for (std::size_t i = 0; i < act.size(); ++i) {
              const double v = numeric::numeric_traits<T>::to_double(act[i]);
              if (opt.detector(block, v)) {
                detected = true;
                break;
              }
            }
          }
          if (opt.record_block_distances)
            dist[b] = tensor::euclidean_distance<T>(act, cache->act(layer));
          if (layer == last_end) {
            const std::size_t mism =
                tensor::bitwise_mismatch_count<T>(act, cache->act(layer));
            corruption =
                static_cast<double>(mism) / static_cast<double>(act.size());
          }
        };

    TrialRecord scratch;
    dnn::ReplayInfo replay;
    for (const Pending& p : pending) {
      TrialRecord& tr = slots ? slots[p.idx] : scratch;
      tr.input_index = p.input;
      tr.fault = p.fd;
      // Layers write record fields only when the fault touches them;
      // start from a fresh record so buffer reuse cannot leak one
      // trial's values into the next.
      tr.record = dnn::InjectionRecord{};

      cache = &caches[p.input];
      detected = false;
      corruption = 0;
      std::fill(dist.begin(), dist.end(), 0.0);

      // The final-corruption metric is cheap and always useful; keep
      // the observer on unconditionally. The fault was lowered in the
      // sampling pass, so run the executor directly instead of going
      // through inject().
      dnn::RunRequest<T> req;
      req.cache = cache;
      req.fault = &p.af;
      req.record = &tr.record;
      req.observer = &observer;
      req.early_exit = incremental;
      req.replay = &replay;
      const auto out = exec.run(ws, req);
      if (replay.masked) {
        // Blocks past the exit point would have replayed bit-identical
        // to the fault-free run; read their observations off the
        // precomputed golden tables. Final corruption stays exactly 0
        // when last_end was skipped (golden vs golden never mismatches).
        for (std::size_t b = 0; b < ends.size(); ++b) {
          if (ends[b] <= replay.masked_at) continue;
          if (opt.detector && !detected &&
              golden.fires[p.input * ends.size() + b] != 0)
            detected = true;
          if (opt.record_block_distances)
            dist[b] = golden.self_dist[p.input * ends.size() + b];
        }
      }
      tr.outcome = classify(predictions[p.input], net.interpret(out));
      tr.detected = detected;
      tr.output_corruption = corruption;
      if (opt.record_block_distances)
        tr.block_distance.assign(dist.begin(), dist.end());
      else
        tr.block_distance.clear();
      done(p, tr, replay.masked);
    }
  }

  void write_checkpoint(const ShardSpec& shard, std::uint64_t fingerprint,
                        std::uint64_t total, std::uint64_t begin,
                        std::uint64_t end, const ShardResult& st,
                        const StatsAxes& axes) const {
    ShardCheckpoint ck;
    ck.fingerprint = fingerprint;
    ck.network = net.spec().name;
    ck.set_axes(axes);
    ck.trials_total = total;
    ck.shard_begin = begin;
    ck.shard_end = end;
    ck.next_trial = st.next_trial;
    ck.complete = st.complete;
    ck.masked_exits = st.masked_exits;
    ck.acc = st.acc;
    save_shard_checkpoint(shard.checkpoint, ck);
  }

  ShardResult run_shard(const CampaignOptions& opt, const ShardSpec& shard,
                        const TrialSink* sink,
                        std::uint64_t fingerprint) const override {
    DNNFI_EXPECTS(opt.sampler == SamplerMode::kUniform);
    const std::uint64_t total = opt.trials;
    const std::uint64_t begin = shard.begin;
    const std::uint64_t end = shard.end == 0 ? total : shard.end;
    DNNFI_EXPECTS(begin <= end && end <= total);

    // Geometry the shard samples from and lowers through. The default
    // (Eyeriss) reuses the backend's precomputed sampler so the hot path is
    // unchanged; other geometries build their model + sampler per run.
    const StatsAxes axes = campaign_axes(opt);
    std::unique_ptr<accel::AcceleratorModel> owned_model;
    const accel::AcceleratorModel* model = &accel::eyeriss_model();
    const Sampler* sampler = &site_sampler;
    std::optional<Sampler> shard_sampler;
    if (!opt.accel.is_eyeriss()) {
      owned_model = accel::make_accelerator(opt.accel);
      model = owned_model.get();
      shard_sampler.emplace(net.spec(), numeric::dtype_of<T>(), *model);
      sampler = &*shard_sampler;
    }
    DNNFI_EXPECTS(model->supports(opt.site));

    ShardResult st;
    st.acc = OutcomeAccumulator(ends.size());
    st.next_trial = begin;

    if (!shard.checkpoint.empty() &&
        std::filesystem::exists(shard.checkpoint)) {
      ShardCheckpoint ck = load_shard_checkpoint(shard.checkpoint);
      if (ck.fingerprint != fingerprint)
        throw CheckpointError(
            Errc::kFingerprintMismatch,
            "checkpoint " + shard.checkpoint +
                ": campaign fingerprint mismatch (file was written by a run "
                "with different options; refusing to resume)");
      if (ck.trials_total != total || ck.shard_begin != begin ||
          ck.shard_end != end)
        throw CheckpointError(
            Errc::kShardMismatch,
            "checkpoint " + shard.checkpoint + ": shard range mismatch (file" +
                " covers [" + std::to_string(ck.shard_begin) + ", " +
                std::to_string(ck.shard_end) + ") of " +
                std::to_string(ck.trials_total) + " trials, run requests [" +
                std::to_string(begin) + ", " + std::to_string(end) + ") of " +
                std::to_string(total) + ")");
      if (auto ok = validate_checkpoint_axes(ck, axes); !ok.ok())
        throw CheckpointError(ok.error().code, "checkpoint " +
                                                   shard.checkpoint + ": " +
                                                   ok.error().message);
      st.acc = std::move(ck.acc);
      st.next_trial = ck.next_trial;
      st.masked_exits = ck.masked_exits;
      st.resumed = true;
      if (ck.complete || st.next_trial == end) {
        st.next_trial = end;
        st.complete = true;
        return st;
      }
    }

    ThreadPool& pool = opt.pool ? *opt.pool : ThreadPool::global();
    const dnn::Executor<T> exec(net.plan());
    const GoldenTables golden = compute_golden(opt);

    // Batches exist only to bound checkpoint/progress/stop/cancel latency.
    // With none of those active, the whole remaining range is one batch so
    // the chunk layout (and per-chunk allocations) match the legacy run()
    // path. Batching never changes results (shard/batch invariance is
    // locked down by test_campaign_determinism), only reaction latency.
    const bool batched = !shard.checkpoint.empty() || opt.progress != nullptr ||
                         shard.stop_after > 0 || opt.cancel != nullptr;
    std::uint64_t batch_size = end - st.next_trial;
    if (batched) batch_size = std::max<std::uint64_t>(1, shard.batch);
    if (batch_size == 0) batch_size = 1;

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ran = 0;          // new trials executed by this call
    std::vector<TrialRecord> recbuf;  // one batch of records, iff sink
    std::mutex merge_mu;

    while (st.next_trial < end) {
      const std::uint64_t b0 = st.next_trial;
      const std::uint64_t b1 = std::min<std::uint64_t>(end, b0 + batch_size);
      const auto count = static_cast<std::size_t>(b1 - b0);
      if (sink) recbuf.resize(count);
      OutcomeAccumulator batch_acc(ends.size());

      // Chunk boundaries and per-trial RNG streams depend only on (count,
      // seed, b0); each worker holds one Workspace, one observer closure,
      // and one local accumulator for its whole share. Merging is exact
      // (ExactSum), so the merge order across chunks cannot matter.
      parallel_for_chunks(pool, count, [&](std::size_t cb, std::size_t ce) {
        // Sample and lower every trial of the chunk up front (each trial's
        // RNG stream depends only on its global index, so sampling order is
        // free); execute_span then runs them sorted by (input, fault
        // layer). Records land at recbuf[idx], which restores trial order
        // for the sink, and accumulator folds are exact (ExactSum), so
        // execution order cannot leak into results.
        std::vector<Pending> pending;
        pending.reserve(ce - cb);
        for (std::size_t i = cb; i < ce; ++i) {
          const std::uint64_t trial = b0 + i;
          Rng rng = derive_stream(opt.seed, trial);
          Pending p;
          p.idx = i;
          p.input = static_cast<std::size_t>(trial % caches.size());
          p.fd = sampler->sample(opt.site, rng, opt.constraint);
          p.af = lower(p.fd, net.mac_layers(), *model);
          pending.push_back(p);
        }
        OutcomeAccumulator local(ends.size());
        std::uint64_t local_masked = 0;
        execute_span(opt, exec, golden, pending,
                     sink ? recbuf.data() : nullptr,
                     [&](const Pending&, TrialRecord& tr, bool masked) {
                       local.add(tr);
                       if (masked) ++local_masked;
                     });
        const std::scoped_lock lk(merge_mu);
        batch_acc.merge(local);
        st.masked_exits += local_masked;
      });

      st.acc.merge(batch_acc);
      st.next_trial = b1;
      st.complete = st.next_trial == end;
      ran += count;

      if (sink)
        for (std::size_t i = 0; i < count; ++i) (*sink)(b0 + i, recbuf[i]);
      if (!shard.checkpoint.empty())
        write_checkpoint(shard, fingerprint, total, begin, end, st, axes);
      if (opt.progress) {
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        CampaignProgress p;
        p.done = st.next_trial - begin;
        p.begin = begin;
        p.end = end;
        p.trials_per_sec =
            secs > 0 ? static_cast<double>(ran) / secs : 0.0;
        p.eta_seconds = p.trials_per_sec > 0
                            ? static_cast<double>(end - st.next_trial) /
                                  p.trials_per_sec
                            : 0.0;
        p.sdc1 = st.acc.sdc1();
        p.masked_exits = st.masked_exits;
        p.masked_exit_rate =
            p.done > 0
                ? static_cast<double>(st.masked_exits) /
                      static_cast<double>(p.done)
                : 0.0;
        opt.progress(p);
      }
      if (!st.complete && shard.stop_after > 0 && ran >= shard.stop_after)
        return st;  // clean preemption: checkpoint (if any) already on disk
      if (!st.complete && opt.cancel &&
          opt.cancel->load(std::memory_order_relaxed))
        return st;  // graceful shutdown: batch folded, checkpoint on disk
    }

    st.complete = true;
    // An empty shard (or one already finished on disk) never enters the
    // loop; still leave a checkpoint behind so resume tooling sees it.
    if (!shard.checkpoint.empty() && ran == 0 && !st.resumed)
      write_checkpoint(shard, fingerprint, total, begin, end, st, axes);
    return st;
  }

  StratifiedResult run_stratified(const CampaignOptions& opt,
                                  const ShardSpec& shard,
                                  std::uint64_t fingerprint) const override {
    DNNFI_EXPECTS(opt.sampler == SamplerMode::kStratified);
    const std::uint64_t budget = opt.trials;
    DNNFI_EXPECTS(budget > 0);
    // Stratified campaigns are sequential-adaptive: no sharding.
    DNNFI_EXPECTS(shard.begin == 0 &&
                  (shard.end == 0 || shard.end == budget));

    const StatsAxes axes = campaign_axes(opt);
    std::unique_ptr<accel::AcceleratorModel> owned_model;
    const accel::AcceleratorModel* model = &accel::eyeriss_model();
    const Sampler* sampler = &site_sampler;
    std::optional<Sampler> run_sampler;
    if (!opt.accel.is_eyeriss()) {
      owned_model = accel::make_accelerator(opt.accel);
      model = owned_model.get();
      run_sampler.emplace(net.spec(), numeric::dtype_of<T>(), *model);
      sampler = &*run_sampler;
    }
    DNNFI_EXPECTS(model->supports(opt.site));

    const StratumSet set(*sampler, opt.site, opt.constraint);
    const std::size_t H = set.size();

    StratifiedResult res;
    res.strata.reserve(H);
    res.weights.reserve(H);
    for (std::size_t h = 0; h < H; ++h) {
      res.strata.push_back(set.stratum(h));
      res.weights.push_back(set.weight(h));
    }
    res.per_stratum.assign(H, OutcomeAccumulator(ends.size()));

    // Controller state. `rounds` counts completed allocation rounds; `plan`
    // is the in-flight round's per-stratum allocation and `cursor` how many
    // of its trials (canonical order: ascending stratum, then within-
    // stratum trial index) are already executed and folded.
    std::uint64_t rounds = 0;
    std::uint64_t cursor = 0;
    std::vector<std::uint64_t> plan;

    const auto executed_total = [&] {
      std::uint64_t n = 0;
      for (const auto& a : res.per_stratum) n += a.trials();
      return n;
    };
    const auto sdc1_hits = [](const OutcomeAccumulator& a) {
      return a.sdc1().hits;
    };
    const auto finalize = [&](bool complete) {
      res.pooled = OutcomeAccumulator(ends.size());
      for (const auto& a : res.per_stratum) res.pooled.merge(a);
      res.trials = res.pooled.trials();
      res.rounds = rounds;
      res.complete = complete;
      res.converged = complete && opt.stratified.target_ci > 0 &&
                      res.sdc1().est.ci95 <= opt.stratified.target_ci;
    };
    const auto persist = [&](bool complete) {
      if (shard.checkpoint.empty()) return;
      ShardCheckpoint ck;
      ck.fingerprint = fingerprint;
      ck.network = net.spec().name;
      ck.set_axes(axes);
      ck.trials_total = budget;
      ck.shard_begin = 0;
      ck.shard_end = budget;
      ck.complete = complete;
      ck.masked_exits = res.masked_exits;
      ck.acc = OutcomeAccumulator(ends.size());
      for (const auto& a : res.per_stratum) ck.acc.merge(a);
      ck.next_trial = executed_total();
      ck.stratified = StratifiedCheckpoint{rounds, cursor, plan,
                                           res.stratum_state()};
      save_shard_checkpoint(shard.checkpoint, ck);
    };

    if (!shard.checkpoint.empty() &&
        std::filesystem::exists(shard.checkpoint)) {
      ShardCheckpoint ck = load_shard_checkpoint(shard.checkpoint);
      if (ck.fingerprint != fingerprint)
        throw CheckpointError(
            Errc::kFingerprintMismatch,
            "checkpoint " + shard.checkpoint +
                ": campaign fingerprint mismatch (file was written by a run "
                "with different options; refusing to resume)");
      if (ck.trials_total != budget || ck.shard_begin != 0 ||
          ck.shard_end != budget)
        throw CheckpointError(
            Errc::kShardMismatch,
            "checkpoint " + shard.checkpoint +
                ": trial-budget mismatch (file covers " +
                std::to_string(ck.trials_total) + " trials, run requests " +
                std::to_string(budget) + ")");
      if (auto ok = validate_checkpoint_axes(ck, axes); !ok.ok())
        throw CheckpointError(ok.error().code, "checkpoint " +
                                                   shard.checkpoint + ": " +
                                                   ok.error().message);
      if (!ck.stratified || ck.stratified->strata.size() != H ||
          (!ck.stratified->plan.empty() && ck.stratified->plan.size() != H))
        throw CheckpointError(Errc::kShardMismatch,
                              "checkpoint " + shard.checkpoint +
                                  ": stratum layout mismatch");
      for (std::size_t h = 0; h < H; ++h)
        if (ck.stratified->strata[h].id != res.strata[h].id())
          throw CheckpointError(
              Errc::kShardMismatch,
              "checkpoint " + shard.checkpoint + ": stratum " +
                  std::to_string(h) + " is '" +
                  ck.stratified->strata[h].id + "', campaign expects '" +
                  res.strata[h].id() + "'");
      for (std::size_t h = 0; h < H; ++h)
        res.per_stratum[h] = std::move(ck.stratified->strata[h].acc);
      res.masked_exits = ck.masked_exits;
      rounds = ck.stratified->rounds;
      plan = std::move(ck.stratified->plan);
      cursor = ck.stratified->cursor;
      res.resumed = true;
      if (ck.complete) {
        finalize(true);
        return res;
      }
    }

    ThreadPool& pool = opt.pool ? *opt.pool : ThreadPool::global();
    const dnn::Executor<T> exec(net.plan());
    const GoldenTables golden = compute_golden(opt);

    // Same batching rule as run_shard: batches only bound checkpoint/
    // progress/stop/cancel latency and never change results.
    const bool batched = !shard.checkpoint.empty() ||
                         opt.progress != nullptr || shard.stop_after > 0 ||
                         opt.cancel != nullptr;

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ran = 0;  // new trials executed by this call
    std::vector<TrialRecord> recbuf;
    std::vector<char> maskedbuf;
    std::vector<std::pair<std::size_t, std::uint64_t>> items;

    while (true) {
      if (plan.empty()) {
        // The next allocation is a pure function of accumulated state, so a
        // resumed campaign recomputes exactly the schedule an uninterrupted
        // one would have run.
        plan = next_allocation(res.counts(sdc1_hits), opt.stratified,
                               budget - executed_total());
        cursor = 0;
        if (plan.empty()) break;  // converged, retired, or out of budget
      }
      std::vector<std::uint64_t> pref(H + 1, 0);
      for (std::size_t h = 0; h < H; ++h) pref[h + 1] = pref[h] + plan[h];
      const std::uint64_t round_total = pref[H];
      if (cursor >= round_total) {
        ++rounds;
        plan.clear();
        continue;
      }

      while (cursor < round_total) {
        const std::uint64_t b0 = cursor;
        const std::uint64_t bsz = batched
                                      ? std::max<std::uint64_t>(1, shard.batch)
                                      : round_total - b0;
        const std::uint64_t b1 =
            std::min<std::uint64_t>(round_total, b0 + bsz);
        const auto count = static_cast<std::size_t>(b1 - b0);

        // Slot -> (stratum h, within-stratum trial index t). Trial t of
        // stratum h draws from derive_stream(seed, h, t) and replays input
        // t % num_inputs — functions of accumulated state alone, so the
        // trial set is invariant to batch and resume boundaries.
        items.resize(count);
        {
          std::size_t h = 0;
          for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t g = b0 + i;
            while (pref[h + 1] <= g) ++h;
            const std::uint64_t folded_this_round = std::min<std::uint64_t>(
                plan[h], b0 > pref[h] ? b0 - pref[h] : 0);
            const std::uint64_t at_round_start =
                res.per_stratum[h].trials() - folded_this_round;
            items[i] = {h, at_round_start + (g - pref[h])};
          }
        }

        recbuf.resize(count);
        maskedbuf.assign(count, 0);
        parallel_for_chunks(pool, count, [&](std::size_t cb, std::size_t ce) {
          std::vector<Pending> pending;
          pending.reserve(ce - cb);
          for (std::size_t i = cb; i < ce; ++i) {
            const auto [h, t] = items[i];
            Rng rng =
                derive_stream(opt.seed, static_cast<std::uint64_t>(h), t);
            Pending p;
            p.idx = i;
            p.input = static_cast<std::size_t>(t % caches.size());
            p.fd = set.sample(h, rng);
            p.af = lower(p.fd, net.mac_layers(), *model);
            pending.push_back(p);
          }
          execute_span(opt, exec, golden, pending, recbuf.data(),
                       [&](const Pending& p, TrialRecord&, bool masked) {
                         maskedbuf[p.idx] = masked ? 1 : 0;
                       });
        });
        // Fold on the driving thread in canonical slot order: per-stratum
        // aggregates are byte-identical at any thread count by
        // construction, not by merge-order argument.
        for (std::size_t i = 0; i < count; ++i) {
          res.per_stratum[items[i].first].add(recbuf[i]);
          if (maskedbuf[i] != 0) ++res.masked_exits;
        }
        cursor = b1;
        ran += count;

        persist(false);
        if (opt.progress) {
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          const std::uint64_t done = executed_total();
          CampaignProgress p;
          p.done = done;
          p.begin = 0;
          p.end = budget;  // upper bound: convergence may stop earlier
          p.trials_per_sec =
              secs > 0 ? static_cast<double>(ran) / secs : 0.0;
          p.eta_seconds =
              p.trials_per_sec > 0
                  ? static_cast<double>(budget - done) / p.trials_per_sec
                  : 0.0;
          p.sdc1 = res.sdc1().est;
          p.masked_exits = res.masked_exits;
          p.masked_exit_rate =
              done > 0 ? static_cast<double>(res.masked_exits) /
                             static_cast<double>(done)
                       : 0.0;
          opt.progress(p);
        }
        if (shard.stop_after > 0 && ran >= shard.stop_after) {
          finalize(false);
          return res;  // clean preemption: checkpoint already on disk
        }
        if (opt.cancel && opt.cancel->load(std::memory_order_relaxed)) {
          finalize(false);
          return res;  // graceful shutdown: batch folded + persisted
        }
      }
      ++rounds;
      plan.clear();
    }

    finalize(true);
    persist(true);
    return res;
  }

  const dnn::NetworkSpec& spec() const override { return net.spec(); }
  DType dtype() const override { return numeric::dtype_of<T>(); }
  const Sampler& sampler() const override { return site_sampler; }
  std::size_t num_inputs() const override { return caches.size(); }
  const dnn::Prediction& golden_prediction(std::size_t i) const override {
    return predictions.at(i);
  }
  const std::vector<BlockRange>& golden_block_ranges() const override {
    return ranges;
  }

  dnn::Network<T> net;
  Sampler site_sampler;
  std::vector<std::size_t> ends;
  /// layer index -> block slot (or -1): the observer's hot-path lookup.
  std::vector<int> layer_to_block;
  /// Fault-free activations of every layer boundary, one cache per input;
  /// trials seed their replay from (and early-exit against) these.
  std::vector<dnn::ActivationCache<T>> caches;
  std::vector<dnn::Prediction> predictions;
  std::vector<BlockRange> ranges;
};

Campaign::Campaign(const dnn::NetworkSpec& spec, const dnn::WeightsBlob& blob,
                   DType dtype, std::vector<dnn::Example> inputs) {
  backend_ = numeric::dispatch_dtype(
      dtype, [&]<typename T>() -> std::unique_ptr<Backend> {
        return std::make_unique<TypedBackend<T>>(spec, blob, std::move(inputs));
      });
}

Campaign::~Campaign() = default;
Campaign::Campaign(Campaign&&) noexcept = default;
Campaign& Campaign::operator=(Campaign&&) noexcept = default;

CampaignResult Campaign::run(const CampaignOptions& opt) const {
  CampaignResult result;
  result.trials.resize(opt.trials);
  if (opt.trials == 0) return result;
  const TrialSink sink = [&](std::uint64_t trial, const TrialRecord& tr) {
    result.trials[static_cast<std::size_t>(trial)] = tr;
  };
  backend_->run_shard(opt, ShardSpec{}, &sink, fingerprint(opt));
  return result;
}

ShardResult Campaign::run_shard(const CampaignOptions& opt,
                                const ShardSpec& shard,
                                const TrialSink* sink) const {
  return backend_->run_shard(opt, shard, sink, fingerprint(opt));
}

StratifiedResult Campaign::run_stratified(const CampaignOptions& opt,
                                          const ShardSpec& shard) const {
  return backend_->run_stratified(opt, shard, fingerprint(opt));
}

std::uint64_t Campaign::fingerprint(const CampaignOptions& opt) const {
  ByteWriter w;
  w.u64(opt.seed);
  w.u64(opt.trials);
  w.u32(static_cast<std::uint32_t>(opt.site));
  w.u32(static_cast<std::uint32_t>(backend_->dtype()));
  w.str(backend_->spec().name);
  w.u64(backend_->num_inputs());
  const SampleConstraint& c = opt.constraint;
  w.u8(c.fixed_bit.has_value() ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.fixed_bit.value_or(0)));
  w.u8(c.fixed_block.has_value() ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(c.fixed_block.value_or(0)));
  w.u8(c.fixed_latch.has_value() ? 1 : 0);
  w.u32(c.fixed_latch ? static_cast<std::uint32_t>(*c.fixed_latch) : 0);
  w.u8(c.buffer_storage.has_value() ? 1 : 0);
  w.u32(c.buffer_storage ? static_cast<std::uint32_t>(*c.buffer_storage) : 0);
  w.u8(opt.record_block_distances ? 1 : 0);
  // The detector is a std::function and cannot be fingerprinted; record its
  // presence only. Resuming with a *different* detector is on the caller.
  w.u8(opt.detector ? 1 : 0);
  // The identity triple every checkpoint and stats file carries; the op
  // string includes the burst.
  const StatsAxes axes = campaign_axes(opt);
  w.str(axes.accel);
  w.str(axes.fault_op);
  w.str(axes.sampler);
  return fingerprint64(w.bytes().data(), w.bytes().size());
}

const dnn::NetworkSpec& Campaign::spec() const { return backend_->spec(); }
DType Campaign::dtype() const { return backend_->dtype(); }
const Sampler& Campaign::sampler() const { return backend_->sampler(); }
std::size_t Campaign::num_inputs() const { return backend_->num_inputs(); }
const dnn::Prediction& Campaign::golden_prediction(std::size_t i) const {
  return backend_->golden_prediction(i);
}
const std::vector<BlockRange>& Campaign::golden_block_ranges() const {
  return backend_->golden_block_ranges();
}

std::vector<BlockRange> profile_block_ranges(const dnn::NetworkSpec& spec,
                                             const dnn::WeightsBlob& blob,
                                             numeric::DType dtype,
                                             const dnn::ExampleSource& source,
                                             std::uint64_t begin,
                                             std::size_t count) {
  DNNFI_EXPECTS(count > 0);
  return numeric::dispatch_dtype(dtype, [&]<typename T>() {
    const dnn::Network<T> net = dnn::instantiate<T>(spec, blob);
    const auto ends = block_end_layers(spec);
    std::vector<BlockRange> ranges(
        ends.size(), BlockRange{std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()});
    // Observed via the executor instead of materializing traces: block-end
    // fmaps are scanned as they land in the arena (as SED's host-side check
    // scans them in the global buffer).
    const dnn::Executor<T> exec(net.plan());
    dnn::Workspace<T> ws(net.plan());
    const dnn::LayerObserver<T> observer =
        [&](std::size_t layer, tensor::ConstTensorView<T> act) {
          const auto it = std::find(ends.begin(), ends.end(), layer);
          if (it == ends.end()) return;
          const auto b = static_cast<std::size_t>(it - ends.begin());
          const auto [lo, hi] = tensor::value_range<T>(act);
          ranges[b].lo = std::min(ranges[b].lo, lo);
          ranges[b].hi = std::max(ranges[b].hi, hi);
        };
    for (std::size_t s = 0; s < count; ++s) {
      const dnn::Example ex = source(begin + s);
      const dnn::Tensor<T> image = tensor::convert<T>(ex.image);
      dnn::RunRequest<T> req;
      req.input = image;
      req.observer = &observer;
      exec.run(ws, req);
    }
    return ranges;
  });
}

}  // namespace dnnfi::fault
