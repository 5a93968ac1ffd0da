// Deterministic campaign stats files: equal accumulator state <=> equal
// text, so bit-identity across shardings/processes is a plain `diff`.
// Counters print in decimal and doubles as C99 hex floats (no rounding).
//
// Format (v6, one shape for every campaign):
//
//   dnnfi-campaign-stats v6
//   fingerprint <u64>
//   accel <geometry>            — the campaign identity (StatsAxes), always
//   fault_op <op>                 present: "eyeriss", "toggle", "uniform"
//   sampler <id>                  for the paper's configuration
//   trials <n>
//   masked_exits <n>            — how trials were *executed* (early exits);
//                                 the one line that may differ between
//                                 incremental and full replay of one run
//   aborted <n>                 — trials quarantined by the supervisor,
//   aborted_trial <idx>         — one line per quarantined trial, ascending;
//                                 always `aborted 0` for monolithic runs
//   sdc1/sdc5/... counters, then per-block live/masked/distance lines
//   strata <H>                  — stratified campaigns only: one line per
//   stratum <id> weight ...       stratum (canonical order, exact hex-float
//                                 weights + per-criterion hit counts), then
//   ht sdc1 p ... n_eff <r>     — the Horvitz–Thompson estimates with
//                                 stratified 95% intervals (DESIGN.md §12)
//
// Shared by the dnnfi_campaign CLI (run/merge --out) and the supervisor's
// merged output; writes are atomic (tmp + rename) so a killed process
// never leaves a torn stats file.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/accumulator.h"
#include "dnnfi/fault/adaptive_sampler.h"
#include "dnnfi/fault/checkpoint.h"

namespace dnnfi::fault {

/// One SDC criterion of an accumulator, e.g. &OutcomeAccumulator::sdc1.
using Criterion = Estimate (OutcomeAccumulator::*)() const;

/// Per-stratum sufficient statistics with `hits` counted by `criterion` —
/// what stratified_estimate() consumes.
std::vector<StratumCounts> stratum_counts(
    const std::vector<StratumCheckpoint>& strata, Criterion criterion);

/// Streams the deterministic stats dump. `strata` (stratified campaigns
/// only; requires a non-uniform axes.sampler) appends the per-stratum and
/// Horvitz–Thompson lines.
void write_stats(std::ostream& os, std::uint64_t fingerprint,
                 const OutcomeAccumulator& acc, std::uint64_t masked_exits,
                 const std::vector<std::uint64_t>& aborted_trials = {},
                 const StatsAxes& axes = {},
                 const std::vector<StratumCheckpoint>* strata = nullptr);

/// Atomically writes the dump to `path`. kIo on any filesystem failure.
Expected<void> write_stats_file(
    const std::string& path, std::uint64_t fingerprint,
    const OutcomeAccumulator& acc, std::uint64_t masked_exits,
    const std::vector<std::uint64_t>& aborted_trials = {},
    const StatsAxes& axes = {},
    const std::vector<StratumCheckpoint>* strata = nullptr);

}  // namespace dnnfi::fault
