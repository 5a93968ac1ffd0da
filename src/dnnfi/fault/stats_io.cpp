#include "dnnfi/fault/stats_io.h"

#include <algorithm>
#include <sstream>

#include "dnnfi/common/atomic_file.h"

namespace dnnfi::fault {

std::vector<StratumCounts> stratum_counts(
    const std::vector<StratumCheckpoint>& strata, Criterion criterion) {
  std::vector<StratumCounts> counts(strata.size());
  for (std::size_t h = 0; h < strata.size(); ++h) {
    counts[h].weight = strata[h].weight;
    counts[h].hits = (strata[h].acc.*criterion)().hits;
    counts[h].n = strata[h].acc.trials();
  }
  return counts;
}

namespace {

/// The four `ht <criterion> ...` lines: HT point estimate, stratified 95%
/// interval, and effective sample size, all in exact hex floats.
void write_ht_line(std::ostream& os, const char* name,
                   const std::vector<StratumCheckpoint>& strata,
                   Criterion criterion) {
  const StratifiedEstimate e =
      stratified_estimate(stratum_counts(strata, criterion));
  os << "ht " << name << " p " << e.est.p << " ci95 " << e.est.ci95
     << " lo " << e.est.lo << " hi " << e.est.hi << " n_eff " << e.n_eff
     << "\n";
}

}  // namespace

void write_stats(std::ostream& os, std::uint64_t fingerprint,
                 const OutcomeAccumulator& acc, std::uint64_t masked_exits,
                 const std::vector<std::uint64_t>& aborted_trials,
                 const StatsAxes& axes,
                 const std::vector<StratumCheckpoint>* strata) {
  DNNFI_EXPECTS(strata == nullptr || axes.sampler != "uniform");
  os << "dnnfi-campaign-stats v6\n";
  os << "fingerprint " << fingerprint << "\n";
  os << "accel " << axes.accel << "\n";
  os << "fault_op " << axes.fault_op << "\n";
  os << "sampler " << axes.sampler << "\n";
  os << "trials " << acc.trials() << "\n";
  os << "masked_exits " << masked_exits << "\n";
  os << "aborted " << aborted_trials.size() << "\n";
  std::vector<std::uint64_t> sorted = aborted_trials;
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t t : sorted) os << "aborted_trial " << t << "\n";
  os << "sdc1 " << acc.sdc1().hits << "\n";
  os << "sdc5 " << acc.sdc5().hits << "\n";
  os << "sdc10 " << acc.sdc10().hits << "\n";
  os << "sdc20 " << acc.sdc20().hits << "\n";
  os << "detections " << acc.detections() << "\n";
  os << "benign_flagged " << acc.benign_flagged() << "\n";
  os << "reached " << acc.reached_output().hits << "\n";
  os << std::hexfloat;
  os << "mean_corruption_reached " << acc.mean_output_corruption_reached()
     << "\n";
  for (std::size_t b = 0; b < acc.num_blocks(); ++b) {
    os << "block " << b + 1 << " live " << std::defaultfloat
       << acc.block_live(b) << " masked " << acc.block_masked(b)
       << " dist_sum " << std::hexfloat << acc.block_distance_sum(b)
       << " log10_mean " << acc.block_log10_mean(b) << "\n";
  }
  if (strata != nullptr) {
    os << std::defaultfloat;
    os << "strata " << strata->size() << "\n";
    for (const StratumCheckpoint& h : *strata) {
      os << "stratum " << h.id << " weight " << std::hexfloat << h.weight
         << std::defaultfloat << " trials " << h.acc.trials() << " sdc1 "
         << h.acc.sdc1().hits << " sdc5 " << h.acc.sdc5().hits << " sdc10 "
         << h.acc.sdc10().hits << " sdc20 " << h.acc.sdc20().hits << "\n";
    }
    os << std::hexfloat;
    write_ht_line(os, "sdc1", *strata, &OutcomeAccumulator::sdc1);
    write_ht_line(os, "sdc5", *strata, &OutcomeAccumulator::sdc5);
    write_ht_line(os, "sdc10", *strata, &OutcomeAccumulator::sdc10);
    write_ht_line(os, "sdc20", *strata, &OutcomeAccumulator::sdc20);
  }
  os << std::defaultfloat;
}

Expected<void> write_stats_file(
    const std::string& path, std::uint64_t fingerprint,
    const OutcomeAccumulator& acc, std::uint64_t masked_exits,
    const std::vector<std::uint64_t>& aborted_trials, const StatsAxes& axes,
    const std::vector<StratumCheckpoint>* strata) {
  std::ostringstream os;
  write_stats(os, fingerprint, acc, masked_exits, aborted_trials, axes,
              strata);
  auto written = write_file_atomic(path, os.str());
  if (!written.ok())
    return fail(Errc::kIo, "stats file " + path + ": " +
                               written.error().message);
  return {};
}

}  // namespace dnnfi::fault
