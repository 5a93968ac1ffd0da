// Stratification of a campaign's fault-site population (DESIGN.md §12).
//
// The paper's Fig 4 shows SDC probability is concentrated in a handful of
// high-exponent and sign bits; uniform sampling burns most trials on
// provably-masked strata. A StratumSet partitions the exact population the
// uniform sampler draws from along three axes:
//
//   bit class  — the struck bit's role in the word: sign, high/low half of
//                the exponent (integer field for fixed-point formats), and
//                high/low half of the mantissa (fraction field),
//   layer      — the logical paper-layer (block) of the struck site,
//   latch      — the datapath latch class (datapath campaigns only; buffer
//                site classes have no latch axis).
//
// Each stratum h carries the *exact* probability W_h that one uniform draw
// lands in it: the product of the layer weight the base sampler uses (MACs,
// or occupied-words x MACs for buffers), the bit-class width fraction, and
// the uniform 1/4 latch factor. The weights sum to 1 and every site of the
// inventory maps to exactly one stratum (tests/test_stratified_sampling.cpp
// locks the partition down for both geometries), which is what makes the
// Horvitz–Thompson reweighting in adaptive_sampler.h unbiased.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/accel/datapath.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/fault/descriptor.h"
#include "dnnfi/fault/sampler.h"
#include "dnnfi/numeric/dtype.h"

namespace dnnfi::fault {

/// The struck bit's role in the stored word. For floating-point formats the
/// "exp" classes split the exponent field; for fixed-point formats they
/// split the integer field (the same "value-scale bits" role), and the
/// "mant" classes split the mantissa / fraction field.
enum class BitClass : std::uint8_t {
  kSign,
  kExpHigh,  ///< upper half of the exponent / integer field
  kExpLow,   ///< lower half of the exponent / integer field
  kMantHigh, ///< upper half of the mantissa / fraction field
  kMantLow,  ///< lower half of the mantissa / fraction field
};

inline constexpr std::array<BitClass, 5> kAllBitClasses = {
    BitClass::kSign, BitClass::kExpHigh, BitClass::kExpLow,
    BitClass::kMantHigh, BitClass::kMantLow};

constexpr const char* bit_class_name(BitClass c) {
  switch (c) {
    case BitClass::kSign:     return "sign";
    case BitClass::kExpHigh:  return "exp-high";
    case BitClass::kExpLow:   return "exp-low";
    case BitClass::kMantHigh: return "mant-high";
    case BitClass::kMantLow:  return "mant-low";
  }
  return "?";
}

/// Contiguous bit range [lo, lo + count), bit 0 = LSB.
struct BitRange {
  int lo = 0;
  int count = 0;
};

/// Partition of [0, dtype_width) into the five classes, indexed by
/// kAllBitClasses order. Every bit belongs to exactly one class; classes
/// are never empty for the six paper formats (the narrowest integer field,
/// FP16's 5-bit exponent, still splits 3 + 2).
std::array<BitRange, 5> bit_class_layout(numeric::DType dtype);

/// The class containing `bit` (which must be within the format's width).
BitClass bit_class_of(numeric::DType dtype, int bit);

/// One stratum of the campaign population.
struct Stratum {
  int block = 0;  ///< logical paper-layer, 1-based
  BitClass bits = BitClass::kSign;
  /// Latch class; set iff the campaign samples datapath latches.
  std::optional<accel::DatapathLatch> latch;

  /// Canonical identity, e.g. "b3/exp-high/accumulator" or "b3/sign".
  /// Stable across runs; checkpoints and stats files carry it.
  std::string id() const;
};

/// The full stratification of one campaign's site population, with exact
/// per-stratum sampling weights. Strata are ordered canonically: ascending
/// block, then kAllBitClasses order, then kAllDatapathLatches order — the
/// order is part of the determinism contract (stratum index h keys the RNG
/// substream derive_stream(seed, h, t)).
class StratumSet {
 public:
  /// Builds the partition for campaigns of `site` under `sampler`'s
  /// (topology, dtype, geometry). `base` carries the campaign's fault op
  /// and buffer storage; its fixed_bit/fixed_block/fixed_latch must be unset
  /// (stratified campaigns stratify the whole population).
  StratumSet(const Sampler& sampler, SiteClass site,
             const SampleConstraint& base = {});

  std::size_t size() const noexcept { return strata_.size(); }
  const Stratum& stratum(std::size_t h) const { return strata_.at(h); }
  /// Exact P(uniform draw lands in stratum h); the weights sum to 1.
  double weight(std::size_t h) const { return weights_.at(h); }
  SiteClass site() const noexcept { return site_; }
  /// Width of the stored word bits are drawn from (storage override aware).
  int word_width() const noexcept { return width_; }

  /// Maps a descriptor of this population to its unique stratum index.
  std::size_t index_of(const FaultDescriptor& fd) const;

  /// Draws one site conditioned on stratum h: the bit uniform over the
  /// stratum's bit class, the layer by the base sampler's weights within
  /// the stratum's block, the latch fixed. Draw order (one `below` for the
  /// bit, then the base sampler's own draws) is part of the determinism
  /// contract.
  FaultDescriptor sample(std::size_t h, Rng& rng) const;

 private:
  const Sampler* sampler_;
  SiteClass site_;
  SampleConstraint base_;
  numeric::DType word_dtype_;
  int width_ = 0;
  std::array<BitRange, 5> layout_{};
  std::vector<Stratum> strata_;
  std::vector<double> weights_;
  /// block value -> dense block ordinal in this set (or -1 if absent).
  std::vector<int> block_slot_;
  std::size_t num_latches_ = 1;  ///< 4 for datapath, 1 (no axis) otherwise
};

}  // namespace dnnfi::fault
