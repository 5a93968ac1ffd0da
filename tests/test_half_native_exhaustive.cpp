// Exhaustive proof that native binary16 arithmetic (VADDPH / VMULPH, as run
// by the avx512 FLOAT16 kernels on AVX512-FP16 CPUs, with their final-store
// NaN canonicalization) equals the reference numeric::Half arithmetic,
// binary32 compute rounded to half, over all 2^32 operand pairs of + and *.
// Binary32 has 24 >= 2*11+2 significand bits, so rounding twice is
// innocuous (Figueroa 1995); this checks it, and the NaN rule, bit for bit.
// The one hole: when both operands are NaN, the reference keeps whichever
// operand the compiler ordered first, so only "a canonical NaN carrying one
// operand's sign" is asserted there. Labelled slow (a few seconds in
// Release); test_kernels runs a sampled form in tier-1.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "half_native_sweep.h"

namespace dnnfi::test_support {
namespace {

TEST(HalfNativeExhaustive, AddAndMulMatchBinary32ComputeOnAllPairs) {
  if (const std::string why = native_half_unavailable(); !why.empty())
    GTEST_SKIP() << why;
  std::vector<std::uint16_t> bs(65536);
  for (std::uint32_t b = 0; b <= 0xFFFFU; ++b)
    bs[b] = static_cast<std::uint16_t>(b);
  HalfSweep add, mul;
  sweep_native_half(bs, add, mul);
  // 2 * 1023 NaN encodings (5-bit all-ones exponent, non-zero fraction).
  constexpr std::uint64_t kNaNs = 2 * 1023;
  for (const auto* s : {&add, &mul}) {
    EXPECT_EQ(s->pairs, std::uint64_t{1} << 32);
    EXPECT_EQ(s->mismatches, 0u) << s->first_failure;
    EXPECT_EQ(s->both_nan, kNaNs * kNaNs);
    EXPECT_EQ(s->both_nan_bad, 0u) << s->first_failure;
    // Sign-only differences can only come from NaN pairs of opposite signs.
    EXPECT_LE(s->both_nan_sign, 2 * (kNaNs / 2) * (kNaNs / 2));
    RecordProperty(s == &add ? "add_nan_sign_only" : "mul_nan_sign_only",
                   std::to_string(s->both_nan_sign));
  }
}

}  // namespace
}  // namespace dnnfi::test_support
