// Shared by test_kernels (a sampled sweep, tier-1) and
// test_half_native_exhaustive (all 2^32 operand pairs, slow): checks native
// binary16 a+b and a*b (VADDPH / VMULPH + the kernels' final-store NaN
// canonicalization, via kernels::native_half_add_mul) against the reference
// numeric::Half arithmetic, binary32 compute rounded to half.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/numeric/half.h"
#include "dnnfi/numeric/simd_convert.h"

namespace dnnfi::test_support {

/// Why the native binary16 arithmetic cannot run here, or "" when it can.
inline std::string native_half_unavailable() {
  numeric::Half a{}, s{}, p{};
  if (dnn::kernels::native_half_add_mul(&a, &a, &s, &p, 1)) return "";
  if (!dnn::kernels::kernel_profile().cpu_avx512fp16)
    return "CPU lacks AVX512-FP16 (CPUID leaf 7 EDX bit 23)";
  return "this build lacks the AVX512-FP16 kernels (compiler without "
         "-mavx512fp16, or DNNFI_AVX512_KERNELS off)";
}

struct HalfSweep {
  std::uint64_t pairs = 0;
  std::uint64_t mismatches = 0;      ///< not both NaN, bits differ
  std::uint64_t both_nan = 0;        ///< pairs whose operands are both NaN
  std::uint64_t both_nan_bad = 0;    ///< ...result not sign(a or b) | 0x7E00
  std::uint64_t both_nan_sign = 0;   ///< ...result differs only in sign
  std::string first_failure;
};

inline bool half_is_nan(std::uint16_t h) { return (h & 0x7FFFU) > 0x7C00U; }

/// Every a in [0, 2^16) against every b in `bs`, for add and mul.
inline void sweep_native_half(const std::vector<std::uint16_t>& bs,
                              HalfSweep& add, HalfSweep& mul) {
  const std::size_t n = bs.size();
  std::vector<numeric::Half> va(n), vb(n), nsum(n), nprod(n), rsum(n),
      rprod(n);
  std::vector<float> fb(n), fsum(n), fprod(n);
  for (std::size_t j = 0; j < n; ++j) {
    vb[j] = numeric::Half::from_bits(bs[j]);
    fb[j] = static_cast<float>(vb[j]);
  }
  // Classifies one pair the fast path below did not settle.
  auto check = [](HalfSweep& s, std::uint16_t a, std::uint16_t b,
                  std::uint16_t got, std::uint16_t want, const char* op) {
    if (half_is_nan(a) && half_is_nan(b)) {
      ++s.both_nan;
      const auto sa = static_cast<std::uint16_t>((a & 0x8000U) | 0x7E00U);
      const auto sb = static_cast<std::uint16_t>((b & 0x8000U) | 0x7E00U);
      if (got != sa && got != sb) {
        ++s.both_nan_bad;
      } else if (got != want) {
        ++s.both_nan_sign;
        return;
      } else {
        return;
      }
    } else if (got == want) {
      return;
    } else {
      ++s.mismatches;
    }
    if (s.first_failure.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%04x %s %04x: native %04x, ref %04x",
                    a, op, b, got, want);
      s.first_failure = buf;
    }
  };
  for (std::uint32_t a = 0; a <= 0xFFFFU; ++a) {
    const auto ha = numeric::Half::from_bits(static_cast<std::uint16_t>(a));
    const float fa = static_cast<float>(ha);
    for (std::size_t j = 0; j < n; ++j) {
      va[j] = ha;
      fsum[j] = fa + fb[j];
      fprod[j] = fa * fb[j];
    }
    numeric::float_to_half_n(fsum.data(), rsum.data(), n);
    numeric::float_to_half_n(fprod.data(), rprod.data(), n);
    dnn::kernels::native_half_add_mul(va.data(), vb.data(), nsum.data(),
                                      nprod.data(), n);
    add.pairs += n;
    mul.pairs += n;
    const bool a_nan = half_is_nan(ha.bits());
    for (std::size_t j = 0; j < n; ++j) {
      if (nsum[j].bits() == rsum[j].bits() &&
          nprod[j].bits() == rprod[j].bits() &&
          !(a_nan && half_is_nan(bs[j])))
        continue;
      check(add, ha.bits(), bs[j], nsum[j].bits(), rsum[j].bits(), "+");
      check(mul, ha.bits(), bs[j], nprod[j].bits(), rprod[j].bits(), "*");
    }
  }
}

}  // namespace dnnfi::test_support
