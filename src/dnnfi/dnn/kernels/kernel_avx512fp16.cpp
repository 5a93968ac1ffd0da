// Native AVX512-FP16 FLOAT16 MAC kernels: VMULPH / VADDPH on 16-lane ymm,
// one binary16 rounding per multiply and per add, selected inside the avx512
// set when both this build and the CPU have AVX512-FP16. Compiled with the
// avx512 TU's flags plus -mavx512fp16 and -ffp-contract=off
// (src/CMakeLists.txt); entered only behind cpu_has_avx512fp16().
//
// Codegen-safety discipline (same as kernel_avx512.cpp): everything this TU
// emits is either an exported avx512fp16_* entry point or an internal-linkage
// helper. The blocked loops and the scalar remainder rows come from
// kernel_simd_blocked.h, included inside the anonymous namespace, so no
// EVEX-FP16 COMDAT copy of a shared function can reach other code paths.
//
// Why native equals the reference. numeric::Half computes a+b and a*b in
// binary32 and rounds to binary16. Binary32 carries 24 >= 2*11+2 significand
// bits, so that double rounding is innocuous (Figueroa, "When is double
// rounding innocuous?", 1995): it equals one binary16 rounding of the exact
// result, which is what VADDPH/VMULPH compute. Subnormals are exact too:
// FP16 instructions ignore MXCSR.DAZ/FTZ. Only NaN payloads differ (the
// reference canonicalizes every result to sign | 0x7E00, the hardware
// propagates the operand's payload). A NaN is sticky in the accumulation
// chain and carries its sign the same way in both forms, so canonicalizing
// once at the final store yields the reference's bits. The accumulator is
// the first operand of every add, as in the reference's `acc += product`;
// when two NaNs of different signs meet, which sign survives is outside the
// bit-identity contract (kernels.h).
#include "dnnfi/dnn/kernels/kernel_avx512.h"

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

#include "dnnfi/dnn/kernels/kernel_simd_blocked.h"

/// FLOAT16 in binary16 registers.
struct F16Native {
  using Elem = std::uint16_t;
  using V = __m256h;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr Mask kAll = 0xFFFF;
  static V zero() { return _mm256_setzero_ph(); }
  static V load(const std::uint16_t* p) {
    return _mm256_castsi256_ph(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static V bcast(const std::uint16_t* p) {
    return _mm256_castsi256_ph(_mm256_set1_epi16(static_cast<short>(*p)));
  }
  static V bcast(Mask m, const std::uint16_t* p) {
    return _mm256_castsi256_ph(
        _mm256_maskz_set1_epi16(m, static_cast<short>(*p)));
  }
  static V mul(V w, V a) { return _mm256_mul_ph(w, a); }
  static V add(V acc, V x) { return _mm256_add_ph(acc, x); }
  /// Canonical-NaN rule: every NaN lane becomes sign | 0x7E00.
  static __m256i canonical(V v) {
    const __m256i h = _mm256_castph_si256(v);
    const __mmask16 nan = _mm256_cmpgt_epi16_mask(
        _mm256_and_si256(h, _mm256_set1_epi16(0x7FFF)),
        _mm256_set1_epi16(0x7C00));
    const __m256i canon =
        _mm256_or_si256(_mm256_and_si256(h, _mm256_set1_epi16(
                                                static_cast<short>(0x8000))),
                        _mm256_set1_epi16(0x7E00));
    return _mm256_mask_mov_epi16(h, nan, canon);
  }
  static void store(V v, std::uint16_t* p) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), canonical(v));
  }
};

}  // namespace

void avx512fp16_conv_half(const ConvGeom& g, const numeric::Half* in,
                          const numeric::Half* w, const numeric::Half* wp,
                          const numeric::Half* bias, numeric::Half* out) {
  conv_entry<F16Native>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx512fp16_fc_half(const FcGeom& g, const numeric::Half* in,
                        const numeric::Half* w, const numeric::Half* wp,
                        const numeric::Half* bias, numeric::Half* out) {
  fc_entry<F16Native>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx512fp16_add_mul(const std::uint16_t* a, const std::uint16_t* b,
                        std::uint16_t* sum, std::uint16_t* prod,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    const std::size_t left = n - i;
    const __mmask16 m =
        left >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1U << left) - 1U);
    const __m256h va = _mm256_castsi256_ph(_mm256_maskz_loadu_epi16(m, a + i));
    const __m256h vb = _mm256_castsi256_ph(_mm256_maskz_loadu_epi16(m, b + i));
    _mm256_mask_storeu_epi16(sum + i, m,
                             F16Native::canonical(F16Native::add(va, vb)));
    _mm256_mask_storeu_epi16(prod + i, m,
                             F16Native::canonical(F16Native::mul(va, vb)));
  }
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512FP16_KERNELS
