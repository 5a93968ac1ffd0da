// AVX-512 MAC kernel implementations: 16 float / 8 double / 16 Half outputs
// per lane-block. Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq
// -mf16c and -ffp-contract=off (src/CMakeLists.txt); entered only behind the
// cpu_has_avx512_kernel_bundle runtime probe, so DNNFI-built binaries still
// run on CPUs without these instructions.
//
// Codegen-safety discipline (same as kernel_avx2.cpp): everything this TU
// emits is either an exported avx512_* entry point or an internal-linkage
// helper; it instantiates no shared inline library function, so the linker
// can never pick an EVEX-encoded COMDAT copy of a function that non-AVX-512
// code paths also call. The blocked loops and the scalar remainder rows come
// from kernel_simd_blocked.h, included inside this TU's anonymous
// namespace for exactly that reason. relu and the other post-MAC kernels
// are the AVX2 TU's (see registry.cpp).
//
// Bit-identity strategy, the AVX2 TU's through the same loop: vectorize
// ACROSS output channels, one output per lane, each lane performing the
// scalar reference's accumulation chain; blocking several output pixels per
// weight load only interleaves independent chains (see
// kernel_simd_blocked.h). FLOAT16 here is the F16C arithmetic: compute in
// float and round to half after every multiply and add (zmm
// VCVTPS2PH/VCVTPH2PS), the path for AVX-512 CPUs without AVX512-FP16;
// kernel_avx512fp16.cpp holds the native one. NaNs are canonicalized to
// sign | 0x7E00 once, at the final store: a NaN is sticky in the chain and
// keeps its sign through every round trip, so only its payload could
// differ, and the canonicalization erases the payload.
#include "dnnfi/dnn/kernels/kernel_avx512.h"

#if defined(DNNFI_ENABLE_AVX512_KERNELS)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

#include "dnnfi/dnn/kernels/kernel_simd_blocked.h"

struct F32 {
  using Elem = float;
  using V = __m512;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr Mask kAll = 0xFFFF;
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V bcast(const float* p) { return _mm512_set1_ps(*p); }
  static V bcast(Mask m, const float* p) {
    return _mm512_maskz_mov_ps(m, _mm512_set1_ps(*p));
  }
  static V mul(V w, V a) { return _mm512_mul_ps(w, a); }
  static V add(V acc, V x) { return _mm512_add_ps(acc, x); }
  static void store(V v, float* p) { _mm512_storeu_ps(p, v); }
};

struct F64 {
  using Elem = double;
  using V = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  static constexpr Mask kAll = 0xFF;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const double* p) { return _mm512_loadu_pd(p); }
  static V bcast(const double* p) { return _mm512_set1_pd(*p); }
  static V bcast(Mask m, const double* p) {
    return _mm512_maskz_mov_pd(m, _mm512_set1_pd(*p));
  }
  static V mul(V w, V a) { return _mm512_mul_pd(w, a); }
  static V add(V acc, V x) { return _mm512_add_pd(acc, x); }
  static void store(V v, double* p) { _mm512_storeu_pd(p, v); }
};

/// FLOAT16 via F16C: lanes hold half values widened to float; every
/// operation rounds back through half (a NaN keeps its sign, its payload is
/// truncated, and store canonicalizes it). The conversions use the
/// zero-masked intrinsic forms with an all-lanes mask, the same instructions
/// as the unmasked ones without GCC 12's false -Wmaybe-uninitialized on their
/// _mm512_undefined_* pass-through operand.
struct F16C {
  using Elem = std::uint16_t;
  using V = __m512;
  using Mask = __mmask16;
  static constexpr std::size_t kLanes = 16;
  static constexpr Mask kAll = 0xFFFF;
  static __m512 widen(__m256i h) { return _mm512_maskz_cvtph_ps(kAll, h); }
  static __m256i narrow(__m512 x) {
    return _mm512_maskz_cvtps_ph(kAll, x, kRne);
  }
  static V round(V x) { return widen(narrow(x)); }
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const std::uint16_t* p) {
    return widen(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static V bcast(const std::uint16_t* p) {
    return widen(_mm256_set1_epi16(static_cast<short>(*p)));
  }
  static V bcast(Mask m, const std::uint16_t* p) {
    return widen(_mm256_maskz_set1_epi16(m, static_cast<short>(*p)));
  }
  static V mul(V w, V a) { return round(_mm512_mul_ps(w, a)); }
  static V add(V acc, V x) { return round(_mm512_add_ps(acc, x)); }
  static void store(V v, std::uint16_t* p) {
    const __m256i h = narrow(v);
    const __mmask16 nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    const __m256i canon =
        _mm256_or_si256(_mm256_and_si256(h, _mm256_set1_epi16(
                                                static_cast<short>(0x8000))),
                        _mm256_set1_epi16(0x7E00));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm256_mask_mov_epi16(h, nan, canon));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Exported entry points: lane blocks vectorized, remainder rows scalar.
// ---------------------------------------------------------------------------

void avx512_conv_float(const ConvGeom& g, const float* in, const float* w,
                       const float* wp, const float* bias, float* out) {
  conv_entry<F32>(g, in, w, wp, bias, out);
}

void avx512_fc_float(const FcGeom& g, const float* in, const float* w,
                     const float* wp, const float* bias, float* out) {
  fc_entry<F32>(g, in, w, wp, bias, out);
}

void avx512_conv_double(const ConvGeom& g, const double* in, const double* w,
                        const double* wp, const double* bias, double* out) {
  conv_entry<F64>(g, in, w, wp, bias, out);
}

void avx512_fc_double(const FcGeom& g, const double* in, const double* w,
                      const double* wp, const double* bias, double* out) {
  fc_entry<F64>(g, in, w, wp, bias, out);
}

void avx512_conv_half(const ConvGeom& g, const numeric::Half* in,
                      const numeric::Half* w, const numeric::Half* wp,
                      const numeric::Half* bias, numeric::Half* out) {
  conv_entry<F16C>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx512_fc_half(const FcGeom& g, const numeric::Half* in,
                    const numeric::Half* w, const numeric::Half* wp,
                    const numeric::Half* bias, numeric::Half* out) {
  fc_entry<F16C>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
