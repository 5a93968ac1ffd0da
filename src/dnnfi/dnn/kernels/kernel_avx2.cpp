// AVX2/F16C kernel implementations: 8 float / 4 double / 8 Half outputs per
// lane-block. Compiled with -mavx2 -mf16c and -ffp-contract=off
// (src/CMakeLists.txt); entered only behind runtime CPUID probes, so
// DNNFI-built binaries still run on CPUs without these instructions.
//
// Codegen-safety discipline (same as simd_convert_f16c.cpp): everything this
// TU emits is either an exported avx2_* entry point or an internal-linkage
// helper. It deliberately instantiates no shared inline library function —
// no Half member calls, no kernel_scalar.h templates, std::memcpy instead of
// std::bit_cast — so the linker can never pick a VEX-encoded COMDAT copy of
// a function that non-AVX2 code paths also call. The blocked MAC loops, the
// scalar remainder rows and f2h come from kernel_simd_blocked.h, included
// inside this TU's anonymous namespace for exactly that reason.
//
// Bit-identity strategy: vectorize ACROSS output channels, one output per
// lane. Each lane performs the scalar reference's accumulation chain — same
// (ci, ky, kx) order, separate multiply and add per tap (no FMA;
// -ffp-contract=off keeps the compiler from contracting the scalar
// tails), padded taps multiply a zero activation so NaN/Inf weights
// propagate identically; register blocking only interleaves independent
// chains (see kernel_simd_blocked.h). AVX2 has no mask registers, so the
// traits' lane masks are integer bit masks ANDed into the broadcast
// activation's bits. FLOAT16 computes in float and rounds to half after
// every multiply and add (VCVTPS2PH/VCVTPH2PS); NaNs are canonicalized to
// sign | 0x7E00 once, at the final store: a NaN is sticky in the chain and
// keeps its sign through every round trip, so only its payload could
// differ, and the canonicalization erases the payload (see kernels.h).
#include "dnnfi/dnn/kernels/kernel_avx2.h"

#if defined(DNNFI_ENABLE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dnnfi::dnn::kernels::detail {

namespace {

constexpr int kRne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

#include "dnnfi/dnn/kernels/kernel_simd_blocked.h"

// float -> half bits, 8 lanes, canonical-NaN rule (VCVTPS2PH would truncate
// the NaN payload instead, diverging from the software converter).
inline __m128i cvtps_ph_canon(__m256 v) noexcept {
  __m128i h = _mm256_cvtps_ph(v, kRne);
  const int nan_mask = _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  if (nan_mask != 0) {
    alignas(32) float fv[8];
    alignas(16) std::uint16_t hb[8];
    _mm256_store_ps(fv, v);
    _mm_store_si128(reinterpret_cast<__m128i*>(hb), h);
    for (int l = 0; l < 8; ++l)
      if ((nan_mask >> l) & 1) hb[l] = canonical_nan_bits(fv[l]);
    h = _mm_load_si128(reinterpret_cast<const __m128i*>(hb));
  }
  return h;
}

struct F32 {
  using Elem = float;
  using V = __m256;
  using Mask = std::uint32_t;
  static constexpr std::size_t kLanes = 8;
  static constexpr Mask kAll = 0xFFFFFFFFU;
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V bcast(const float* p) { return _mm256_set1_ps(*p); }
  static V bcast(Mask m, const float* p) {
    std::uint32_t b;
    std::memcpy(&b, p, sizeof(b));
    return _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(b & m)));
  }
  static V mul(V w, V a) { return _mm256_mul_ps(w, a); }
  static V add(V acc, V x) { return _mm256_add_ps(acc, x); }
  static void store(V v, float* p) { _mm256_storeu_ps(p, v); }
};

struct F64 {
  using Elem = double;
  using V = __m256d;
  using Mask = std::uint64_t;
  static constexpr std::size_t kLanes = 4;
  static constexpr Mask kAll = ~Mask{0};
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V bcast(const double* p) { return _mm256_set1_pd(*p); }
  static V bcast(Mask m, const double* p) {
    std::uint64_t b;
    std::memcpy(&b, p, sizeof(b));
    return _mm256_castsi256_pd(
        _mm256_set1_epi64x(static_cast<long long>(b & m)));
  }
  static V mul(V w, V a) { return _mm256_mul_pd(w, a); }
  static V add(V acc, V x) { return _mm256_add_pd(acc, x); }
  static void store(V v, double* p) { _mm256_storeu_pd(p, v); }
};

/// FLOAT16 via F16C: lanes hold half values widened to float; every
/// operation rounds back through half (a NaN keeps its sign, its payload is
/// truncated, and store canonicalizes it).
struct F16C {
  using Elem = std::uint16_t;
  using V = __m256;
  using Mask = std::uint16_t;
  static constexpr std::size_t kLanes = 8;
  static constexpr Mask kAll = 0xFFFF;
  static V round(V x) { return _mm256_cvtph_ps(_mm256_cvtps_ph(x, kRne)); }
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const std::uint16_t* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V bcast(const std::uint16_t* p) {
    return _mm256_set1_ps(_cvtsh_ss(*p));
  }
  static V bcast(Mask m, const std::uint16_t* p) {
    return _mm256_set1_ps(_cvtsh_ss(static_cast<std::uint16_t>(*p & m)));
  }
  static V mul(V w, V a) { return round(_mm256_mul_ps(w, a)); }
  static V add(V acc, V x) { return round(_mm256_add_ps(acc, x)); }
  static void store(V v, std::uint16_t* p) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), cvtps_ph_canon(v));
  }
};

// ---------------------------------------------------------------------------
// Post-MAC kernels. Same discipline: TU-local helpers only, <cmath> calls
// restricted to the extern libm entry points (exp, pow) — no std:: inline
// templates (std::min/std::isfinite/...) that a non-AVX TU might also
// instantiate.
// ---------------------------------------------------------------------------

// float -> half bits, 4 lanes in the low half of the result, canonical-NaN
// rule (the 4-wide sibling of cvtps_ph_canon).
inline __m128i cvtps_ph_canon4(__m128 v) noexcept {
  __m128i h = _mm_cvtps_ph(v, kRne);
  const int nan_mask =
      _mm_movemask_ps(_mm_cmp_ps(v, v, _CMP_UNORD_Q)) & 0xF;
  if (nan_mask != 0) {
    alignas(16) float fv[4];
    alignas(16) std::uint16_t hb[8];
    _mm_store_ps(fv, v);
    _mm_store_si128(reinterpret_cast<__m128i*>(hb), h);
    for (int l = 0; l < 4; ++l)
      if ((nan_mask >> l) & 1) hb[l] = canonical_nan_bits(fv[l]);
    h = _mm_load_si128(reinterpret_cast<const __m128i*>(hb));
  }
  return h;
}

// Local restatement of kernels::lrn_pow (kernel_scalar.h): pow(base, beta)
// with the exact pow(1.0, beta) == 1.0 shortcut and a previous-base memo.
// pow is deterministic, so memoization never changes a value.
inline double lrn_pow_local(double base, double beta, double& memo_base,
                            double& memo_pow) noexcept {
  if (base == 1.0) return 1.0;
  if (base == memo_base) return memo_pow;
  memo_base = base;
  memo_pow = std::pow(base, beta);
  return memo_pow;
}

// Local restatement of kernels::softmax_shifted_exp over an already
// converted double. mx is always finite here, so the shift is never NaN.
inline double shifted_exp_local(double v, double mx) noexcept {
  if (v != v) v = -__builtin_inf();
  const double sh = v - mx;
  return std::exp(sh < 700.0 ? sh : 700.0);
}

// Per-type lane I/O for the double-precision post-MAC internals: 4
// contiguous elements <-> one __m256d, plus the single-element forms the
// scalar tails use. Conversions are exactly numeric_traits<T>'s
// to_double/from_double: float<->double casts are the hardware converts,
// Half goes half->float->double in and double->float->half (canonical NaN)
// out.
struct LaneIoF32 {
  using T = float;
  static __m256d load4(const float* p) noexcept {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static void store4(__m256d v, float* p) noexcept {
    _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
  }
  static double load1(const float* p) noexcept {
    return static_cast<double>(*p);
  }
  static void store1(double v, float* p) noexcept {
    *p = static_cast<float>(v);
  }
};

struct LaneIoF64 {
  using T = double;
  static __m256d load4(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store4(__m256d v, double* p) noexcept {
    _mm256_storeu_pd(p, v);
  }
  static double load1(const double* p) noexcept { return *p; }
  static void store1(double v, double* p) noexcept { *p = v; }
};

struct LaneIoF16 {
  using T = std::uint16_t;
  static __m256d load4(const std::uint16_t* p) noexcept {
    const __m128i h =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_cvtps_pd(_mm_cvtph_ps(h));
  }
  static void store4(__m256d v, std::uint16_t* p) noexcept {
    const __m128i h = cvtps_ph_canon4(_mm256_cvtpd_ps(v));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), h);
  }
  static double load1(const std::uint16_t* p) noexcept {
    return static_cast<double>(_cvtsh_ss(*p));
  }
  static void store1(double v, std::uint16_t* p) noexcept {
    *p = f2h(static_cast<float>(v));
  }
};

// Scalar LRN over spatial positions [p0, p1): the tail/fallback path. Fresh
// per-output window sums in low-to-high channel order — identical to
// kernels::scalar_lrn (buffering never changed a bit, see kernel_scalar.h).
template <class Io>
void lrn_ref_positions(const LrnGeom& g, const typename Io::T* in,
                       typename Io::T* out, std::size_t p0, std::size_t p1) {
  const std::size_t plane = g.h * g.w;
  const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
  const double an = g.alpha / static_cast<double>(g.size);
  for (std::size_t p = p0; p < p1; ++p) {
    double memo_base = __builtin_nan("");
    double memo_pow = 0.0;
    for (std::size_t c = 0; c < g.c; ++c) {
      const std::ptrdiff_t clo =
          (static_cast<std::ptrdiff_t>(c) - half) > 0
              ? static_cast<std::ptrdiff_t>(c) - half
              : 0;
      const std::ptrdiff_t chi =
          (static_cast<std::ptrdiff_t>(c) + half) <
                  static_cast<std::ptrdiff_t>(g.c) - 1
              ? static_cast<std::ptrdiff_t>(c) + half
              : static_cast<std::ptrdiff_t>(g.c) - 1;
      double ss = 0;
      for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
        const double v =
            Io::load1(in + static_cast<std::size_t>(cc) * plane + p);
        ss += v * v;
      }
      const double base = g.k + an * ss;
      const double denom = lrn_pow_local(base, g.beta, memo_base, memo_pow);
      const double v = Io::load1(in + c * plane + p);
      Io::store1(v / denom, out + c * plane + p);
    }
  }
}

// Vectorized LRN: 4 consecutive spatial positions per lane-block. Each
// lane's window sum runs in the scalar order (clo..chi adds from a zero
// accumulator), base = k + an*ss is one multiply + one add, and the
// per-element pow stays a scalar libm call with a per-lane memo.
template <class Io>
void lrn_blocks(const LrnGeom& g, const typename Io::T* in,
                typename Io::T* out) {
  constexpr std::size_t kMaxC = 512;
  const std::size_t plane = g.h * g.w;
  if (g.c > kMaxC || plane < 4) {
    lrn_ref_positions<Io>(g, in, out, 0, plane);
    return;
  }
  const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
  const double an = g.alpha / static_cast<double>(g.size);
  const __m256d kv = _mm256_set1_pd(g.k);
  const __m256d anv = _mm256_set1_pd(an);
  alignas(32) double vals[kMaxC * 4];
  alignas(32) double sqs[kMaxC * 4];
  std::size_t p = 0;
  for (; p + 4 <= plane; p += 4) {
    for (std::size_t c = 0; c < g.c; ++c) {
      const __m256d v = Io::load4(in + c * plane + p);
      _mm256_store_pd(vals + c * 4, v);
      _mm256_store_pd(sqs + c * 4, _mm256_mul_pd(v, v));
    }
    alignas(32) double memo_base[4];
    alignas(32) double memo_pow[4] = {0, 0, 0, 0};
    for (int l = 0; l < 4; ++l) memo_base[l] = __builtin_nan("");
    for (std::size_t c = 0; c < g.c; ++c) {
      const std::ptrdiff_t clo =
          (static_cast<std::ptrdiff_t>(c) - half) > 0
              ? static_cast<std::ptrdiff_t>(c) - half
              : 0;
      const std::ptrdiff_t chi =
          (static_cast<std::ptrdiff_t>(c) + half) <
                  static_cast<std::ptrdiff_t>(g.c) - 1
              ? static_cast<std::ptrdiff_t>(c) + half
              : static_cast<std::ptrdiff_t>(g.c) - 1;
      __m256d ss = _mm256_setzero_pd();
      for (std::ptrdiff_t cc = clo; cc <= chi; ++cc)
        ss = _mm256_add_pd(
            ss, _mm256_load_pd(sqs + static_cast<std::size_t>(cc) * 4));
      const __m256d base = _mm256_add_pd(kv, _mm256_mul_pd(anv, ss));
      alignas(32) double bl[4];
      alignas(32) double dl[4];
      _mm256_store_pd(bl, base);
      for (int l = 0; l < 4; ++l)
        dl[l] = lrn_pow_local(bl[l], g.beta, memo_base[l], memo_pow[l]);
      const __m256d outv =
          _mm256_div_pd(_mm256_load_pd(vals + c * 4), _mm256_load_pd(dl));
      Io::store4(outv, out + c * plane + p);
    }
  }
  if (p < plane) lrn_ref_positions<Io>(g, in, out, p, plane);
}

}  // namespace

// ---------------------------------------------------------------------------
// Exported entry points: lane blocks vectorized, remainder rows scalar.
// ---------------------------------------------------------------------------

void avx2_conv_float(const ConvGeom& g, const float* in, const float* w,
                     const float* wp, const float* bias, float* out) {
  conv_entry<F32>(g, in, w, wp, bias, out);
}

void avx2_fc_float(const FcGeom& g, const float* in, const float* w,
                   const float* wp, const float* bias, float* out) {
  fc_entry<F32>(g, in, w, wp, bias, out);
}

void avx2_relu_float(const float* in, float* out, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(in + i);
    _mm256_storeu_ps(out + i,
                     _mm256_and_ps(v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) out[i] = (in[i] > 0.0f) ? in[i] : 0.0f;
}

void avx2_conv_double(const ConvGeom& g, const double* in, const double* w,
                      const double* wp, const double* bias, double* out) {
  conv_entry<F64>(g, in, w, wp, bias, out);
}

void avx2_fc_double(const FcGeom& g, const double* in, const double* w,
                    const double* wp, const double* bias, double* out) {
  fc_entry<F64>(g, in, w, wp, bias, out);
}

void avx2_relu_double(const double* in, double* out, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(in + i);
    _mm256_storeu_pd(out + i,
                     _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) out[i] = (in[i] > 0.0) ? in[i] : 0.0;
}

void avx2_conv_half(const ConvGeom& g, const numeric::Half* in,
                    const numeric::Half* w, const numeric::Half* wp,
                    const numeric::Half* bias, numeric::Half* out) {
  conv_entry<F16C>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx2_fc_half(const FcGeom& g, const numeric::Half* in,
                  const numeric::Half* w, const numeric::Half* wp,
                  const numeric::Half* bias, numeric::Half* out) {
  fc_entry<F16C>(g, bits(in), bits(w), bits(wp), bits(bias), bits(out));
}

void avx2_relu_half(const numeric::Half* in, numeric::Half* out,
                    std::size_t n) {
  // A half is > 0 exactly when its bits, read as int16, lie in
  // (0, 0x7C00]: sign clear, not +0, not a NaN (+Inf is 0x7C00). So 16
  // lanes compare as integers, with no conversion to float.
  const auto* ip = bits(in);
  auto* op = bits(out);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i inf = _mm256_set1_epi16(0x7C00);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ip + i));
    const __m256i keep = _mm256_andnot_si256(_mm256_cmpgt_epi16(h, inf),
                                             _mm256_cmpgt_epi16(h, zero));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(op + i),
                        _mm256_and_si256(h, keep));
  }
  for (; i < n; ++i) op[i] = (_cvtsh_ss(ip[i]) > 0.0f) ? ip[i] : 0;
}

// ---------------------------------------------------------------------------
// Post-MAC entry points.
// ---------------------------------------------------------------------------

void avx2_lrn_float(const LrnGeom& g, const float* in, float* out) {
  lrn_blocks<LaneIoF32>(g, in, out);
}

void avx2_lrn_double(const LrnGeom& g, const double* in, double* out) {
  lrn_blocks<LaneIoF64>(g, in, out);
}

void avx2_lrn_half(const LrnGeom& g, const numeric::Half* in,
                   numeric::Half* out) {
  lrn_blocks<LaneIoF16>(g, bits(in), bits(out));
}

void avx2_maxpool_float(const PoolGeom& g, const float* in, float* out) {
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  const __m256i idx = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(g.stride)));
  for (std::size_t c = 0; c < g.c; ++c) {
    const float* const ic = in + c * iplane;
    float* const oc = out + c * oplane;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      const float* const iwin = ic + oy * g.stride * g.in_w;
      float* const orow = oc + oy * g.out_w;
      std::size_t ox = 0;
      for (; ox + 8 <= g.out_w; ox += 8) {
        const float* const base = iwin + ox * g.stride;
        __m256 best = _mm256_i32gather_ps(base, idx, 4);
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const float* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const __m256 v = _mm256_i32gather_ps(irow + kx, idx, 4);
            best = _mm256_blendv_ps(best, v,
                                    _mm256_cmp_ps(v, best, _CMP_GT_OQ));
          }
        }
        _mm256_storeu_ps(orow + ox, best);
      }
      for (; ox < g.out_w; ++ox) {
        const float* const base = iwin + ox * g.stride;
        float best = base[0];
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const float* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const float v = irow[kx];
            if (v > best) best = v;
          }
        }
        orow[ox] = best;
      }
    }
  }
}

namespace {

// Four doubles gathered at 32-bit offsets `idx` (in elements). Spelled as
// the masked gather with an explicit zero source and an all-ones mask:
// GCC's _mm256_i32gather_pd starts from _mm256_undefined_pd(), which
// -Wmaybe-uninitialized reports. Same VGATHERDPD, same result.
inline __m256d gather4d(const double* base, __m128i idx) noexcept {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

}  // namespace

void avx2_maxpool_double(const PoolGeom& g, const double* in, double* out) {
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  const __m128i idx = _mm_mullo_epi32(
      _mm_setr_epi32(0, 1, 2, 3),
      _mm_set1_epi32(static_cast<int>(g.stride)));
  for (std::size_t c = 0; c < g.c; ++c) {
    const double* const ic = in + c * iplane;
    double* const oc = out + c * oplane;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      const double* const iwin = ic + oy * g.stride * g.in_w;
      double* const orow = oc + oy * g.out_w;
      std::size_t ox = 0;
      for (; ox + 4 <= g.out_w; ox += 4) {
        const double* const base = iwin + ox * g.stride;
        __m256d best = gather4d(base, idx);
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const double* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const __m256d v = gather4d(irow + kx, idx);
            best = _mm256_blendv_pd(best, v,
                                    _mm256_cmp_pd(v, best, _CMP_GT_OQ));
          }
        }
        _mm256_storeu_pd(orow + ox, best);
      }
      for (; ox < g.out_w; ++ox) {
        const double* const base = iwin + ox * g.stride;
        double best = base[0];
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const double* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const double v = irow[kx];
            if (v > best) best = v;
          }
        }
        orow[ox] = best;
      }
    }
  }
}

namespace {

// 8 half bits gathered at a stride, composed on the stack (no 16-bit
// hardware gather exists).
inline __m128i gather8h(const std::uint16_t* p, std::size_t stride) noexcept {
  alignas(16) std::uint16_t b[8];
  for (std::size_t l = 0; l < 8; ++l) b[l] = p[l * stride];
  return _mm_load_si128(reinterpret_cast<const __m128i*>(b));
}

// Lane mask (32-bit float compare) narrowed to 16-bit lanes for blending
// half bit patterns: compares run on the converted floats, winners keep
// their original 16 bits.
inline __m128i gt_mask16(__m128i a, __m128i b) noexcept {
  const __m256i m32 = _mm256_castps_si256(_mm256_cmp_ps(
      _mm256_cvtph_ps(a), _mm256_cvtph_ps(b), _CMP_GT_OQ));
  return _mm_packs_epi32(_mm256_castsi256_si128(m32),
                         _mm256_extracti128_si256(m32, 1));
}

}  // namespace

void avx2_maxpool_half(const PoolGeom& g, const numeric::Half* in,
                       numeric::Half* out) {
  const auto* ip = bits(in);
  auto* op = bits(out);
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;
  for (std::size_t c = 0; c < g.c; ++c) {
    const std::uint16_t* const ic = ip + c * iplane;
    std::uint16_t* const oc = op + c * oplane;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      const std::uint16_t* const iwin = ic + oy * g.stride * g.in_w;
      std::uint16_t* const orow = oc + oy * g.out_w;
      std::size_t ox = 0;
      for (; ox + 8 <= g.out_w; ox += 8) {
        const std::uint16_t* const base = iwin + ox * g.stride;
        __m128i best = gather8h(base, g.stride);
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::uint16_t* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const __m128i v = gather8h(irow + kx, g.stride);
            best = _mm_blendv_epi8(best, v, gt_mask16(v, best));
          }
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(orow + ox), best);
      }
      for (; ox < g.out_w; ++ox) {
        const std::uint16_t* const base = iwin + ox * g.stride;
        std::uint16_t best = base[0];
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const std::uint16_t* const irow = base + ky * g.in_w;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const std::uint16_t v = irow[kx];
            if (_cvtsh_ss(v) > _cvtsh_ss(best)) best = v;
          }
        }
        orow[ox] = best;
      }
    }
  }
}

void avx2_avgpool_float(const float* in, float* out, std::size_t channels,
                        std::size_t plane) {
  const double inv = 1.0 / static_cast<double>(plane);
  const __m256d invv = _mm256_set1_pd(inv);
  const int p = static_cast<int>(plane);
  const __m128i idx = _mm_setr_epi32(0, p, 2 * p, 3 * p);
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    const float* const base = in + c * plane;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < plane; ++i)
      acc = _mm256_add_pd(
          acc, _mm256_cvtps_pd(_mm_i32gather_ps(base + i, idx, 4)));
    _mm_storeu_ps(out + c, _mm256_cvtpd_ps(_mm256_mul_pd(acc, invv)));
  }
  for (; c < channels; ++c) {
    const float* const ic = in + c * plane;
    double s = 0;
    for (std::size_t i = 0; i < plane; ++i)
      s += static_cast<double>(ic[i]);
    out[c] = static_cast<float>(s * inv);
  }
}

void avx2_avgpool_double(const double* in, double* out, std::size_t channels,
                         std::size_t plane) {
  const double inv = 1.0 / static_cast<double>(plane);
  const __m256d invv = _mm256_set1_pd(inv);
  const int p = static_cast<int>(plane);
  const __m128i idx = _mm_setr_epi32(0, p, 2 * p, 3 * p);
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    const double* const base = in + c * plane;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < plane; ++i)
      acc = _mm256_add_pd(acc, gather4d(base + i, idx));
    _mm256_storeu_pd(out + c, _mm256_mul_pd(acc, invv));
  }
  for (; c < channels; ++c) {
    const double* const ic = in + c * plane;
    double s = 0;
    for (std::size_t i = 0; i < plane; ++i) s += ic[i];
    out[c] = s * inv;
  }
}

void avx2_avgpool_half(const numeric::Half* in, numeric::Half* out,
                       std::size_t channels, std::size_t plane) {
  const auto* ip = bits(in);
  auto* op = bits(out);
  const double inv = 1.0 / static_cast<double>(plane);
  const __m256d invv = _mm256_set1_pd(inv);
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    const std::uint16_t* const base = ip + c * plane;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < plane; ++i) {
      alignas(16) std::uint16_t b[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::size_t l = 0; l < 4; ++l) b[l] = base[l * plane + i];
      const __m128 f = _mm_cvtph_ps(
          _mm_load_si128(reinterpret_cast<const __m128i*>(b)));
      acc = _mm256_add_pd(acc, _mm256_cvtps_pd(f));
    }
    const __m128i h = cvtps_ph_canon4(_mm256_cvtpd_ps(
        _mm256_mul_pd(acc, invv)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(op + c), h);
  }
  for (; c < channels; ++c) {
    const std::uint16_t* const ic = ip + c * plane;
    double s = 0;
    for (std::size_t i = 0; i < plane; ++i)
      s += static_cast<double>(_cvtsh_ss(ic[i]));
    op[c] = f2h(static_cast<float>(s * inv));
  }
}

namespace {

constexpr std::size_t kSoftmaxStack = 1024;

// Finite-max pass over floats (the widened Half path shares it): lanes that
// are NaN or +/-Inf are replaced by -Inf before a vector max, so the result
// equals the scalar "max over finite elements" — max is exact, any
// association gives the same value (zero signs may differ; exp(v - mx) is
// unaffected, see Softmax in layers.h).
inline double finite_max_tail_f32(const float* in, std::size_t i,
                                  std::size_t n, __m256 run) noexcept {
  alignas(32) float lane[8];
  _mm256_store_ps(lane, run);
  double mx = -__builtin_inf();
  for (int l = 0; l < 8; ++l)
    if (static_cast<double>(lane[l]) > mx) mx = static_cast<double>(lane[l]);
  for (; i < n; ++i) {
    const double v = static_cast<double>(in[i]);
    if (__builtin_isfinite(v) && v > mx) mx = v;
  }
  return mx;
}

inline __m256 finite_lanes_or_ninf(__m256 v) noexcept {
  const __m256 fin = _mm256_cmp_ps(_mm256_sub_ps(v, v), _mm256_setzero_ps(),
                                   _CMP_EQ_OQ);
  return _mm256_blendv_ps(_mm256_set1_ps(-__builtin_inff()), v, fin);
}

}  // namespace

void avx2_softmax_float(const float* in, float* out, std::size_t n) {
  __m256 run = _mm256_set1_ps(-__builtin_inff());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    run = _mm256_max_ps(run, finite_lanes_or_ninf(_mm256_loadu_ps(in + i)));
  double mx = finite_max_tail_f32(in, i, n, run);
  if (!__builtin_isfinite(mx)) mx = 0;
  const bool buffered = n <= kSoftmaxStack;
  double buf[kSoftmaxStack];
  double sum = 0;
  for (i = 0; i < n; ++i) {
    const double e = shifted_exp_local(static_cast<double>(in[i]), mx);
    if (buffered) buf[i] = e;
    sum += e;
  }
  if (sum > 0 && buffered) {
    const __m256d sv = _mm256_set1_pd(sum);
    i = 0;
    for (; i + 4 <= n; i += 4)
      _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_div_pd(
                                 _mm256_loadu_pd(buf + i), sv)));
    for (; i < n; ++i) out[i] = static_cast<float>(buf[i] / sum);
  } else if (sum > 0) {
    for (i = 0; i < n; ++i)
      out[i] = static_cast<float>(
          shifted_exp_local(static_cast<double>(in[i]), mx) / sum);
  } else {
    for (i = 0; i < n; ++i) out[i] = 0.0f;
  }
}

void avx2_softmax_double(const double* in, double* out, std::size_t n) {
  const __m256d ninf = _mm256_set1_pd(-__builtin_inf());
  __m256d run = ninf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(in + i);
    const __m256d fin = _mm256_cmp_pd(
        _mm256_sub_pd(v, v), _mm256_setzero_pd(), _CMP_EQ_OQ);
    run = _mm256_max_pd(run, _mm256_blendv_pd(ninf, v, fin));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, run);
  double mx = -__builtin_inf();
  for (int l = 0; l < 4; ++l)
    if (lane[l] > mx) mx = lane[l];
  for (; i < n; ++i)
    if (__builtin_isfinite(in[i]) && in[i] > mx) mx = in[i];
  if (!__builtin_isfinite(mx)) mx = 0;
  const bool buffered = n <= kSoftmaxStack;
  double buf[kSoftmaxStack];
  double sum = 0;
  for (i = 0; i < n; ++i) {
    const double e = shifted_exp_local(in[i], mx);
    if (buffered) buf[i] = e;
    sum += e;
  }
  if (sum > 0 && buffered) {
    const __m256d sv = _mm256_set1_pd(sum);
    i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(out + i,
                       _mm256_div_pd(_mm256_loadu_pd(buf + i), sv));
    for (; i < n; ++i) out[i] = buf[i] / sum;
  } else if (sum > 0) {
    for (i = 0; i < n; ++i) out[i] = shifted_exp_local(in[i], mx) / sum;
  } else {
    for (i = 0; i < n; ++i) out[i] = 0.0;
  }
}

void avx2_softmax_half(const numeric::Half* in, numeric::Half* out,
                       std::size_t n) {
  const auto* ip = bits(in);
  auto* op = bits(out);
  __m256 run = _mm256_set1_ps(-__builtin_inff());
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ip + i)));
    run = _mm256_max_ps(run, finite_lanes_or_ninf(v));
  }
  alignas(32) float lane[8];
  _mm256_store_ps(lane, run);
  double mx = -__builtin_inf();
  for (int l = 0; l < 8; ++l)
    if (static_cast<double>(lane[l]) > mx) mx = static_cast<double>(lane[l]);
  for (; i < n; ++i) {
    const double v = static_cast<double>(_cvtsh_ss(ip[i]));
    if (__builtin_isfinite(v) && v > mx) mx = v;
  }
  if (!__builtin_isfinite(mx)) mx = 0;
  const bool buffered = n <= kSoftmaxStack;
  double buf[kSoftmaxStack];
  double sum = 0;
  for (i = 0; i < n; ++i) {
    const double e =
        shifted_exp_local(static_cast<double>(_cvtsh_ss(ip[i])), mx);
    if (buffered) buf[i] = e;
    sum += e;
  }
  if (sum > 0 && buffered) {
    const __m256d sv = _mm256_set1_pd(sum);
    i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d q = _mm256_div_pd(_mm256_loadu_pd(buf + i), sv);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(op + i),
                       cvtps_ph_canon4(_mm256_cvtpd_ps(q)));
    }
    for (; i < n; ++i) op[i] = f2h(static_cast<float>(buf[i] / sum));
  } else if (sum > 0) {
    for (i = 0; i < n; ++i)
      op[i] = f2h(static_cast<float>(
          shifted_exp_local(static_cast<double>(_cvtsh_ss(ip[i])), mx) /
          sum));
  } else {
    for (i = 0; i < n; ++i) op[i] = 0;
  }
}

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX2_KERNELS
