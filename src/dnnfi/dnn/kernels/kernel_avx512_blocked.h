// The register-blocked MAC loops shared by the two AVX-512 kernel TUs
// (kernel_avx512.cpp and kernel_avx512fp16.cpp), written once over a thin
// per-type arithmetic trait.
//
// NOT a normal header: each TU includes it INSIDE its anonymous namespace,
// after <immintrin.h>, <cstddef>, <cstdint> and <cstring>, so every function
// here gets internal linkage and is compiled with that TU's instruction-set
// flags. No EVEX (or EVEX-FP16) COMDAT can therefore leak into baseline code
// paths. It includes nothing itself for the same reason.
//
// Trait contract (Tr):
//   Elem                storage element (float, double, or Half bits)
//   V                   one lane-block register: kLanes outputs
//   Mask, kAll          AVX-512 lane mask type and its all-lanes value
//   zero()              all lanes +0
//   load(p)             kLanes packed weights (or biases) at p
//   bcast(p)            activation *p in every lane
//   bcast(m, p)         *p in every lane when m == kAll, +0 when m == 0
//                       (p is always readable)
//   mul(w, a), add(acc, x)
//                       one rounded operation in the datapath type; the
//                       operand order is the scalar reference's
//   store(v, p)         final rounding / NaN canonicalization, kLanes
//                       contiguous elements
//
// Shape. Conv keeps kPix output pixels (of the flattened oy*out_w+ox plane)
// x one lane-block of output channels in registers and loads each tap's
// weight vector once for all of them; FC keeps kFcBlocks lane-blocks in
// flight sharing each broadcast input. Every output's chain is still the
// scalar reference's: (ci, ky, kx) order, a separate mul and add per tap,
// padded taps multiplying a +0 activation, the bias added last. So results
// are bit-identical by construction; blocking only interleaves independent
// chains. Remainder pixels (lane-blocks) run one at a time through the same
// loop with a group of one.

/// Output pixels per conv register block.
inline constexpr std::size_t kPix = 8;
/// Output lane-blocks per FC register block.
inline constexpr std::size_t kFcBlocks = 4;
/// Largest k*k the tap table holds (k <= 16); callers route larger kernels
/// to the scalar rows.
inline constexpr std::size_t kMaxTaps = 256;

/// One conv register block: pixels [p0, p0 + P) of every full lane-block.
/// Interior blocks (no padded tap for any pixel) address activations as a
/// per-pixel base offset plus the tap's (ky, kx) displacement; border blocks
/// read through a per-(tap, pixel) table of clamped offsets and all-or-none
/// lane masks built once for the block and reused for every input channel
/// and lane-block. `off` and `live` hold kMaxTaps * P entries.
template <class Tr, std::size_t P>
void conv_pixel_block(const ConvGeom& g, const typename Tr::Elem* in,
                      const typename Tr::Elem* wp,
                      const typename Tr::Elem* bias, typename Tr::Elem* out,
                      std::size_t blocks, std::size_t p0, std::ptrdiff_t* off,
                      typename Tr::Mask* live) {
  using Elem = typename Tr::Elem;
  using V = typename Tr::V;
  using Mask = typename Tr::Mask;
  constexpr std::size_t L = Tr::kLanes;
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const auto in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const auto k = static_cast<std::ptrdiff_t>(g.k);
  const std::size_t taps = g.k * g.k;
  const std::size_t kvol = g.in_c * taps;
  const std::size_t iplane = g.in_h * g.in_w;
  const std::size_t oplane = g.out_h * g.out_w;

  std::ptrdiff_t iy0[P]{}, ix0[P]{};
  bool interior = true;
  for (std::size_t j = 0; j < P; ++j) {
    const std::size_t p = p0 + j;
    iy0[j] = static_cast<std::ptrdiff_t>((p / g.out_w) * g.stride) - pad;
    ix0[j] = static_cast<std::ptrdiff_t>((p % g.out_w) * g.stride) - pad;
    interior = interior && iy0[j] >= 0 && ix0[j] >= 0 &&
               iy0[j] + k <= in_h && ix0[j] + k <= in_w;
  }
  if (interior) {
    for (std::size_t j = 0; j < P; ++j) off[j] = iy0[j] * in_w + ix0[j];
  } else {
    for (std::ptrdiff_t ky = 0; ky < k; ++ky)
      for (std::ptrdiff_t kx = 0; kx < k; ++kx)
        for (std::size_t j = 0; j < P; ++j) {
          const std::ptrdiff_t iy = iy0[j] + ky, ix = ix0[j] + kx;
          const bool ok = iy >= 0 && iy < in_h && ix >= 0 && ix < in_w;
          const auto t = static_cast<std::size_t>(ky * k + kx) * P + j;
          off[t] = ok ? iy * in_w + ix : 0;
          live[t] = ok ? Tr::kAll : Mask{0};
        }
  }

  for (std::size_t b = 0; b < blocks; ++b) {
    const Elem* w = wp + b * kvol * L;
    V acc[P];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < P; ++j) acc[j] = Tr::zero();
    for (std::size_t ci = 0; ci < g.in_c; ++ci) {
      const Elem* const ic = in + ci * iplane;
      if (interior) {
        for (std::ptrdiff_t ky = 0; ky < k; ++ky) {
          const Elem* const row = ic + ky * in_w;
          for (std::ptrdiff_t kx = 0; kx < k; ++kx, w += L) {
            const V wv = Tr::load(w);
#pragma GCC unroll 16
            for (std::size_t j = 0; j < P; ++j)
              acc[j] = Tr::add(acc[j],
                               Tr::mul(wv, Tr::bcast(row + kx + off[j])));
          }
        }
      } else {
        for (std::size_t t = 0; t < taps; ++t, w += L) {
          const V wv = Tr::load(w);
          const std::ptrdiff_t* const o = off + t * P;
          const Mask* const m = live + t * P;
#pragma GCC unroll 16
          for (std::size_t j = 0; j < P; ++j)
            acc[j] =
                Tr::add(acc[j], Tr::mul(wv, Tr::bcast(m[j], ic + o[j])));
        }
      }
    }
    const V bv = Tr::load(bias + b * L);
    alignas(64) Elem lanes[P][L];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < P; ++j)
      Tr::store(Tr::add(acc[j], bv), lanes[j]);
    Elem* const ob = out + b * L * oplane + p0;
    for (std::size_t l = 0; l < L; ++l)
      for (std::size_t j = 0; j < P; ++j) ob[l * oplane + j] = lanes[j][l];
  }
}

/// Full lane-blocks [0, blocks) of a convolution from pack_rows weights.
/// Requires g.k * g.k <= kMaxTaps.
template <class Tr>
void conv_blocked(const ConvGeom& g, const typename Tr::Elem* in,
                  const typename Tr::Elem* wp, const typename Tr::Elem* bias,
                  typename Tr::Elem* out, std::size_t blocks) {
  const std::size_t oplane = g.out_h * g.out_w;
  std::ptrdiff_t off[kMaxTaps * kPix]{};
  typename Tr::Mask live[kMaxTaps * kPix]{};
  std::size_t p = 0;
  for (; p + kPix <= oplane; p += kPix)
    conv_pixel_block<Tr, kPix>(g, in, wp, bias, out, blocks, p, off, live);
  for (; p < oplane; ++p)
    conv_pixel_block<Tr, 1>(g, in, wp, bias, out, blocks, p, off, live);
}

/// FC lane-blocks [b0, b0 + NB): one broadcast input feeds NB chains.
template <class Tr, std::size_t NB>
void fc_block_group(const FcGeom& g, const typename Tr::Elem* in,
                    const typename Tr::Elem* wp,
                    const typename Tr::Elem* bias, typename Tr::Elem* out,
                    std::size_t b0) {
  using Elem = typename Tr::Elem;
  using V = typename Tr::V;
  constexpr std::size_t L = Tr::kLanes;
  const Elem* w = wp + b0 * g.in * L;
  const std::size_t bstride = g.in * L;
  V acc[NB];
#pragma GCC unroll 16
  for (std::size_t n = 0; n < NB; ++n) acc[n] = Tr::zero();
  for (std::size_t i = 0; i < g.in; ++i, w += L) {
    const V av = Tr::bcast(in + i);
#pragma GCC unroll 16
    for (std::size_t n = 0; n < NB; ++n)
      acc[n] = Tr::add(acc[n], Tr::mul(Tr::load(w + n * bstride), av));
  }
#pragma GCC unroll 16
  for (std::size_t n = 0; n < NB; ++n)
    Tr::store(Tr::add(acc[n], Tr::load(bias + (b0 + n) * L)),
              out + (b0 + n) * L);
}

/// Full lane-blocks [0, blocks) of a fully-connected layer.
template <class Tr>
void fc_blocked(const FcGeom& g, const typename Tr::Elem* in,
                const typename Tr::Elem* wp, const typename Tr::Elem* bias,
                typename Tr::Elem* out, std::size_t blocks) {
  std::size_t b = 0;
  for (; b + kFcBlocks <= blocks; b += kFcBlocks)
    fc_block_group<Tr, kFcBlocks>(g, in, wp, bias, out, b);
  for (; b < blocks; ++b) fc_block_group<Tr, 1>(g, in, wp, bias, out, b);
}

/// Conv / FC entry body shared by every datapath type: full lane-blocks
/// through the blocked loop, remainder rows (and kernels too large for the
/// tap table) through the scalar `rows`.
template <class Tr, typename Rows>
void conv_entry(const ConvGeom& g, const typename Tr::Elem* in,
                const typename Tr::Elem* w, const typename Tr::Elem* wp,
                const typename Tr::Elem* bias, typename Tr::Elem* out,
                Rows rows) {
  std::size_t blocks = g.out_c / Tr::kLanes;
  if (g.k * g.k > kMaxTaps) blocks = 0;
  if (blocks > 0) conv_blocked<Tr>(g, in, wp, bias, out, blocks);
  if (blocks * Tr::kLanes < g.out_c)
    rows(g, in, w, bias, out, blocks * Tr::kLanes, g.out_c);
}

template <class Tr, typename Rows>
void fc_entry(const FcGeom& g, const typename Tr::Elem* in,
              const typename Tr::Elem* w, const typename Tr::Elem* wp,
              const typename Tr::Elem* bias, typename Tr::Elem* out,
              Rows rows) {
  const std::size_t blocks = g.out / Tr::kLanes;
  if (blocks > 0) fc_blocked<Tr>(g, in, wp, bias, out, blocks);
  if (blocks * Tr::kLanes < g.out)
    rows(g, in, w, bias, out, blocks * Tr::kLanes, g.out);
}

inline const std::uint16_t* bits(const numeric::Half* p) {
  return reinterpret_cast<const std::uint16_t*>(p);
}
inline std::uint16_t* bits(numeric::Half* p) {
  return reinterpret_cast<std::uint16_t*>(p);
}

// ---------------------------------------------------------------------------
// Scalar remainder rows (output channels past the last full lane-block),
// re-stated from kernel_scalar.h so these TUs never instantiate an
// external-linkage template. Half works on raw bits with F16C scalar
// converts, rounding after every multiply and add like numeric::Half.
// ---------------------------------------------------------------------------

template <typename T>
void conv_rows_plain(const ConvGeom& g, const T* in, const T* w_oihw,
                     const T* bias, T* out, std::size_t co_begin,
                     std::size_t co_end) {
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const std::size_t kvol = g.in_c * g.k * g.k;
  for (std::size_t co = co_begin; co < co_end; ++co) {
    const T* const wco = w_oihw + co * kvol;
    const T b = bias[co];
    T* op = out + co * g.out_h * g.out_w;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        T acc{};
        const T* w = wco;
        for (std::size_t ci = 0; ci < g.in_c; ++ci) {
          const T* const ic = in + ci * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            const bool row_ok =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            const T* const irow =
                row_ok ? ic + static_cast<std::size_t>(iy) * g.in_w : nullptr;
            for (std::size_t kx = 0; kx < g.k; ++kx, ++w) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              T act{};
              if (row_ok && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(g.in_w))
                act = irow[static_cast<std::size_t>(ix)];
              const T product = *w * act;
              acc += product;
            }
          }
        }
        acc += b;
        *op++ = acc;
      }
    }
  }
}

template <typename T>
void fc_rows_plain(const FcGeom& g, const T* in, const T* w, const T* bias,
                   T* out, std::size_t o_begin, std::size_t o_end) {
  for (std::size_t o = o_begin; o < o_end; ++o) {
    T acc{};
    const T* const wr = w + o * g.in;
    for (std::size_t i = 0; i < g.in; ++i) {
      const T product = wr[i] * in[i];
      acc += product;
    }
    acc += bias[o];
    out[o] = acc;
  }
}

/// float -> half bits with the library's canonical-NaN rule (sign | 0x7E00).
inline std::uint16_t f2h(float v) noexcept {
  if (v != v) {
    std::uint32_t fb;
    std::memcpy(&fb, &v, sizeof(fb));
    return static_cast<std::uint16_t>(((fb >> 16) & 0x8000U) | 0x7E00U);
  }
  return static_cast<std::uint16_t>(
      _cvtss_sh(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

/// a*b and a+b on Half bits, rounded to half like numeric::Half.
inline std::uint16_t hmul(std::uint16_t a, std::uint16_t b) noexcept {
  return f2h(_cvtsh_ss(a) * _cvtsh_ss(b));
}
inline std::uint16_t hadd(std::uint16_t a, std::uint16_t b) noexcept {
  return f2h(_cvtsh_ss(a) + _cvtsh_ss(b));
}

inline void conv_rows_half_bits(const ConvGeom& g, const std::uint16_t* in,
                         const std::uint16_t* w_oihw,
                         const std::uint16_t* bias, std::uint16_t* out,
                         std::size_t co_begin, std::size_t co_end) {
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const std::size_t kvol = g.in_c * g.k * g.k;
  for (std::size_t co = co_begin; co < co_end; ++co) {
    const std::uint16_t* const wco = w_oihw + co * kvol;
    const std::uint16_t b = bias[co];
    std::uint16_t* op = out + co * g.out_h * g.out_w;
    for (std::size_t oy = 0; oy < g.out_h; ++oy) {
      for (std::size_t ox = 0; ox < g.out_w; ++ox) {
        std::uint16_t acc = 0;
        const std::uint16_t* w = wco;
        for (std::size_t ci = 0; ci < g.in_c; ++ci) {
          const std::uint16_t* const ic = in + ci * g.in_h * g.in_w;
          for (std::size_t ky = 0; ky < g.k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) - pad;
            const bool row_ok =
                iy >= 0 && iy < static_cast<std::ptrdiff_t>(g.in_h);
            const std::uint16_t* const irow =
                row_ok ? ic + static_cast<std::size_t>(iy) * g.in_w : nullptr;
            for (std::size_t kx = 0; kx < g.k; ++kx, ++w) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * g.stride + kx) - pad;
              std::uint16_t act = 0;
              if (row_ok && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(g.in_w))
                act = irow[static_cast<std::size_t>(ix)];
              acc = hadd(acc, hmul(*w, act));
            }
          }
        }
        *op++ = hadd(acc, b);
      }
    }
  }
}

inline void fc_rows_half_bits(const FcGeom& g, const std::uint16_t* in,
                       const std::uint16_t* w, const std::uint16_t* bias,
                       std::uint16_t* out, std::size_t o_begin,
                       std::size_t o_end) {
  for (std::size_t o = o_begin; o < o_end; ++o) {
    std::uint16_t acc = 0;
    const std::uint16_t* const wr = w + o * g.in;
    for (std::size_t i = 0; i < g.in; ++i) acc = hadd(acc, hmul(wr[i], in[i]));
    out[o] = hadd(acc, bias[o]);
  }
}
