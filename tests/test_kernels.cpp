// Kernel registry property tests: every registered SIMD kernel set is
// checked against the scalar reference across all six datapath types, odd
// shapes (output channels not divisible by the lane width, including the
// zero-full-blocks case), non-finite inputs (NaN / ±Inf / -0 propagation,
// canonical-NaN rule for FLOAT16), and 100-run buffer reuse — asserting
// tensor::bitwise_equal for every set. The post-MAC ops (lrn / maxpool /
// avgpool / softmax) are bitwise-checked too, with restructure-lock tests
// pinning the scalar reference to the formulas the layers used to inline.
// Plus the packed-layout formula itself, executor-level integration
// checks that set_active_mode("scalar") and each SIMD mode produce
// byte-identical network outputs, the avx512 F16C FLOAT16 kernels called
// directly (an AVX512-FP16 CPU registers the native ones), and a sampled
// native-binary16-vs-reference arithmetic sweep (the full 2^32 one is
// test_half_native_exhaustive).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dnnfi/dnn/executor.h"
#include "dnnfi/dnn/kernels/kernels.h"
#include "dnnfi/dnn/weights.h"
#include "dnnfi/dnn/zoo.h"
#include "dnnfi/numeric/traits.h"
#include "dnnfi/tensor/tensor.h"
#include "half_native_sweep.h"

namespace dnnfi::dnn::kernels {
namespace {

using numeric::numeric_traits;
using tensor::Shape;
using tensor::Tensor;

/// Non-finite seasoning for the floating datapath types. kNaN and kInf are
/// deliberately separate variants: when two NaNs with DIFFERENT bit patterns
/// meet in one addition, x86 returns whichever the compiler put first, and
/// GCC orders (and even auto-vectorizes) the scalar reference's accumulation
/// however it likes — so that one case is outside the bit-identity contract
/// (see kernels.h). Within a variant every NaN that can arise shares a
/// single bit pattern (the planted canonical NaN, or the FFC00000-style
/// "indefinite" from Inf*0 / Inf-Inf), which x86 propagates verbatim
/// regardless of operand order, keeping the comparison exact. kNaNPayload
/// plants a quiet NaN with a non-canonical payload (lowest mantissa bit
/// set), as a flipped bit can make: float and double carry it verbatim,
/// while every FLOAT16 result must still read sign | 0x7E00, which the SIMD
/// Half kernels only enforce at their final store.
enum class Season { kFinite, kNaN, kInf, kNaNPayload };

/// Deterministic awkward values in roughly [-3, 3]; floating types also get
/// the requested non-finite values planted at fixed positions.
template <typename T>
std::vector<T> awkward(std::size_t n, std::uint64_t salt, Season season) {
  using Tr = numeric_traits<T>;
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Tr::from_double(
        0.0625 * static_cast<double>((i * 2654435761u + salt) % 97) - 3.0);
  if constexpr (Tr::is_floating) {
    if (n >= 8 && season == Season::kNaN) {
      v[n / 5] = Tr::from_double(std::numeric_limits<double>::quiet_NaN());
      v[n / 2] = Tr::from_double(std::numeric_limits<double>::quiet_NaN());
      v[2 * n / 3] = Tr::from_double(-0.0);
    } else if (n >= 8 && season == Season::kInf) {
      v[n / 5] = Tr::from_double(std::numeric_limits<double>::infinity());
      v[n / 2] = Tr::from_double(-std::numeric_limits<double>::infinity());
      v[2 * n / 3] = Tr::from_double(-0.0);
    } else if (n >= 8 && season == Season::kNaNPayload) {
      using Bits = typename Tr::bits_type;
      const Bits canonical = Tr::to_bits(
          Tr::from_double(std::numeric_limits<double>::quiet_NaN()));
      const T nan = Tr::from_bits(static_cast<Bits>(canonical | Bits{1}));
      v[n / 5] = nan;
      v[n / 2] = nan;
    }
  }
  return v;
}

template <typename T>
Tensor<T> run_conv(const KernelSet<T>& ks, const ConvGeom& g,
                   const std::vector<T>& in, const std::vector<T>& w,
                   const std::vector<T>& bias) {
  Tensor<T> out(Shape{1, g.out_c, g.out_h, g.out_w});
  std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks.pack_lanes));
  if (!packed.empty())
    pack_rows(w.data(), g.out_c, g.steps(), ks.pack_lanes, packed.data());
  ks.conv(g, in.data(), w.data(), packed.empty() ? nullptr : packed.data(),
          bias.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_fc(const KernelSet<T>& ks, const FcGeom& g,
                 const std::vector<T>& in, const std::vector<T>& w,
                 const std::vector<T>& bias) {
  Tensor<T> out(Shape{1, g.out, 1, 1});
  std::vector<T> packed(packed_elems(g.out, g.in, ks.pack_lanes));
  if (!packed.empty())
    pack_rows(w.data(), g.out, g.in, ks.pack_lanes, packed.data());
  ks.fc(g, in.data(), w.data(), packed.empty() ? nullptr : packed.data(),
        bias.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_lrn(const KernelSet<T>& ks, const LrnGeom& g,
                  const std::vector<T>& in) {
  Tensor<T> out(Shape{1, g.c, g.h, g.w});
  ks.lrn(g, in.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_maxpool(const KernelSet<T>& ks, const PoolGeom& g,
                      const std::vector<T>& in) {
  Tensor<T> out(Shape{1, g.c, g.out_h, g.out_w});
  ks.maxpool(g, in.data(), out.data().data());
  return out;
}

template <typename T>
Tensor<T> run_avgpool(const KernelSet<T>& ks, std::size_t channels,
                      std::size_t plane, const std::vector<T>& in) {
  Tensor<T> out(Shape{1, channels, 1, 1});
  ks.avgpool(in.data(), out.data().data(), channels, plane);
  return out;
}

template <typename T>
Tensor<T> run_softmax(const KernelSet<T>& ks, std::size_t n,
                      const std::vector<T>& in) {
  Tensor<T> out(Shape{1, 1, 1, n});
  ks.softmax(in.data(), out.data().data(), n);
  return out;
}

// Odd geometries on purpose: out_c = 13 leaves a 5-row tail at 8 lanes and
// a 1-row tail at 4; out_c = 7 yields ZERO full 8-lane blocks (the packed
// pointer must never be dereferenced); 16 and 32 are all-blocks. The second
// half drives the AVX-512 pixel-blocked loop (8 output pixels per register
// block, a single-pixel tail, interior blocks addressed without the padding
// table): planes that are not a multiple of 8, smaller than 8, or 1x1;
// stride 2 with padding on both edges; in_c = 1; out_c with a remainder
// past full 16- and 8-lane blocks; and a 17x17 kernel, too large for the
// tap table, which takes the scalar rows.
const ConvGeom kConvGeoms[] = {
    {3, 9, 7, 13, 5, 4, 3, 2, 1},   // strided, padded, tail rows
    {5, 6, 6, 7, 6, 6, 1, 1, 0},    // 1x1 kernel, zero full blocks at w=8
    {8, 8, 8, 16, 8, 8, 3, 1, 1},   // full blocks only (at 8 and 4 lanes)
    {4, 5, 5, 9, 2, 2, 3, 2, 0},    // stride 2, no padding
    {3, 11, 13, 37, 6, 7, 3, 2, 1},  // 42-pixel plane, stride 2, both pads
    {1, 9, 9, 33, 9, 9, 5, 1, 2},   // in_c = 1, 81 pixels, pad 2
    {2, 10, 10, 16, 6, 6, 5, 1, 0},  // unpadded: interior blocks + tail
    {6, 3, 3, 32, 1, 1, 3, 1, 0},   // 1x1 output plane
    {4, 1, 1, 17, 1, 1, 3, 1, 1},   // 1x1 input, only the centre tap real
    {5, 2, 3, 16, 2, 3, 3, 1, 1},   // 6-pixel plane: tail pixels only
    {1, 17, 17, 16, 1, 1, 17, 1, 0},  // kernel too large for the tap table
};
/// A geometry with full 16-lane blocks, a remainder block and a pixel tail,
/// so the 100-run reuse test also goes through the blocked loop.
const ConvGeom kBlockedConvGeom = kConvGeoms[4];
// FC: out % 16 != 0 past full blocks (100 = 6x16 + 4; 130 = 8x16 + 2) and
// more lane-blocks than the AVX-512 loop keeps in flight (4), plus an exact
// 5-block case whose last block runs alone.
const FcGeom kFcGeoms[] = {{37, 19}, {64, 32}, {10, 3},
                           {23, 100}, {300, 130}, {9, 80}};

// Post-MAC geometries, odd on purpose. LRN: a window (size 5) wider than the
// whole channel range; 1x1 spatial (the blocked AVX2 path needs >= 4
// positions, so this forces its scalar fallback); odd channel count with a
// position tail. MaxPool: a window covering the entire input (single 1x1
// output); strided odd-channel case; non-square input.
const LrnGeom kLrnGeoms[] = {
    {3, 5, 7, 5, 1e-4, 0.75, 2.0},
    {16, 1, 1, 5, 2e-5, 0.75, 1.0},
    {13, 6, 5, 3, 1e-3, 0.5, 1.0},
};
const PoolGeom kPoolGeoms[] = {
    {3, 5, 5, 1, 1, 5, 1},
    {5, 9, 9, 4, 4, 3, 2},
    {8, 6, 8, 3, 4, 2, 2},
};
const std::size_t kAvgPools[][2] = {{3, 25}, {8, 1}, {13, 30}};
// 1030 exceeds the 1024-element exp stack buffer, forcing the recompute
// fallback in both the scalar reference and the SIMD sets.
const std::size_t kSoftmaxNs[] = {10, 100, 1030};

template <typename T>
class KernelProperty : public ::testing::Test {};

using DatapathTypes =
    ::testing::Types<double, float, numeric::Half, numeric::Fx32r26,
                     numeric::Fx32r10, numeric::Fx16r10>;
TYPED_TEST_SUITE(KernelProperty, DatapathTypes);

TYPED_TEST(KernelProperty, ScalarReferenceAlwaysRegistered) {
  using T = TypeParam;
  const auto names = registered_names<T>();
  ASSERT_FALSE(names.empty());
  EXPECT_STREQ(names.front(), "scalar");
  const KernelSet<T>* s = kernel_set<T>("scalar");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->pack_lanes, 0u);
  EXPECT_EQ(kernel_set<T>("no-such-set"), nullptr);
}

/// Conv and FC of `ks` against the scalar reference, bitwise, on every
/// geometry and non-finite season.
template <typename T>
void expect_mac_bit_identical(const KernelSet<T>& ks, const char* name) {
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf,
                              Season::kNaNPayload}) {
    for (const ConvGeom& g : kConvGeoms) {
      const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 11, season);
      const auto w = awkward<T>(g.out_c * g.steps(), 23, season);
      const auto bias = awkward<T>(g.out_c, 5, Season::kFinite);
      EXPECT_TRUE(tensor::bitwise_equal(run_conv(ks, g, in, w, bias),
                                        run_conv(ref, g, in, w, bias)))
          << name << " conv in_c=" << g.in_c << " out_c=" << g.out_c
          << " out=" << g.out_h << "x" << g.out_w << " k=" << g.k
          << " season=" << static_cast<int>(season);
    }
    for (const FcGeom& g : kFcGeoms) {
      const auto in = awkward<T>(g.in, 31, season);
      const auto w = awkward<T>(g.out * g.in, 41, season);
      const auto bias = awkward<T>(g.out, 7, Season::kFinite);
      EXPECT_TRUE(tensor::bitwise_equal(run_fc(ks, g, in, w, bias),
                                        run_fc(ref, g, in, w, bias)))
          << name << " fc in=" << g.in << " out=" << g.out
          << " season=" << static_cast<int>(season);
    }
  }
}

TYPED_TEST(KernelProperty, SimdSetsBitIdenticalToScalarOnOddShapes) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    expect_mac_bit_identical(*ks, name);
    {
      // relu never adds, so NaN (of any sign), ±Inf, and -0 can mix freely:
      // propagation is per-element and must match bit for bit.
      const std::size_t n = 33;
      auto in = awkward<T>(n, 3, Season::kNaN);
      if constexpr (numeric_traits<T>::is_floating) {
        in[1] = numeric_traits<T>::from_double(
            std::numeric_limits<double>::infinity());
        in[4] = numeric_traits<T>::from_double(
            -std::numeric_limits<double>::infinity());
      }
      Tensor<T> a(Shape{1, 1, 1, n}), b(Shape{1, 1, 1, n});
      ks->relu(in.data(), a.data().data(), n);
      ref.relu(in.data(), b.data().data(), n);
      EXPECT_TRUE(tensor::bitwise_equal(a, b)) << name << " relu";
    }
  }
}

// The avx512 set runs native AVX512-FP16 FLOAT16 arithmetic where the CPU
// has it, so the registered set alone would leave the F16C kernels (what
// every other AVX-512 CPU runs) untested on such a host.
TEST(KernelAvx512Half, F16cKernelsBitIdenticalToScalar) {
  const KernelSet<numeric::Half>* ks = avx512_f16c_half_kernels();
  if (ks == nullptr)
    GTEST_SKIP() << "avx512 kernels not available on this build/CPU";
  EXPECT_STREQ(ks->name, "avx512");
  EXPECT_EQ(ks->pack_lanes, 16u);
  expect_mac_bit_identical(*ks, "avx512(f16c)");
}

TEST(KernelAvx512Half, ProfileNamesTheHalfArithmetic) {
  const KernelProfile p = kernel_profile();
  if (p.active_float16 != "avx512") {
    EXPECT_EQ(p.half_arith, "n/a");
  } else {
    EXPECT_EQ(p.half_arith,
              test_support::native_half_unavailable().empty() ? "native"
                                                              : "f16c");
  }
  if (p.cpu_avx512fp16) {
    EXPECT_TRUE(p.cpu_avx512);
  }
}

// Native binary16 add/mul (plus the final-store NaN canonicalization)
// equals binary32 compute rounded to half for every a against a 4096-value
// b sample holding every special: the sampled tier-1 form of
// test_half_native_exhaustive. When both operands are NaN the result must
// be the canonical NaN with one operand's sign (the documented hole).
TEST(KernelAvx512Half, NativeArithmeticMatchesReferenceOnSampledPairs) {
  const std::string why = test_support::native_half_unavailable();
  if (!why.empty()) GTEST_SKIP() << why;
  std::vector<std::uint16_t> bs = {
      0x0000, 0x8000, 0x7C00, 0xFC00,                  // +-0, +-Inf
      0x0001, 0x0002, 0x01FF, 0x0200, 0x03FF,          // subnormals
      0x8001, 0x81FF, 0x83FF, 0x0400, 0x8400,         // ... and min normals
      0x7BFF, 0xFBFF, 0x3C00, 0xBC00, 0x3BFF, 0x3C01,  // max, +-1, 1 -+ ulp
      0x7C01, 0x7D55, 0x7DFF, 0xFC01, 0xFDFF,          // sNaN, both signs
      0x7E00, 0x7E01, 0x7FFF, 0xFE00, 0xFFFF};         // qNaN, both signs
  for (std::uint32_t j = 0; bs.size() < 4096; ++j)
    bs.push_back(static_cast<std::uint16_t>(j * 16U + (j * 2654435761U >> 28)));
  test_support::HalfSweep add, mul;
  test_support::sweep_native_half(bs, add, mul);
  for (const auto* s : {&add, &mul}) {
    EXPECT_EQ(s->pairs, 65536u * 4096u);
    EXPECT_EQ(s->mismatches, 0u) << s->first_failure;
    EXPECT_EQ(s->both_nan_bad, 0u) << s->first_failure;
    EXPECT_GT(s->both_nan, 0u);
  }
}

TYPED_TEST(KernelProperty, PostMacOpsBitIdenticalToScalarOnOddShapes) {
  using T = TypeParam;
  const KernelSet<T>& ref = scalar_kernels<T>();
  for (const char* name : registered_names<T>()) {
    const KernelSet<T>* ks = kernel_set<T>(name);
    ASSERT_NE(ks, nullptr) << name;
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      for (const LrnGeom& g : kLrnGeoms) {
        const auto in = awkward<T>(g.c * g.h * g.w, 51, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_lrn(*ks, g, in),
                                          run_lrn(ref, g, in)))
            << name << " lrn c=" << g.c << " size=" << g.size
            << " season=" << static_cast<int>(season);
      }
      for (const PoolGeom& g : kPoolGeoms) {
        const auto in = awkward<T>(g.c * g.in_h * g.in_w, 57, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_maxpool(*ks, g, in),
                                          run_maxpool(ref, g, in)))
            << name << " maxpool c=" << g.c << " k=" << g.k
            << " season=" << static_cast<int>(season);
      }
      for (const auto& cp : kAvgPools) {
        const auto in = awkward<T>(cp[0] * cp[1], 61, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_avgpool(*ks, cp[0], cp[1], in),
                                          run_avgpool(ref, cp[0], cp[1], in)))
            << name << " avgpool c=" << cp[0] << " plane=" << cp[1]
            << " season=" << static_cast<int>(season);
      }
      for (const std::size_t n : kSoftmaxNs) {
        const auto in = awkward<T>(n, 67, season);
        EXPECT_TRUE(tensor::bitwise_equal(run_softmax(*ks, n, in),
                                          run_softmax(ref, n, in)))
            << name << " softmax n=" << n
            << " season=" << static_cast<int>(season);
      }
    }
  }
}

TYPED_TEST(KernelProperty, HundredRunReuseIsStable) {
  using T = TypeParam;
  for (const ConvGeom& g : {kConvGeoms[0], kBlockedConvGeom}) {
    const auto in = awkward<T>(g.in_c * g.in_h * g.in_w, 13, Season::kNaN);
    const auto w = awkward<T>(g.out_c * g.steps(), 17, Season::kNaN);
    const auto bias = awkward<T>(g.out_c, 19, Season::kFinite);
    for (const char* name : registered_names<T>()) {
      const KernelSet<T>* ks = kernel_set<T>(name);
      ASSERT_NE(ks, nullptr) << name;
      // Pack once, then reuse the packed copy and the output buffer for 100
      // runs without clearing either — the Workspace lifecycle.
      std::vector<T> packed(packed_elems(g.out_c, g.steps(), ks->pack_lanes));
      if (!packed.empty())
        pack_rows(w.data(), g.out_c, g.steps(), ks->pack_lanes,
                  packed.data());
      Tensor<T> out(Shape{1, g.out_c, g.out_h, g.out_w});
      Tensor<T> first;
      for (int run = 0; run < 100; ++run) {
        ks->conv(g, in.data(), w.data(),
                 packed.empty() ? nullptr : packed.data(), bias.data(),
                 out.data().data());
        if (run == 0)
          first = out;
        else
          ASSERT_TRUE(tensor::bitwise_equal(out, first))
              << name << " out_c=" << g.out_c << " run " << run;
      }
      const Tensor<T> want = run_conv(scalar_kernels<T>(), g, in, w, bias);
      EXPECT_TRUE(tensor::bitwise_equal(first, want))
          << name << " out_c=" << g.out_c;
    }
  }
}

/// Locks the restructured scalar LRN (column-buffered squares, pow(1,b)==1
/// and previous-base memo shortcuts) to the formula the Lrn layer used to
/// inline: a fresh pow per output over a window summed clo->chi. If the
/// restructure ever stops being bit-identical, fault-injection ground truth
/// silently shifts — this test is the tripwire.
template <typename T>
void lrn_restructure_locked() {
  using Tr = numeric_traits<T>;
  for (const LrnGeom& g : kLrnGeoms) {
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      const auto in = awkward<T>(g.c * g.h * g.w, 71, season);
      const Tensor<T> got = run_lrn(scalar_kernels<T>(), g, in);
      const auto half = static_cast<std::ptrdiff_t>(g.size / 2);
      const std::size_t plane = g.h * g.w;
      for (std::size_t c = 0; c < g.c; ++c)
        for (std::size_t p = 0; p < plane; ++p) {
          const std::ptrdiff_t clo =
              std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(c) - half);
          const std::ptrdiff_t chi =
              std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(g.c) - 1,
                                       static_cast<std::ptrdiff_t>(c) + half);
          double ss = 0;
          for (std::ptrdiff_t cc = clo; cc <= chi; ++cc) {
            const double v =
                Tr::to_double(in[static_cast<std::size_t>(cc) * plane + p]);
            ss += v * v;
          }
          const double denom = std::pow(
              g.k + g.alpha / static_cast<double>(g.size) * ss, g.beta);
          const T want =
              Tr::from_double(Tr::to_double(in[c * plane + p]) / denom);
          EXPECT_EQ(Tr::to_bits(got[c * plane + p]),
                    Tr::to_bits(want))
              << "c=" << c << " p=" << p
              << " season=" << static_cast<int>(season);
        }
    }
  }
}

/// Same tripwire for softmax: the buffered-exp restructure must match the
/// recompute-every-pass form the Softmax layer used to inline.
template <typename T>
void softmax_restructure_locked() {
  using Tr = numeric_traits<T>;
  for (const std::size_t n : kSoftmaxNs) {
    for (const Season season : {Season::kFinite, Season::kNaN, Season::kInf}) {
      const auto in = awkward<T>(n, 73, season);
      const Tensor<T> got = run_softmax(scalar_kernels<T>(), n, in);
      double mx = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double v = Tr::to_double(in[i]);
        if (std::isfinite(v)) mx = std::max(mx, v);
      }
      if (!std::isfinite(mx)) mx = 0;
      const auto shifted_exp = [&](T raw) {
        double v = Tr::to_double(raw);
        if (std::isnan(v)) v = -std::numeric_limits<double>::infinity();
        return std::exp(std::min(v - mx, 700.0));
      };
      double sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += shifted_exp(in[i]);
      for (std::size_t i = 0; i < n; ++i) {
        const T want =
            Tr::from_double(sum > 0 ? shifted_exp(in[i]) / sum : 0.0);
        EXPECT_EQ(Tr::to_bits(got[i]), Tr::to_bits(want))
            << "i=" << i << " n=" << n
            << " season=" << static_cast<int>(season);
      }
    }
  }
}

TEST(KernelRestructure, ScalarLrnMatchesLegacyFormulaBitwise) {
  lrn_restructure_locked<float>();
  lrn_restructure_locked<double>();
  lrn_restructure_locked<numeric::Half>();
}

TEST(KernelRestructure, ScalarSoftmaxMatchesLegacyFormulaBitwise) {
  softmax_restructure_locked<float>();
  softmax_restructure_locked<double>();
  softmax_restructure_locked<numeric::Half>();
}

TEST(KernelPacking, PackRowsInterleavesFullBlocksOnly) {
  const std::size_t rows = 10, cols = 3, lanes = 4;
  ASSERT_EQ(packed_elems(rows, cols, lanes), (rows / lanes) * cols * lanes);
  ASSERT_EQ(packed_elems(rows, cols, 0), 0u);
  std::vector<float> w(rows * cols);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  std::vector<float> dst(packed_elems(rows, cols, lanes), -1.0f);
  pack_rows(w.data(), rows, cols, lanes, dst.data());
  for (std::size_t b = 0; b < rows / lanes; ++b)
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t l = 0; l < lanes; ++l)
        EXPECT_EQ(dst[(b * cols + c) * lanes + l],
                  w[(b * lanes + l) * cols + c]);
}

/// set_active_mode is process-global; restore the default on scope exit so
/// test order cannot leak a scalar override into other suites.
struct ModeGuard {
  ~ModeGuard() { set_active_mode("auto"); }
};

template <typename T>
void executor_modes_match(const char* simd_mode) {
  const auto spec = zoo::network_spec(zoo::NetworkId::kConvNet);
  WeightsBlob blob;
  {
    Network<float> seed_net(spec);
    init_weights(seed_net, 99);
    blob = extract_weights(seed_net);
  }
  Tensor<float> img_f(spec.input);
  for (std::size_t i = 0; i < img_f.size(); ++i)
    img_f[i] = 0.01f * static_cast<float>(i % 113) - 0.5f;
  const Tensor<T> img = tensor::convert<T>(img_f);

  ModeGuard guard;
  auto run_with = [&](const char* mode) {
    EXPECT_TRUE(set_active_mode(mode));
    Network<T> net(spec);  // plan captures the active set at build time
    load_weights(net, blob);
    const Executor<T> exec(net.plan());
    Workspace<T> ws(net.plan());
    RunRequest<T> req;
    req.input = img;
    Tensor<T> out(net.plan().output_shape());
    out.view().copy_from(exec.run(ws, req));
    return out;
  };
  const Tensor<T> scalar_out = run_with("scalar");
  const Tensor<T> simd_out = run_with(simd_mode);
  EXPECT_TRUE(tensor::bitwise_equal(simd_out, scalar_out)) << simd_mode;
}

TEST(KernelDispatch, ExecutorScalarAndAvx2ModesBitIdentical) {
  if (kernel_set<float>("avx2") == nullptr)
    GTEST_SKIP() << "avx2 kernels not available on this build/CPU";
  executor_modes_match<float>("avx2");
  executor_modes_match<numeric::Half>("avx2");
  executor_modes_match<double>("avx2");
}

TEST(KernelDispatch, ExecutorScalarAndAvx512ModesBitIdentical) {
  if (kernel_set<float>("avx512") == nullptr)
    GTEST_SKIP() << "avx512 kernels not available on this build/CPU";
  executor_modes_match<float>("avx512");
  executor_modes_match<numeric::Half>("avx512");
  executor_modes_match<double>("avx512");
}

TEST(KernelDispatch, UnknownModeRejected) {
  EXPECT_FALSE(set_active_mode("sse9"));
  EXPECT_TRUE(set_active_mode("auto"));
}

}  // namespace
}  // namespace dnnfi::dnn::kernels
