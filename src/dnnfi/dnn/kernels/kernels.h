// Runtime-dispatched compute kernels for the MAC layers (DESIGN.md §10).
//
// A KernelSet<T> bundles the conv / fully-connected / relu inner loops for
// one datapath type. The scalar reference set always exists and is the
// semantic ground truth: it performs exactly the MAC pipeline of
// Conv2d::compute_one (products and accumulations in T, (ci, ky, kx)
// accumulation order, padded taps multiplying a zero activation, trailing
// bias add). SIMD sets vectorize ACROSS output channels — one output per
// lane, each lane's accumulation chain identical to the scalar one — so
// every registered set is bit-identical to the reference and call sites
// with and without SIMD can be mixed freely without changing a single
// output bit.
//
// SIMD sets may also keep several outputs' chains in flight at once: the
// avx2 and avx512 MAC kernels are one register-blocked loop
// (kernel_simd_blocked.h) over a per-type trait. It holds 8 output pixels
// x one lane-block of output channels (8 float / 4 double / 8 Half lanes
// under avx2, 16 / 8 / 16 under avx512) in registers and loads each tap's
// weight vector once for all 8 (FC: 4 lane-blocks sharing each broadcast
// input). That only interleaves independent chains, so it changes no
// output bit.
//
// One documented hole in the bit-identity claim: when two NaNs with
// DIFFERENT bit patterns meet in a single addition, x86 keeps whichever
// operand the compiler put first, and neither IEEE 754 nor C++ pins that
// order down (GCC freely commutes — and auto-vectorizes — the reference's
// accumulation). Outputs whose chains only ever see one NaN bit pattern
// (the common case: a single fault-injected NaN propagating, or the fixed
// "indefinite" NaN from Inf*0 / Inf-Inf) are exact: x86 propagates a lone
// NaN operand verbatim. For FLOAT16 the hole is sign-only: every FLOAT16
// NaN result is canonicalized to sign | 0x7E00, so two NaNs can differ
// only in sign. Campaign aggregates never resolve the hole either
// way, since outcome classification and distance metrics treat all NaNs
// alike.
//
// Geometry independence, the invariant cone-limited fault replay uses
// (ExecutionPlan::exec_step_box): every kernel of every set computes each
// output from that output's receptive field alone, by a chain that does not
// depend on the call's geometry — how many rows, columns or pixels the call
// covers, where the output sits in a register block, or whether its
// neighbours are interior or border. So the outputs of a tile (a sub-box of
// the output, fed the gathered input window, padding written as explicit
// zeros) equal the same outputs of the whole-tensor call bit-for-bit. A
// kernel that reassociated sums across outputs, or skipped padded taps
// instead of multiplying the zero, would break cone replay; the brute-force
// box tests and the whole-tensor oracle in test_executor guard it.
//
// FLOAT16 arithmetic inside avx512. Where the build has -mavx512fp16 and
// CPUID reports AVX512-FP16, the avx512 set's FLOAT16 conv/fc compute in
// native binary16 (VMULPH / VADDPH); elsewhere they compute in float and
// round to half after every operation (F16C). Both equal the reference:
// binary32 has 24 >= 2*11+2 significand bits, so rounding a float result
// to half equals one binary16 rounding (Figueroa 1995), and
// test_half_native_exhaustive checks all 2^32 operand pairs. Both
// canonicalize NaNs once, at the final store, which is exact: a NaN is
// sticky in an add chain and carries its sign the same way in either
// form, so only its payload could differ, and canonicalization erases
// the payload. The set keeps the name "avx512" either way;
// kernel_profile().half_arith says which arithmetic runs. The avx2 set's
// FLOAT16 conv/fc are the same F16C arithmetic at 8 lanes, with the same
// final-store canonicalization.
//
// Selection happens once per process: the DNNFI_KERNELS environment variable
// ("scalar" | "avx2" | "avx512" | "auto"/unset) is combined
// with CPUID probes (numeric/cpu.h); "auto" prefers avx512 > avx2 > scalar,
// and requesting an unavailable set falls back to scalar. ExecutionPlan<T>
// captures the active set at plan-build time.
//
// Packed weights: SIMD sets with pack_lanes > 0 consume a lane-interleaved
// copy of each MAC layer's weights, produced by pack_rows into the
// workspace arena at Workspace::bind time (the plan-time layout transform).
// Public tensors stay NCHW/OIHW; the packed copy is invisible outside the
// kernel call. Only full blocks of `lanes` rows are packed — remainder rows
// are computed directly from the row-major weights by scalar rows that
// restate the reference once, in kernel_simd_blocked.h, and are compiled
// into each SIMD TU.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "dnnfi/numeric/fixed.h"
#include "dnnfi/numeric/half.h"

namespace dnnfi::dnn::kernels {

/// Resolved convolution geometry: square kernel, zero padding, CHW input
/// and output, OIHW weights.
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, out_h = 0, out_w = 0;
  std::size_t k = 0, stride = 0, pad = 0;

  /// Accumulation steps per output element (the kernel volume).
  constexpr std::size_t steps() const noexcept { return in_c * k * k; }
};

/// Resolved fully-connected geometry: out x in row-major weights.
struct FcGeom {
  std::size_t in = 0, out = 0;
};

/// Resolved local-response-normalization geometry: CHW input, odd channel
/// window of `size`, out[c] = in[c] / (k + alpha/size * sum_window in^2)^beta
/// with the window sum and pow at double internal precision.
struct LrnGeom {
  std::size_t c = 0, h = 0, w = 0;
  std::size_t size = 0;
  double alpha = 0.0, beta = 0.0, k = 0.0;
};

/// Resolved pooling geometry: CHW input and output, square window, no
/// padding (out_h = (in_h - k) / stride + 1, same for width).
struct PoolGeom {
  std::size_t c = 0;
  std::size_t in_h = 0, in_w = 0;
  std::size_t out_h = 0, out_w = 0;
  std::size_t k = 0, stride = 0;
};

/// Convolution kernel. `w` is the row-major OIHW weight array; `w_packed`
/// is the pack_rows copy (pass null when the set's pack_lanes == 0, or when
/// the geometry yields zero full blocks — it is only dereferenced inside
/// full blocks).
template <typename T>
using ConvFn = void (*)(const ConvGeom&, const T* in, const T* w,
                        const T* w_packed, const T* bias, T* out);

/// Fully-connected kernel; `w_packed` as for ConvFn.
template <typename T>
using FcFn = void (*)(const FcGeom&, const T* in, const T* w,
                      const T* w_packed, const T* bias, T* out);

/// Elementwise kernel (relu): out[i] = max(in[i], 0) in T semantics.
template <typename T>
using EltwiseFn = void (*)(const T* in, T* out, std::size_t n);

/// Local-response-normalization kernel (see LrnGeom).
template <typename T>
using LrnFn = void (*)(const LrnGeom&, const T* in, T* out);

/// Max-pooling kernel: per output, the window max under the scalar
/// reference's `if (v > best)` comparison semantics (NaNs never win).
template <typename T>
using PoolFn = void (*)(const PoolGeom&, const T* in, T* out);

/// Global average pool: out[c] = mean of the `plane`-element channel plane,
/// summed sequentially at double precision then re-quantized to T.
template <typename T>
using AvgPoolFn = void (*)(const T* in, T* out, std::size_t channels,
                           std::size_t plane);

/// Softmax over n elements: max-shifted, exp/sum at double precision,
/// non-finite inputs contribute exp(-inf) = 0 (see Softmax in layers.h).
template <typename T>
using SoftmaxFn = void (*)(const T* in, T* out, std::size_t n);

/// One registered kernel family for one datapath type.
template <typename T>
struct KernelSet {
  const char* name = "scalar";
  /// Lane-interleave width of the packed weight layout this set consumes
  /// (0: the set reads row-major weights directly; nothing to pack).
  std::size_t pack_lanes = 0;
  ConvFn<T> conv = nullptr;
  FcFn<T> fc = nullptr;
  EltwiseFn<T> relu = nullptr;
  LrnFn<T> lrn = nullptr;
  PoolFn<T> maxpool = nullptr;
  AvgPoolFn<T> avgpool = nullptr;
  SoftmaxFn<T> softmax = nullptr;
};

/// The scalar reference set: always available, always bit-identical.
template <typename T>
const KernelSet<T>& scalar_kernels() noexcept;

/// The process-wide active set for T, resolved once from DNNFI_KERNELS and
/// CPUID (or from the last set_active_mode override). Returned references
/// have static storage duration: an ExecutionPlan may hold one forever.
template <typename T>
const KernelSet<T>& active_kernels() noexcept;

/// Looks up a registered set by name regardless of DNNFI_KERNELS; null when
/// the name is unknown for T or this CPU lacks the required features.
template <typename T>
const KernelSet<T>* kernel_set(std::string_view name) noexcept;

/// Names of every set available for T on this CPU, scalar first.
template <typename T>
std::vector<const char*> registered_names();

/// Overrides the mode used by subsequent active_kernels calls (and thus
/// subsequently built ExecutionPlans) for every datapath type: one of
/// "scalar", "avx2", "avx512", or "auto" to restore the
/// DNNFI_KERNELS / CPUID default. Returns false (and changes nothing) for
/// unknown names. For tests and benches; call before building the plans it
/// should affect.
bool set_active_mode(std::string_view mode);

/// The resolved hardware/dispatch profile, for bench JSON attribution.
struct KernelProfile {
  std::string mode;            ///< requested: auto/scalar/avx2/avx512
  bool cpu_avx2 = false;       ///< CPUID probe results
  bool cpu_avx512 = false;     ///< the avx512 kernel bundle (F+BW+VL+DQ)
  bool cpu_avx512fp16 = false; ///< AVX512-FP16 on top of that bundle
  bool cpu_f16c = false;
  bool f16c_compiled = false;  ///< hardware Half conversions built in
  std::string active_float;    ///< resolved set name for FLOAT
  std::string active_float16;  ///< resolved set name for FLOAT16
  /// FLOAT16 MAC arithmetic of the active avx512 set: "native"
  /// (AVX512-FP16) or "f16c" (float compute); "n/a" under any other set.
  std::string half_arith = "n/a";
};
KernelProfile kernel_profile();

/// The avx512 FLOAT16 set with its MAC kernels pinned to F16C float-compute
/// arithmetic, i.e. what avx512 resolves to on CPUs without AVX512-FP16;
/// null where avx512 is unavailable. On an AVX512-FP16 CPU this is the only
/// way to reach those kernels (tests and benches compare them to scalar).
const KernelSet<numeric::Half>* avx512_f16c_half_kernels() noexcept;

/// sum[i] = a[i] + b[i] and prod[i] = a[i] * b[i] in native binary16
/// (VADDPH / VMULPH) with NaNs canonicalized to sign | 0x7E00, the avx512
/// native FLOAT16 kernels' arithmetic. Returns false and writes nothing when
/// the build lacks -mavx512fp16 or the CPU lacks AVX512-FP16.
bool native_half_add_mul(const numeric::Half* a, const numeric::Half* b,
                         numeric::Half* sum, numeric::Half* prod,
                         std::size_t n) noexcept;

/// Packed element count for `rows` x `cols` row-major weights interleaved
/// `lanes` wide: only full blocks of `lanes` rows pack.
constexpr std::size_t packed_elems(std::size_t rows, std::size_t cols,
                                   std::size_t lanes) noexcept {
  return lanes == 0 ? 0 : (rows / lanes) * cols * lanes;
}

/// Interleaves full lane-blocks of a rows x cols row-major weight array:
/// dst[(b*cols + c)*lanes + l] = w[(b*lanes + l)*cols + c]. Writes exactly
/// packed_elems(rows, cols, lanes) elements; remainder rows are not packed.
template <typename T>
void pack_rows(const T* w, std::size_t rows, std::size_t cols,
               std::size_t lanes, T* dst);

/// Dispatch helpers for layer-level call sites (no workspace, so no packed
/// copy): run the active set when it needs no packing, otherwise the scalar
/// reference. Under a bit-identical active set this is indistinguishable
/// from the Executor's packed path.
template <typename T>
void conv_forward(const ConvGeom& g, const T* in, const T* w, const T* bias,
                  T* out);
template <typename T>
void fc_forward(const FcGeom& g, const T* in, const T* w, const T* bias,
                T* out);
template <typename T>
void relu_forward(const T* in, T* out, std::size_t n);
template <typename T>
void lrn_forward(const LrnGeom& g, const T* in, T* out);
template <typename T>
void maxpool_forward(const PoolGeom& g, const T* in, T* out);
template <typename T>
void avgpool_forward(const T* in, T* out, std::size_t channels,
                     std::size_t plane);
template <typename T>
void softmax_forward(const T* in, T* out, std::size_t n);

#define DNNFI_KERNELS_EXTERN(T)                                             \
  extern template const KernelSet<T>& scalar_kernels<T>() noexcept;         \
  extern template const KernelSet<T>& active_kernels<T>() noexcept;         \
  extern template const KernelSet<T>* kernel_set<T>(std::string_view)       \
      noexcept;                                                             \
  extern template std::vector<const char*> registered_names<T>();           \
  extern template void pack_rows<T>(const T*, std::size_t, std::size_t,     \
                                    std::size_t, T*);                       \
  extern template void conv_forward<T>(const ConvGeom&, const T*, const T*, \
                                       const T*, T*);                       \
  extern template void fc_forward<T>(const FcGeom&, const T*, const T*,     \
                                     const T*, T*);                         \
  extern template void relu_forward<T>(const T*, T*, std::size_t);          \
  extern template void lrn_forward<T>(const LrnGeom&, const T*, T*);        \
  extern template void maxpool_forward<T>(const PoolGeom&, const T*, T*);   \
  extern template void avgpool_forward<T>(const T*, T*, std::size_t,        \
                                          std::size_t);                     \
  extern template void softmax_forward<T>(const T*, T*, std::size_t)

DNNFI_KERNELS_EXTERN(double);
DNNFI_KERNELS_EXTERN(float);
DNNFI_KERNELS_EXTERN(numeric::Half);
DNNFI_KERNELS_EXTERN(numeric::Fx32r26);
DNNFI_KERNELS_EXTERN(numeric::Fx32r10);
DNNFI_KERNELS_EXTERN(numeric::Fx16r10);
#undef DNNFI_KERNELS_EXTERN

}  // namespace dnnfi::dnn::kernels
