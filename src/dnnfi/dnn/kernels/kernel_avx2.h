// Entry points of the AVX2/F16C kernel TU (kernel_avx2.cpp, compiled with
// -mavx2 -mf16c -ffp-contract=off; see src/CMakeLists.txt). Only the
// registry references these, and only after numeric/cpu.h probes confirm the
// CPU has the instructions. All functions implement the full KernelSet
// contract, so they can be installed directly as KernelSet pointers. Conv
// and FC are the register-blocked loop of kernel_simd_blocked.h over 8-lane
// float / 4-lane double / 8-lane Half traits, with the remainder rows from
// the same header. relu and the post-MAC kernels serve both the avx2 and
// the avx512 sets.
#pragma once

#include <cstddef>

#include "dnnfi/dnn/kernels/kernels.h"

#if defined(DNNFI_ENABLE_AVX2_KERNELS)

namespace dnnfi::dnn::kernels::detail {

// Bit-identical sets: one output per lane, scalar accumulation order per
// lane, separate multiply and add (no FMA), FLOAT16 rounded to half after
// every operation with the canonical quiet-NaN rule applied at the store.
void avx2_conv_float(const ConvGeom&, const float*, const float*,
                     const float*, const float*, float*);
void avx2_fc_float(const FcGeom&, const float*, const float*, const float*,
                   const float*, float*);
void avx2_relu_float(const float*, float*, std::size_t);

void avx2_conv_double(const ConvGeom&, const double*, const double*,
                      const double*, const double*, double*);
void avx2_fc_double(const FcGeom&, const double*, const double*,
                    const double*, const double*, double*);
void avx2_relu_double(const double*, double*, std::size_t);

void avx2_conv_half(const ConvGeom&, const numeric::Half*,
                    const numeric::Half*, const numeric::Half*,
                    const numeric::Half*, numeric::Half*);
void avx2_fc_half(const FcGeom&, const numeric::Half*, const numeric::Half*,
                  const numeric::Half*, const numeric::Half*, numeric::Half*);
void avx2_relu_half(const numeric::Half*, numeric::Half*, std::size_t);

// Post-MAC kernels (bit-identical to the scalar reference; shared, like
// relu, by the avx2 and avx512 sets). LRN vectorizes the double-precision
// window bookkeeping across four spatial positions and keeps the per-element
// std::pow scalar; maxpool vectorizes across output columns with
// compare+blend (so NaNs lose exactly as in the scalar `if (v > best)`);
// avgpool runs four channel sums per pass; softmax vectorizes the finite-max
// and normalize passes around a scalar exp loop.
void avx2_lrn_float(const LrnGeom&, const float*, float*);
void avx2_lrn_double(const LrnGeom&, const double*, double*);
void avx2_lrn_half(const LrnGeom&, const numeric::Half*, numeric::Half*);

void avx2_maxpool_float(const PoolGeom&, const float*, float*);
void avx2_maxpool_double(const PoolGeom&, const double*, double*);
void avx2_maxpool_half(const PoolGeom&, const numeric::Half*, numeric::Half*);

void avx2_avgpool_float(const float*, float*, std::size_t, std::size_t);
void avx2_avgpool_double(const double*, double*, std::size_t, std::size_t);
void avx2_avgpool_half(const numeric::Half*, numeric::Half*, std::size_t,
                       std::size_t);

void avx2_softmax_float(const float*, float*, std::size_t);
void avx2_softmax_double(const double*, double*, std::size_t);
void avx2_softmax_half(const numeric::Half*, numeric::Half*, std::size_t);

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX2_KERNELS
