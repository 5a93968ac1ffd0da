// Entry points of the AVX-512 kernel TUs (kernel_avx512.cpp, compiled with
// -mavx512f -mavx512bw -mavx512vl -mavx512dq -mf16c -ffp-contract=off, and
// kernel_avx512fp16.cpp, the same plus -mavx512fp16; see src/CMakeLists.txt).
// Only the registry references these, and only after numeric/cpu.h confirms
// the CPU has the full avx512 kernel bundle (cpu_has_avx512_kernel_bundle),
// plus AVX512-FP16 for the avx512fp16_* ones. All functions implement the
// full KernelSet contract: 16-lane float / 8-lane double / 16-lane Half MAC
// kernels (F16C float-compute or native binary16) with the same
// lane-accumulation-order bit-identity contract as the AVX2 set, remainder
// rows computed by a TU-local scalar path. The avx512
// set's post-MAC ops (lrn / maxpool / avgpool / softmax) are shared with the
// AVX2 TU — they are already vector-width-bound by pow/exp and gathers, and
// every AVX-512 CPU runs AVX2 code at full speed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dnnfi/dnn/kernels/kernels.h"

#if defined(DNNFI_ENABLE_AVX512_KERNELS)

namespace dnnfi::dnn::kernels::detail {

void avx512_conv_float(const ConvGeom&, const float*, const float*,
                       const float*, const float*, float*);
void avx512_fc_float(const FcGeom&, const float*, const float*, const float*,
                     const float*, float*);
void avx512_relu_float(const float*, float*, std::size_t);

void avx512_conv_double(const ConvGeom&, const double*, const double*,
                        const double*, const double*, double*);
void avx512_fc_double(const FcGeom&, const double*, const double*,
                      const double*, const double*, double*);
void avx512_relu_double(const double*, double*, std::size_t);

void avx512_conv_half(const ConvGeom&, const numeric::Half*,
                      const numeric::Half*, const numeric::Half*,
                      const numeric::Half*, numeric::Half*);
void avx512_fc_half(const FcGeom&, const numeric::Half*,
                    const numeric::Half*, const numeric::Half*,
                    const numeric::Half*, numeric::Half*);
void avx512_relu_half(const numeric::Half*, numeric::Half*, std::size_t);

#if defined(DNNFI_ENABLE_AVX512FP16_KERNELS)
void avx512fp16_conv_half(const ConvGeom&, const numeric::Half*,
                          const numeric::Half*, const numeric::Half*,
                          const numeric::Half*, numeric::Half*);
void avx512fp16_fc_half(const FcGeom&, const numeric::Half*,
                        const numeric::Half*, const numeric::Half*,
                        const numeric::Half*, numeric::Half*);
/// sum[i] = a[i] + b[i] and prod[i] = a[i] * b[i] on binary16 bits with
/// VADDPH / VMULPH, NaNs canonicalized to sign | 0x7E00 (the kernels'
/// final-store rule); for the exhaustive equivalence tests.
void avx512fp16_add_mul(const std::uint16_t* a, const std::uint16_t* b,
                        std::uint16_t* sum, std::uint16_t* prod,
                        std::size_t n);
#endif  // DNNFI_ENABLE_AVX512FP16_KERNELS

}  // namespace dnnfi::dnn::kernels::detail

#endif  // DNNFI_ENABLE_AVX512_KERNELS
