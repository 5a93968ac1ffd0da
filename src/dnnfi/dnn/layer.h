// Layer interface. Layers are templated on the datapath numeric type T so
// that MAC arithmetic (including fixed-point saturation and binary16
// rounding) happens exactly as the modeled accelerator would perform it.
//
// The primitive compute interface works on TensorViews so the executor can
// run whole networks out of a preallocated Workspace arena; the Tensor
// overloads below are convenience wrappers that resize the destination and
// dispatch to the view path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "dnnfi/dnn/fault_hooks.h"
#include "dnnfi/tensor/tensor.h"

namespace dnnfi::dnn {

using tensor::ConstTensorView;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

enum class LayerKind {
  kConv,
  kFullyConnected,
  kRelu,
  kMaxPool,
  kLrn,
  kSoftmax,
  kGlobalAvgPool,
};

constexpr const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:           return "conv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kRelu:           return "relu";
    case LayerKind::kMaxPool:        return "maxpool";
    case LayerKind::kLrn:            return "lrn";
    case LayerKind::kSoftmax:        return "softmax";
    case LayerKind::kGlobalAvgPool:  return "gavgpool";
  }
  return "?";
}

/// A half-open channel x row x column range of a CHW activation (n == 1):
/// the "dirty box" of cone-limited fault replay, i.e. the outputs a fault
/// can reach. Flat vectors (FC, softmax) are 1 x 1 x len, so a box over
/// them is a column range. Empty boxes are all-zero.
struct Box {
  std::size_t c0 = 0, c1 = 0;
  std::size_t y0 = 0, y1 = 0;
  std::size_t x0 = 0, x1 = 0;

  static Box whole(const Shape& s) noexcept { return {0, s.c, 0, s.h, 0, s.w}; }
  /// The one element at flat CHW index `flat`.
  static Box element(const Shape& s, std::size_t flat) noexcept {
    const std::size_t c = flat / (s.h * s.w), y = flat / s.w % s.h,
                      x = flat % s.w;
    return {c, c + 1, y, y + 1, x, x + 1};
  }

  bool empty() const noexcept { return c0 >= c1 || y0 >= y1 || x0 >= x1; }
  std::size_t size() const noexcept {
    return empty() ? 0 : (c1 - c0) * (y1 - y0) * (x1 - x0);
  }
  bool covers(const Shape& s) const noexcept {
    return c0 == 0 && c1 == s.c && y0 == 0 && y1 == s.h && x0 == 0 &&
           x1 == s.w;
  }
  /// Smallest box containing both.
  Box join(const Box& o) const noexcept {
    if (o.empty()) return *this;
    if (empty()) return o;
    return {std::min(c0, o.c0), std::max(c1, o.c1), std::min(y0, o.y0),
            std::max(y1, o.y1), std::min(x0, o.x0), std::max(x1, o.x1)};
  }
  friend constexpr bool operator==(const Box&, const Box&) = default;
};

/// Abstract layer. Concrete layers live in layers.h.
template <typename T>
class Layer {
 public:
  Layer(std::string name, int block) : name_(std::move(name)), block_(block) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual LayerKind kind() const noexcept = 0;

  /// Layer instance name, e.g. "conv1".
  const std::string& name() const noexcept { return name_; }

  /// Logical paper-layer index (1-based): the conv/FC block this layer
  /// belongs to. ReLU/pool/LRN attach to the block of the preceding conv/FC.
  int block() const noexcept { return block_; }

  virtual Shape out_shape(const Shape& in) const = 0;

  /// Computes `out` from `in`. `out` must already have shape
  /// out_shape(in.shape()); the caller (executor or Tensor wrapper) is
  /// responsible for sizing it. When `faults` is non-null the layer applies
  /// them bit-exactly and, if `rec` is non-null, documents what it did.
  /// Thread-safe: forward is const, allocation-free, and uses no hidden
  /// mutable state. `in` and `out` must not alias.
  virtual void forward(ConstTensorView<T> in, TensorView<T> out,
                       const LayerFaults* faults = nullptr,
                       InjectionRecord* rec = nullptr) const = 0;

  /// Re-applies `faults` assuming `out` already holds the fault-free output
  /// for `in` (patches only affected elements) and returns the box it wrote:
  /// every output outside it is left untouched. Default recomputes fully.
  virtual Box apply_faults(ConstTensorView<T> in, TensorView<T> out,
                           const LayerFaults& faults,
                           InjectionRecord* rec) const {
    forward(in, out, &faults, rec);
    return Box::whole(out.shape());
  }

  /// Tensor convenience wrappers: resize `out` then run the view path.
  /// Derived classes pull these in with `using Layer<T>::forward;`.
  void forward(const Tensor<T>& in, Tensor<T>& out,
               const LayerFaults* faults = nullptr,
               InjectionRecord* rec = nullptr) const {
    out.reshape(out_shape(in.shape()));
    forward(in.view(), out.view(), faults, rec);
  }
  Box apply_faults(const Tensor<T>& in, Tensor<T>& out,
                   const LayerFaults& faults, InjectionRecord* rec) const {
    DNNFI_EXPECTS(out.shape() == out_shape(in.shape()));
    return apply_faults(in.view(), out.view(), faults, rec);
  }

  /// Backpropagation (used by the float trainer): given the layer input,
  /// its output, and dLoss/dOut, computes dLoss/dIn and accumulates weight /
  /// bias gradients. Layers without parameters ignore gw/gb.
  virtual void backward(const Tensor<T>& in, const Tensor<T>& out,
                        const Tensor<T>& gout, Tensor<T>& gin,
                        std::span<T> gw, std::span<T> gb) const = 0;

  /// Number of multiply-accumulate operations to process `in` (0 for
  /// non-MAC layers). Drives the datapath fault sampler's layer weighting.
  virtual std::size_t macs(const Shape& /*in*/) const { return 0; }

  /// Trainable parameter access (empty spans for parameter-free layers).
  virtual std::span<T> weights() { return {}; }
  virtual std::span<const T> weights() const { return {}; }
  virtual std::span<T> biases() { return {}; }
  virtual std::span<const T> biases() const { return {}; }

  bool has_params() const { return !weights().empty(); }

 private:
  std::string name_;
  int block_;
};

}  // namespace dnnfi::dnn
