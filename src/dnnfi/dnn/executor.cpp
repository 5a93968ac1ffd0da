#include "dnnfi/dnn/executor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "dnnfi/dnn/layers.h"

namespace dnnfi::dnn {

namespace {

/// Calls `f(offset, length)` for each maximal contiguous run of box `b` in
/// a CHW tensor of shape `s`, in CHW order; stops (returning false) as soon
/// as `f` returns false.
template <typename F>
bool all_runs(const Shape& s, const Box& b, F&& f) {
  const std::size_t plane = s.h * s.w;
  if (b.x0 == 0 && b.x1 == s.w) {
    if (b.y0 == 0 && b.y1 == s.h) return f(b.c0 * plane, (b.c1 - b.c0) * plane);
    for (std::size_t c = b.c0; c < b.c1; ++c)
      if (!f(c * plane + b.y0 * s.w, (b.y1 - b.y0) * s.w)) return false;
    return true;
  }
  for (std::size_t c = b.c0; c < b.c1; ++c)
    for (std::size_t y = b.y0; y < b.y1; ++y)
      if (!f(c * plane + y * s.w + b.x0, b.x1 - b.x0)) return false;
  return true;
}

/// True when `a` and `b` hold byte-identical elements inside box `bx`.
template <typename T>
bool box_equal(ConstTensorView<T> a, ConstTensorView<T> b, const Box& bx) {
  const T* pa = a.data().data();
  const T* pb = b.data().data();
  return all_runs(a.shape(), bx, [&](std::size_t off, std::size_t n) {
    return std::memcmp(pa + off, pb + off, n * sizeof(T)) == 0;
  });
}

/// Copies the dense CHW tile `src` (box-shaped) into box `bx` of `out`.
template <typename T>
void scatter(const T* src, TensorView<T> out, const Box& bx) {
  T* dst = out.data().data();
  all_runs(out.shape(), bx, [&](std::size_t off, std::size_t n) {
    std::copy_n(src, n, dst + off);
    src += n;
    return true;
  });
}

/// Gathers channels [c0, c1) x rows [y0, y0 + th) x columns [x0, x0 + tw)
/// of `in` into the dense tile `dst`, writing an explicit zero wherever the
/// window leaves the input: a padded tap reads the same T{} the reference
/// kernels multiply.
template <typename T>
void gather(ConstTensorView<T> in, std::size_t c0, std::size_t c1,
            std::ptrdiff_t y0, std::size_t th, std::ptrdiff_t x0,
            std::size_t tw, T* dst) {
  const Shape& s = in.shape();
  const auto h = static_cast<std::ptrdiff_t>(s.h);
  const auto w = static_cast<std::ptrdiff_t>(s.w);
  const auto t = static_cast<std::ptrdiff_t>(tw);
  // Columns [lo, hi) of every tile row lie inside the input.
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-x0, 0, t);
  const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(w - x0, lo, t);
  const auto ulo = static_cast<std::size_t>(lo);
  const auto uhi = static_cast<std::size_t>(hi);
  for (std::size_t c = c0; c < c1; ++c) {
    for (std::size_t ty = 0; ty < th; ++ty, dst += tw) {
      const std::ptrdiff_t iy = y0 + static_cast<std::ptrdiff_t>(ty);
      if (iy < 0 || iy >= h) {
        std::fill_n(dst, tw, T{});
        continue;
      }
      const T* row = in.data().data() +
                     (c * s.h + static_cast<std::size_t>(iy)) * s.w;
      std::fill_n(dst, ulo, T{});
      if (uhi > ulo) std::copy_n(row + (x0 + lo), uhi - ulo, dst + ulo);
      std::fill_n(dst + uhi, tw - uhi, T{});
    }
  }
}

/// Input rows (or columns) that `n` consecutive outputs of a k-wide,
/// s-strided window read.
constexpr std::size_t tile_side(std::size_t n, std::size_t k, std::size_t s) {
  return (n - 1) * s + k;
}

/// Outputs o in [0, n) whose window [o*s - pad, o*s - pad + k) meets the
/// input range [lo, hi) (non-empty); returns an empty range when none do.
std::pair<std::size_t, std::size_t> window_range(std::size_t lo,
                                                 std::size_t hi, std::size_t k,
                                                 std::size_t s,
                                                 std::size_t pad,
                                                 std::size_t n) {
  const std::size_t first =
      lo + pad + 1 <= k ? 0 : (lo + pad + 1 - k + s - 1) / s;
  const std::size_t last = std::min(n, (hi - 1 + pad) / s + 1);
  return {first, std::max(first, last)};
}

}  // namespace

template <typename T>
ExecutionPlan<T>::ExecutionPlan(const Network<T>& net)
    : input_(net.spec().input) {
  DNNFI_EXPECTS(net.num_layers() > 0);
  steps_.reserve(net.num_layers());
  Shape shape = input_;
  input_elems_ = shape.size();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    PlanStep<T> st;
    st.layer = &net.layer(i);
    st.in_shape = shape;
    st.out_shape = st.layer->out_shape(shape);
    st.macs = st.layer->macs(shape);
    total_macs_ += st.macs;
    buffer_elems_ = std::max(buffer_elems_, st.out_shape.size());
    input_elems_ = std::max(input_elems_, st.in_shape.size());
    shape = st.out_shape;
    steps_.push_back(st);
  }
  // Kernel routing: capture the active set once (the plan-compile-time
  // selection) and pre-resolve each MAC layer's geometry, weight/bias
  // pointers, and slot in the packed weight region.
  kset_ = &kernels::active_kernels<T>();
  const std::size_t lanes = kset_->pack_lanes;
  for (auto& st : steps_) {
    switch (st.layer->kind()) {
      case LayerKind::kConv: {
        const auto* c = static_cast<const Conv2d<T>*>(st.layer);
        st.kernel = StepKernel::kConv;
        st.conv = c->geom(st.in_shape, st.out_shape);
        st.w = c->weights().data();
        st.bias = c->biases().data();
        st.packed_off = packed_elems_;
        st.packed_n = kernels::packed_elems(st.conv.out_c, st.conv.steps(),
                                            lanes);
        packed_elems_ += st.packed_n;
        break;
      }
      case LayerKind::kFullyConnected: {
        const auto* f = static_cast<const FullyConnected<T>*>(st.layer);
        st.kernel = StepKernel::kFc;
        st.fc = {f->in_features(), f->out_features()};
        st.w = f->weights().data();
        st.bias = f->biases().data();
        st.packed_off = packed_elems_;
        st.packed_n = kernels::packed_elems(st.fc.out, st.fc.in, lanes);
        packed_elems_ += st.packed_n;
        break;
      }
      case LayerKind::kRelu:
        st.kernel = StepKernel::kRelu;
        break;
      case LayerKind::kLrn: {
        const auto* l = static_cast<const Lrn<T>*>(st.layer);
        st.kernel = StepKernel::kLrn;
        st.lrn = {st.in_shape.c, st.in_shape.h, st.in_shape.w,
                  l->size(),     l->alpha(),    l->beta(),
                  l->bias_k()};
        break;
      }
      case LayerKind::kMaxPool: {
        const auto* m = static_cast<const MaxPool2d<T>*>(st.layer);
        st.kernel = StepKernel::kMaxPool;
        st.pool = {st.out_shape.c, st.in_shape.h,  st.in_shape.w,
                   st.out_shape.h, st.out_shape.w, m->kernel(),
                   m->stride()};
        break;
      }
      case LayerKind::kGlobalAvgPool:
        st.kernel = StepKernel::kAvgPool;
        break;
      case LayerKind::kSoftmax:
        st.kernel = StepKernel::kSoftmax;
        break;
      default:
        break;
    }
  }
  // Cone-replay scratch: the largest gathered input tile plus dense output
  // tile any step needs (the whole output's, an upper bound for every box).
  for (const auto& st : steps_) {
    const Shape& os = st.out_shape;
    std::size_t in_tile = 0;
    if (st.kernel == StepKernel::kConv)
      in_tile = st.conv.in_c * tile_side(os.h, st.conv.k, st.conv.stride) *
                tile_side(os.w, st.conv.k, st.conv.stride);
    else if (st.kernel == StepKernel::kMaxPool)
      in_tile = os.c * tile_side(os.h, st.pool.k, st.pool.stride) *
                tile_side(os.w, st.pool.k, st.pool.stride);
    else if (st.kernel == StepKernel::kLrn)
      in_tile = os.size();
    if (in_tile > 0) tile_elems_ = std::max(tile_elems_, in_tile + os.size());
  }
}

template <typename T>
void ExecutionPlan<T>::pack_into(T* dst) const {
  const std::size_t lanes = kset_->pack_lanes;
  for (const auto& st : steps_) {
    if (st.packed_n == 0) continue;
    if (st.kernel == StepKernel::kConv)
      kernels::pack_rows(st.w, st.conv.out_c, st.conv.steps(), lanes,
                         dst + st.packed_off);
    else
      kernels::pack_rows(st.w, st.fc.out, st.fc.in, lanes,
                         dst + st.packed_off);
  }
}

template <typename T>
void ExecutionPlan<T>::exec_step(std::size_t i, ConstTensorView<T> in,
                                 TensorView<T> out, const T* packed) const {
  const PlanStep<T>& st = steps_[i];
  // Kernels that consume packed weights need the workspace copy; without it
  // (packed == null) MAC steps take the scalar reference path, which is
  // bit-identical under every set.
  const bool have_layout = packed != nullptr || kset_->pack_lanes == 0;
  switch (st.kernel) {
    case StepKernel::kConv:
      if (have_layout) {
        kset_->conv(st.conv, in.data().data(), st.w,
                    packed == nullptr ? nullptr : packed + st.packed_off,
                    st.bias, out.data().data());
        return;
      }
      break;
    case StepKernel::kFc:
      if (have_layout) {
        kset_->fc(st.fc, in.data().data(), st.w,
                  packed == nullptr ? nullptr : packed + st.packed_off,
                  st.bias, out.data().data());
        return;
      }
      break;
    case StepKernel::kRelu:
      kset_->relu(in.data().data(), out.data().data(), in.size());
      return;
    case StepKernel::kLrn:
      kset_->lrn(st.lrn, in.data().data(), out.data().data());
      return;
    case StepKernel::kMaxPool:
      kset_->maxpool(st.pool, in.data().data(), out.data().data());
      return;
    case StepKernel::kAvgPool:
      kset_->avgpool(in.data().data(), out.data().data(), st.in_shape.c,
                     st.in_shape.h * st.in_shape.w);
      return;
    case StepKernel::kSoftmax:
      kset_->softmax(in.data().data(), out.data().data(), in.size());
      return;
    case StepKernel::kNone:
      break;
  }
  st.layer->forward(in, out);
}

template <typename T>
Box ExecutionPlan<T>::out_box(std::size_t i, const Box& b) const {
  const PlanStep<T>& st = steps_[i];
  // Equal inputs give equal outputs, whatever the step.
  if (b.empty()) return {};
  Box o;
  switch (st.kernel) {
    case StepKernel::kRelu:
      return b;
    case StepKernel::kLrn:
      // Each output reads its own (row, column) across a channel window.
      return {0, st.out_shape.c, b.y0, b.y1, b.x0, b.x1};
    case StepKernel::kConv: {
      const kernels::ConvGeom& g = st.conv;
      const auto ys = window_range(b.y0, b.y1, g.k, g.stride, g.pad, g.out_h);
      const auto xs = window_range(b.x0, b.x1, g.k, g.stride, g.pad, g.out_w);
      o = {0, g.out_c, ys.first, ys.second, xs.first, xs.second};
      break;
    }
    case StepKernel::kMaxPool: {
      const kernels::PoolGeom& g = st.pool;
      const auto ys = window_range(b.y0, b.y1, g.k, g.stride, 0, g.out_h);
      const auto xs = window_range(b.x0, b.x1, g.k, g.stride, 0, g.out_w);
      o = {b.c0, b.c1, ys.first, ys.second, xs.first, xs.second};
      break;
    }
    default:
      return Box::whole(st.out_shape);
  }
  return o.empty() ? Box{} : o;
}

template <typename T>
Box ExecutionPlan<T>::exec_step_box(std::size_t i, ConstTensorView<T> in,
                                    const Box& in_box, TensorView<T> out,
                                    ConstTensorView<T> golden_out,
                                    const T* packed, T* tile) const {
  const PlanStep<T>& st = steps_[i];
  const Box ob = out_box(i, in_box);
  if (ob.covers(st.out_shape)) {
    exec_step(i, in, out, packed);
    return ob;
  }
  out.copy_from(golden_out);
  if (ob.empty()) return ob;
  // The box's outputs are computed as a dense (channels x bh x bw) output
  // tile from a gathered input tile, by the same kernels on a tile
  // geometry, then scattered over the fault-free copy.
  const std::size_t bh = ob.y1 - ob.y0, bw = ob.x1 - ob.x0;
  switch (st.kernel) {
    case StepKernel::kRelu: {
      const T* src = in.data().data();
      T* dst = out.data().data();
      all_runs(st.out_shape, ob, [&](std::size_t off, std::size_t n) {
        kset_->relu(src + off, dst + off, n);
        return true;
      });
      break;
    }
    case StepKernel::kLrn: {
      kernels::LrnGeom g = st.lrn;
      g.h = bh;
      g.w = bw;
      const std::size_t n = ob.size();
      gather(in, 0, g.c, static_cast<std::ptrdiff_t>(ob.y0), bh,
             static_cast<std::ptrdiff_t>(ob.x0), bw, tile);
      kset_->lrn(g, tile, tile + n);
      scatter<T>(tile + n, out, ob);
      break;
    }
    case StepKernel::kMaxPool: {
      const kernels::PoolGeom& p = st.pool;
      const kernels::PoolGeom g{ob.c1 - ob.c0, tile_side(bh, p.k, p.stride),
                                tile_side(bw, p.k, p.stride), bh, bw, p.k,
                                p.stride};
      gather(in, ob.c0, ob.c1, static_cast<std::ptrdiff_t>(ob.y0 * p.stride),
             g.in_h, static_cast<std::ptrdiff_t>(ob.x0 * p.stride), g.in_w,
             tile);
      T* const otile = tile + g.c * g.in_h * g.in_w;
      kset_->maxpool(g, tile, otile);
      scatter<T>(otile, out, ob);
      break;
    }
    case StepKernel::kConv: {
      const kernels::ConvGeom& c = st.conv;
      // Padding becomes explicit zeros in the tile, so the tile geometry
      // has none: every tap multiplies the same value the reference does.
      const kernels::ConvGeom g{c.in_c, tile_side(bh, c.k, c.stride),
                                tile_side(bw, c.k, c.stride),
                                c.out_c, bh, bw, c.k, c.stride, 0};
      const auto pad = static_cast<std::ptrdiff_t>(c.pad);
      gather(in, 0, c.in_c,
             static_cast<std::ptrdiff_t>(ob.y0 * c.stride) - pad, g.in_h,
             static_cast<std::ptrdiff_t>(ob.x0 * c.stride) - pad, g.in_w,
             tile);
      T* const otile = tile + g.in_c * g.in_h * g.in_w;
      if (packed != nullptr || kset_->pack_lanes == 0)
        kset_->conv(g, tile, st.w,
                    packed == nullptr ? nullptr : packed + st.packed_off,
                    st.bias, otile);
      else  // exec_step's fallback when the packed copy is absent
        kernels::scalar_kernels<T>().conv(g, tile, st.w, nullptr, st.bias,
                                          otile);
      scatter<T>(otile, out, ob);
      break;
    }
    default:
      DNNFI_EXPECTS(false);  // out_box is whole for every other step
  }
  return ob;
}

template <typename T>
void ActivationCache<T>::build(const ExecutionPlan<T>& plan,
                               ConstTensorView<T> input) {
  DNNFI_EXPECTS(input.shape() == plan.input_shape());
  const auto& steps = plan.steps();
  if (plan_ != &plan) {
    plan_ = &plan;
    offsets_.resize(steps.size());
    std::size_t off = plan.input_shape().size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      offsets_[i] = off;
      off += steps[i].out_shape.size();
    }
    store_.resize(off);
  }
  // Layers write straight into their cache segment: no ping-pong, no
  // copies, and kernel calls identical to a plain Executor run (a local
  // packed copy is interleaved here so the SIMD MAC kernels run instead of
  // the scalar fallback; cache builds are per-input setup work, not the
  // faulty hot path).
  std::vector<T> packed;
  const T* pk = nullptr;
  if (plan.packed_elems() > 0) {
    packed.resize(plan.packed_elems());
    plan.pack_into(packed.data());
    pk = packed.data();
  }
  std::copy_n(input.data().data(), input.size(), store_.data());
  ConstTensorView<T> cur{plan.input_shape(), store_.data()};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    TensorView<T> out{steps[i].out_shape, store_.data() + offsets_[i]};
    plan.exec_step(i, cur, out, pk);
    cur = out;
  }
}

template <typename T>
ConstTensorView<T> Executor<T>::run(Workspace<T>& ws,
                                    const RunRequest<T>& req) const {
  ws.bind(*plan_);
  if (req.fault != nullptr) {
    DNNFI_EXPECTS(req.cache != nullptr);
    DNNFI_EXPECTS(req.cache->num_layers() == plan_->num_layers());
    return run_faulty(ws, req, *req.cache);
  }
  return run_range(ws, 0, plan_->num_layers(), req);
}

template <typename T>
ConstTensorView<T> Executor<T>::run_range(Workspace<T>& ws, std::size_t from,
                                          std::size_t to,
                                          const RunRequest<T>& req) const {
  ws.bind(*plan_);
  const auto& steps = plan_->steps();
  DNNFI_EXPECTS(from < to && to <= steps.size());
  DNNFI_EXPECTS(req.fault == nullptr);
  DNNFI_EXPECTS(req.input.shape() == steps[from].in_shape);
  ConstTensorView<T> cur = req.input;
  unsigned parity = 0;
  for (std::size_t i = from; i < to; ++i) {
    TensorView<T> out = ws.out_buffer(parity, steps[i].out_shape);
    plan_->exec_step(i, cur, out, ws.packed_data());
    if (req.observer != nullptr) (*req.observer)(i, out);
    cur = out;
    parity ^= 1U;
  }
  return cur;
}

template <typename T>
ConstTensorView<T> Executor<T>::run_faulty(Workspace<T>& ws,
                                           const RunRequest<T>& req,
                                           const ActivationCache<T>& g) const {
  const AppliedFault& f = *req.fault;
  const auto& steps = plan_->steps();
  DNNFI_EXPECTS(f.layer < steps.size());
  ReplayInfo info;
  info.fault_layer = f.layer;
  const T* packed = ws.packed_data();
  T* tile = ws.tile_data();

  // Cone-limited replay: `box` bounds the outputs of layer i that can
  // differ from the cache. Everything outside it equals the cache by
  // construction (each output is a deterministic function of its receptive
  // field), so only the box is computed and compared.
  TensorView<T> a = ws.out_buffer(0, steps[f.layer].out_shape);
  Box box;
  if (f.flip_layer_input) {
    // Global-buffer model: the corrupted ifmap word is read by every
    // consumer, so every output whose window covers it re-executes.
    TensorView<T> in = ws.patch_buffer(steps[f.layer].in_shape);
    in.copy_from(g.layer_input(f.layer));
    DNNFI_EXPECTS(f.input_index < in.size());
    const T before = in[f.input_index];
    const T after = detail::storage_apply(before, f.input_op, f.input_storage);
    in[f.input_index] = after;
    if (req.record != nullptr) {
      req.record->corrupted_before = detail::to_d(before);
      req.record->corrupted_after = detail::to_d(after);
      req.record->zero_to_one =
          detail::storage_apply_dir(before, f.input_op, f.input_storage);
      req.record->applied = true;
    }
    box = plan_->exec_step_box(f.layer, ConstTensorView<T>(in),
                               Box::element(in.shape(), f.input_index), a,
                               g.act(f.layer), packed, tile);
  } else {
    // Patch the golden output of the target layer with the fault's effect.
    a.copy_from(g.act(f.layer));
    box = steps[f.layer].layer->apply_faults(g.layer_input(f.layer), a,
                                             f.faults, req.record);
  }
  if (req.observer != nullptr) (*req.observer)(f.layer, a);
  info.layers_run = 1;
  info.elems_run = box.size();

  ConstTensorView<T> cur = a;
  std::size_t i = f.layer;
  // A replayed layer whose output matches the fault-free activation
  // bit-for-bit has erased the fault: every remaining layer is a
  // deterministic function of identical state, so the cached final output
  // IS the run's output and the suffix can be skipped entirely.
  info.masked = req.early_exit && box_equal<T>(cur, g.act(i), box);
  unsigned parity = 1;
  while (!info.masked && ++i < steps.size()) {
    TensorView<T> out = ws.out_buffer(parity, steps[i].out_shape);
    box = plan_->exec_step_box(i, cur, box, out, g.act(i), packed, tile);
    if (req.observer != nullptr) (*req.observer)(i, out);
    cur = out;
    parity ^= 1U;
    ++info.layers_run;
    info.elems_run += box.size();
    info.masked = req.early_exit && box_equal<T>(cur, g.act(i), box);
  }
  if (info.masked) {
    info.masked_at = i;
    cur = g.output();
  }
  if (req.replay != nullptr) *req.replay = info;
  return cur;
}

template class ExecutionPlan<double>;
template class ExecutionPlan<float>;
template class ExecutionPlan<numeric::Half>;
template class ExecutionPlan<numeric::Fx32r26>;
template class ExecutionPlan<numeric::Fx32r10>;
template class ExecutionPlan<numeric::Fx16r10>;

template class ActivationCache<double>;
template class ActivationCache<float>;
template class ActivationCache<numeric::Half>;
template class ActivationCache<numeric::Fx32r26>;
template class ActivationCache<numeric::Fx32r10>;
template class ActivationCache<numeric::Fx16r10>;

template class Executor<double>;
template class Executor<float>;
template class Executor<numeric::Half>;
template class Executor<numeric::Fx32r26>;
template class Executor<numeric::Fx32r10>;
template class Executor<numeric::Fx16r10>;

}  // namespace dnnfi::dnn
