// Hardware fault-site taxonomy and the descriptor of one injected fault.
// A FaultDescriptor fully determines a trial given (network, dtype, input):
// replaying it reproduces the identical corrupted execution.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "dnnfi/accel/accelerator.h"
#include "dnnfi/accel/datapath.h"
#include "dnnfi/accel/eyeriss.h"
#include "dnnfi/fault/fault_op.h"
#include "dnnfi/numeric/dtype.h"

namespace dnnfi::fault {

// The site taxonomy lives with the accelerator geometries (each model
// declares which classes it implements); re-exported here so fault-module
// consumers keep spelling `fault::SiteClass` etc.
using accel::SiteClass;
using accel::kAllSiteClasses;
using accel::kBufferSiteClasses;
using accel::site_class_name;
using accel::buffer_of;

/// One sampled single-event upset.
struct FaultDescriptor {
  SiteClass cls = SiteClass::kDatapathLatch;
  accel::DatapathLatch latch = accel::DatapathLatch::kAccumulator;

  std::size_t mac_ordinal = 0;  ///< which conv/FC layer (execution order)
  std::size_t layer_index = 0;  ///< index into NetworkSpec::layers
  int block = 0;                ///< logical paper-layer (1-based)

  /// Meaning depends on cls:
  ///   datapath / psum-reg : flat output-element index
  ///   filter-sram         : flat weight index
  ///   global-buffer/img-reg: flat input-element index
  /// Exception: a systolic operand-weight latch strike holds the flat
  /// weight index of the stationary weight (see accel::SystolicArray).
  std::size_t element = 0;
  std::size_t step = 0;  ///< accumulation step (datapath / psum-reg)

  // Img REG reuse scope.
  std::size_t out_channel = 0;
  std::size_t out_row = 0;

  int bit = 0;  ///< lowest affected bit, 0 = LSB

  /// The fault operation applied to the struck word. Never the identity:
  /// lower() refuses a descriptor whose op changes no bit.
  FaultOp op;

  /// Geometry the site was sampled on. Drives describe(); the campaign
  /// lowers through the matching accel::AcceleratorModel.
  accel::AcceleratorKind geom = accel::AcceleratorKind::kEyeriss;
  std::size_t pe_row = 0;  ///< struck PE row (array geometries)
  std::size_t pe_col = 0;  ///< struck PE column (array geometries)

  /// Reduced-precision buffer storage (Proteus-style protocol, the paper's
  /// deferred future work): when set, the upset strikes the value as
  /// *stored* in this format; the datapath still computes in its own type.
  /// Only meaningful for buffer site classes.
  std::optional<numeric::DType> storage;

  /// Human-readable one-liner for logs and examples.
  std::string describe() const;
};

}  // namespace dnnfi::fault
