#include "dnnfi/fault/injector.h"

namespace dnnfi::fault {

dnn::AppliedFault lower(const FaultDescriptor& f,
                        const std::vector<std::size_t>& mac_layers,
                        const accel::AcceleratorModel& model) {
  DNNFI_EXPECTS(f.mac_ordinal < mac_layers.size());
  // A descriptor sampled on one geometry must lower through the same
  // geometry: the site coordinates only mean something there.
  DNNFI_EXPECTS(f.geom == model.config().kind);
  DNNFI_EXPECTS(!f.op.is_identity());
  accel::SiteCoords c;
  c.cls = f.cls;
  c.latch = f.latch;
  c.element = f.element;
  c.step = f.step;
  c.out_channel = f.out_channel;
  c.out_row = f.out_row;
  c.pe_row = f.pe_row;
  c.pe_col = f.pe_col;
  dnn::AppliedFault a;
  a.layer = mac_layers[f.mac_ordinal];
  model.lower_site(c, f.op, f.storage, a);
  return a;
}

}  // namespace dnnfi::fault
