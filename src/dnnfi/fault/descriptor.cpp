#include "dnnfi/fault/descriptor.h"

#include <sstream>

namespace dnnfi::fault {

std::string FaultDescriptor::describe() const {
  std::ostringstream os;
  if (geom == accel::AcceleratorKind::kSystolic) {
    // e.g. "systolic pe(3,5) psum-reg set1 mask=0x00c0 block 2 elem 17 step 4"
    os << "systolic pe(" << pe_row << ',' << pe_col << ") "
       << site_class_name(cls);
    if (cls == SiteClass::kDatapathLatch)
      os << '/' << accel::datapath_latch_name(latch);
    os << ' ' << op.describe();
    os << " block " << block << " elem " << element;
    if (cls == SiteClass::kDatapathLatch || cls == SiteClass::kPsumReg)
      os << " step " << step;
    return os.str();
  }
  os << site_class_name(cls);
  if (cls == SiteClass::kDatapathLatch)
    os << '/' << accel::datapath_latch_name(latch);
  os << " block " << block << " elem " << element;
  if (cls == SiteClass::kDatapathLatch || cls == SiteClass::kPsumReg)
    os << " step " << step;
  if (cls == SiteClass::kImgReg)
    os << " scope (co=" << out_channel << ", row=" << out_row << ")";
  os << " bit " << bit;
  // Legacy single-bit toggles keep the seed format; richer ops render their
  // mask so quarantine reports identify the exact upset pattern.
  if (!op.is_flip_burst(bit, 1))
    os << ' ' << op.describe();
  return os.str();
}

}  // namespace dnnfi::fault
