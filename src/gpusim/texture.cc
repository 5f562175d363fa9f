#include "gpusim/texture.hh"

#include "common/logging.hh"

namespace flashmem::gpusim {

TransformCost
dedicatedTransformCost(const DeviceProfile &dev, Bytes tensor_bytes,
                       Bandwidth effective_bw, int passes)
{
    FM_ASSERT(passes >= 1, "transform needs at least one pass");
    TransformCost cost;
    cost.time = dev.transformDispatchOverhead * passes +
                effective_bw.transferTime(tensor_bytes);
    // Staging keeps an fp32-widened copy live alongside source and
    // destination while the transform runs.
    cost.scratchBytes = tensor_bytes * 2;
    return cost;
}

} // namespace flashmem::gpusim
