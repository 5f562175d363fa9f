/**
 * @file
 * Cost of a preloading framework's texture-layout transform.
 *
 * Mobile GPUs organize texture memory as 2D tiles of texels with four
 * scalar channels (paper Section 2.1), so a linear unified-memory
 * tensor must be reorganized before texture kernels can read it.
 * Preloading frameworks do that in dedicated transform dispatches,
 * costed here. FlashMem folds the transform into the compute kernel
 * instead; the runtime charges that as in-kernel streaming
 * (KernelModel::inlineLoadPenalty).
 */

#ifndef FLASHMEM_GPUSIM_TEXTURE_HH
#define FLASHMEM_GPUSIM_TEXTURE_HH

#include "common/types.hh"
#include "gpusim/device.hh"

namespace flashmem::gpusim {

/** Cost of one unified-memory -> texture layout transformation. */
struct TransformCost
{
    SimTime time = 0;       ///< GPU/CPU time consumed
    Bytes scratchBytes = 0; ///< staging memory live during the transform
};

/**
 * Cost model for a *dedicated* transform dispatch as used by preloading
 * frameworks: per-pass staging copies (often with an fp32 intermediate)
 * plus dispatch overhead.
 *
 * @param effective_bw throughput of the framework's transform pipeline
 *        (CPU repack + upload), typically far below the DMA peak.
 * @param passes number of staging copies the framework performs.
 */
TransformCost dedicatedTransformCost(const DeviceProfile &dev,
                                     Bytes tensor_bytes,
                                     Bandwidth effective_bw, int passes);

} // namespace flashmem::gpusim

#endif // FLASHMEM_GPUSIM_TEXTURE_HH
