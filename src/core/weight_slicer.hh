/**
 * @file
 * Weight slicing (paper Section 3.1.2): each weight tensor is split into
 * uniform chunks of size S; T(w) = ceil(bytes / S) chunks per weight.
 * Chunks are the granularity at which the OPG solver assigns transform
 * work to layers and at which the runtime streams.
 */

#ifndef FLASHMEM_CORE_WEIGHT_SLICER_HH
#define FLASHMEM_CORE_WEIGHT_SLICER_HH

#include <cstdint>

#include "common/types.hh"
#include "graph/graph.hh"

namespace flashmem::core {

/** Uniform chunking of weight tensors. */
class WeightSlicer
{
  public:
    explicit WeightSlicer(Bytes chunk_bytes = mib(1));

    Bytes chunkBytes() const { return chunk_bytes_; }

    /** T(w): number of chunks for a weight of @p weight_bytes. */
    std::int64_t chunkCount(Bytes weight_bytes) const;

    /** T(w) for a graph weight. */
    std::int64_t chunkCount(const graph::Weight &w) const;

    /** Bytes covered by @p chunks whole chunks of weight @p w (the last
     * chunk may be short). */
    Bytes bytesForChunks(const graph::Weight &w,
                         std::int64_t chunks) const;

  private:
    Bytes chunk_bytes_;
};

} // namespace flashmem::core

#endif // FLASHMEM_CORE_WEIGHT_SLICER_HH
