#include "core/weight_slicer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flashmem::core {

WeightSlicer::WeightSlicer(Bytes chunk_bytes) : chunk_bytes_(chunk_bytes)
{
    FM_ASSERT(chunk_bytes > 0, "chunk size must be positive");
}

std::int64_t
WeightSlicer::chunkCount(Bytes weight_bytes) const
{
    return static_cast<std::int64_t>(
        (weight_bytes + chunk_bytes_ - 1) / chunk_bytes_);
}

std::int64_t
WeightSlicer::chunkCount(const graph::Weight &w) const
{
    return chunkCount(w.bytes());
}

Bytes
WeightSlicer::bytesForChunks(const graph::Weight &w,
                             std::int64_t chunks) const
{
    std::int64_t total = chunkCount(w);
    FM_ASSERT(chunks >= 0 && chunks <= total, "chunk count ", chunks,
              " out of range for weight '", w.name, "'");
    if (chunks == total)
        return w.bytes();
    return static_cast<Bytes>(chunks) * chunk_bytes_;
}

} // namespace flashmem::core
