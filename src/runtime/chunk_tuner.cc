#include "runtime/chunk_tuner.h"

#include <algorithm>
#include <set>

#include "common/bit_util.h"
#include "task/kernels.h"

namespace adamant {

Result<size_t> SuggestChunkElems(const SimulatedDevice& device,
                                 const PrimitiveGraph& graph) {
  ADAMANT_ASSIGN_OR_RETURN(std::vector<Pipeline> pipelines,
                           graph.SplitPipelines());

  // Bytes of scan data per row of the widest pipeline (distinct columns).
  size_t widest_row_bytes = 0;
  for (const Pipeline& pipeline : pipelines) {
    std::set<const Column*> seen;
    size_t row_bytes = 0;
    for (int edge_id : pipeline.scan_edges) {
      const GraphEdge& edge = graph.edges()[static_cast<size_t>(edge_id)];
      if (seen.insert(edge.column.get()).second) {
        row_bytes += ElementSize(edge.elem_type);
      }
    }
    widest_row_bytes = std::max(widest_row_bytes, row_bytes);
  }
  if (widest_row_bytes == 0) {
    return Status::InvalidArgument("graph has no scan inputs");
  }

  // Budget: a quarter of device memory, split between dual staging buffers
  // (2x) and an equal allowance for intermediates (2x again). Graphs that
  // carry fused composites skip the interior materializations — the fused
  // group writes a single compacted output — so their transient allowance
  // halves and the chunk can grow into the reclaimed space.
  bool has_fused = false;
  for (const GraphNode& node : graph.nodes()) {
    if (node.kind == PrimitiveKind::kFused ||
        node.kind == PrimitiveKind::kFusedAgg) {
      has_fused = true;
      break;
    }
  }
  const size_t budget = device.perf_model().device_memory_bytes / 4;
  const size_t per_row = widest_row_bytes * (has_fused ? 3 : 4);
  size_t elems = budget / per_row;
  elems = bit_util::NextPowerOfTwo(std::max<size_t>(elems, 2)) / 2;  // floor
  size_t min_chunk = size_t{1} << 16;
  // Devices that own several threads want chunks holding several tiles per
  // thread, or the tiled kernels run under-occupied (and tiny chunks fall
  // below two tiles entirely, running as one range and wasting the cores).
  const int threads = device.LaunchThreads(0);
  if (threads > 1) {
    const size_t parallel_floor = bit_util::NextPowerOfTwo(
        kernels::ParallelTileElems() * static_cast<size_t>(threads) * 4);
    min_chunk = std::max(min_chunk, parallel_floor);
  }
  constexpr size_t kMaxChunk = size_t{1} << 26;
  return std::clamp(elems, min_chunk, kMaxChunk);
}

}  // namespace adamant
