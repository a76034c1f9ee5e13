#ifndef ADAMANT_TASK_KERNELS_H_
#define ADAMANT_TASK_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "device/kernel_launch.h"
#include "storage/types.h"
#include "task/primitive.h"

namespace adamant::kernels {

/// Host implementations of every Table-I primitive, plus launch builders
/// that encode the argument layout. Each primitive has one implementation:
/// it decodes and validates its launch once, checks every buffer it reads
/// and writes against the rows it touches, resolves its element types and
/// ops once, then runs its typed row body through a tiling strategy
/// (task/kernels_internal.h). Under a thread budget of one
/// thread (KernelExecContext::parallel_threads()), or on a launch of fewer
/// than two ParallelTileElems()-row tiles, the body runs once over all rows;
/// otherwise kernels that tile (KernelTiles) split the rows across the
/// shared task::WorkerPool, with bit-identical output and error messages.
///
/// Layout convention: buffer arguments first, scalar arguments after. Every
/// kernel's last scalar is `has_count_in`; when set, the FIRST buffer is a
/// device-resident int64[1] count and the kernel processes
/// min(work_items, *count) tuples. This keeps variable-length intermediate
/// results (filter/materialize/join cardinalities) entirely on the device:
/// downstream kernels are launched with worst-case work_items — exactly how
/// real GPU pipelines avoid a host round-trip per chunk — and the cost model
/// charges the launched (worst-case) size.
///
/// Counts produced by a kernel (selected rows, join pairs) are written into
/// a dedicated NUMERIC int64[1] output buffer that can feed the next
/// kernel's count_in or be retrieved at the end of a pipeline.

/// Implementation of kernel `name` ("map", "hash_build", ...). Dies on
/// unknown names (programming error; use HasKernel to probe).
HostKernelFn GetKernelFn(const std::string& name);
bool HasKernel(const std::string& name);

/// All kernel names, in no particular order.
const std::vector<std::string>& AllKernelNames();

/// True for kernels that run launches of two or more tiles as tiles when
/// their thread budget allows (every Table-I primitive but HASH_AGG and
/// SORT_AGG, plus FUSED); false for the rest and for unknown names.
bool KernelTiles(const std::string& name);

/// Tile size (tuples) of tiled runs. A power of two and a multiple of 64 so
/// FILTER_BITMAP tiles are bitmap-word aligned.
size_t ParallelTileElems();

/// Pseudo-OpenCL source text for `name`, fed to prepare_kernel on drivers
/// with runtime compilation (models the kernel strings ADAMANT compiles at
/// initialization).
std::string KernelSourceText(const std::string& name);

// ---------------------------------------------------------------------------
// Launch builders (argument-layout authority). Pass kInvalidBuffer as
// `count_in` when the tuple count is exactly `n`.
// ---------------------------------------------------------------------------

/// MAP. Data buffers: in0[, in1], out. out = in0 <op> (in1 | imm).
KernelLaunch MakeMap(BufferId in0, BufferId in1, BufferId out, MapOp op,
                     ElementType in_type, ElementType out_type, int64_t imm,
                     size_t n, BufferId count_in = kInvalidBuffer);

/// FILTER_BITMAP. Data buffers: in, bitmap(out). When `combine_and`, the
/// predicate is ANDed into the existing bitmap (conjunction chains).
KernelLaunch MakeFilterBitmap(BufferId in, BufferId bitmap, CmpOp op,
                              ElementType type, int64_t lo, int64_t hi,
                              bool combine_and, size_t n,
                              BufferId count_in = kInvalidBuffer);

/// FILTER_POSITION. Data buffers: in, positions(out int32),
/// count(out int64[1]).
KernelLaunch MakeFilterPosition(BufferId in, BufferId positions,
                                BufferId count, CmpOp op, ElementType type,
                                int64_t lo, int64_t hi, size_t n,
                                BufferId count_in = kInvalidBuffer);

/// MATERIALIZE. Data buffers: in, bitmap, out, count(out int64[1]).
KernelLaunch MakeMaterialize(BufferId in, BufferId bitmap, BufferId out,
                             BufferId count, ElementType type, size_t n,
                             BufferId count_in = kInvalidBuffer);

/// MATERIALIZE_POSITION. Data buffers: in, positions, out.
/// out[i] = in[positions[i]].
KernelLaunch MakeMaterializePosition(BufferId in, BufferId positions,
                                     BufferId out, ElementType type,
                                     size_t n_positions,
                                     BufferId count_in = kInvalidBuffer);

/// PREFIX_SUM over int32. Data buffers: in, out.
KernelLaunch MakePrefixSum(BufferId in, BufferId out, bool exclusive,
                           size_t n, BufferId count_in = kInvalidBuffer);

/// AGG_BLOCK. Data buffers: in, acc(inout int64[1]). Accumulates across
/// chunk launches; `init` resets the accumulator to the op identity.
KernelLaunch MakeAggBlock(BufferId in, BufferId acc, AggOp op,
                          ElementType type, bool init, size_t n,
                          BufferId count_in = kInvalidBuffer);

/// HASH_BUILD. Data buffers: keys[, payload], table(inout). Payload
/// defaults to pos_base + i when absent. Contention scales with slot count.
KernelLaunch MakeHashBuild(BufferId keys, BufferId payload, BufferId table,
                           size_t num_slots, int64_t pos_base, size_t n,
                           BufferId count_in = kInvalidBuffer);

/// HASH_PROBE. Data buffers: keys, table, left_pos(out int32),
/// right_payload(out int32), count(out int64[1]). Emits
/// (probe position + pos_base, build payload) pairs.
KernelLaunch MakeHashProbe(BufferId keys, BufferId table, BufferId left_pos,
                           BufferId right_payload, BufferId count,
                           size_t num_slots, ProbeMode mode, int64_t pos_base,
                           size_t n, BufferId count_in = kInvalidBuffer);

/// One HASH_AGG accumulator: its op and the buffer and element type of its
/// values. COUNT takes no values buffer (Table I).
struct HashAggAccumulator {
  AggOp op = AggOp::kSum;
  BufferId values = kInvalidBuffer;
  ElementType value_type = ElementType::kInt64;
};

/// HASH_AGG over N = accs.size() accumulators (1 to HashTableLayout::
/// kMaxAccumulators): one probe per row, then the row folds into each of
/// the group's N accumulators. Data buffers: keys, the values of every
/// accumulator but COUNT in accumulator order, table(inout, N-accumulator
/// slots). `nominal_groups` drives the contention model (Fig. 9c); set
/// `groups_scale_with_data` when it is data-dependent. The launch charges
/// N single-aggregate bodies (KernelLaunch::bodies).
KernelLaunch MakeHashAgg(BufferId keys,
                         const std::vector<HashAggAccumulator>& accs,
                         BufferId table, size_t num_slots, size_t n,
                         double nominal_groups, bool groups_scale_with_data,
                         BufferId count_in = kInvalidBuffer);

/// Infrastructure: fills `n_words` int32 words of `out` with `pattern`
/// (cudaMemset analog; hash-table sentinel initialization).
KernelLaunch MakeFill(BufferId out, int32_t pattern, size_t n_words);

/// SORT_AGG. Data buffers: values, pxsum(group index per row),
/// agg(inout int64[num_groups]). SUM/COUNT only.
KernelLaunch MakeSortAgg(BufferId values, BufferId pxsum, BufferId agg,
                         AggOp op, ElementType value_type, size_t num_groups,
                         bool init, size_t n,
                         BufferId count_in = kInvalidBuffer);

}  // namespace adamant::kernels

#endif  // ADAMANT_TASK_KERNELS_H_
