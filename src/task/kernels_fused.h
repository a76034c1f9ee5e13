#ifndef ADAMANT_TASK_KERNELS_FUSED_H_
#define ADAMANT_TASK_KERNELS_FUSED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "device/kernel_launch.h"
#include "storage/types.h"
#include "task/primitive.h"

namespace adamant::kernels {

/// Single-pass interpreter over a fused recipe (FUSED / FUSED_AGG composite
/// primitives, see plan::FusionPass). One traversal of the scan inputs
/// replaces the whole map/filter/materialize[/agg] chain. The recipe runs a
/// fixed-size batch of rows at a time, each step one typed loop over the
/// batch's live rows (a selection vector): a load copies them widened to
/// int64, a filter narrows the selection, a map computes only live rows (so
/// no arithmetic the unfused chain did not do), and the terminal step
/// either compacts the live rows in row order into the output (FUSED) or
/// folds them into an int64 accumulator (FUSED_AGG). Ops and types resolve
/// once per launch. Outputs and error messages are bit-identical to running
/// the unfused chain.
///
/// Argument layout (see MakeFused): buffers are [count_in?] in0..inN-1,
/// then out+count (stream) or acc (agg); scalars are the encoded steps
/// (kFusedStepScalars each) followed by init, num_inputs, num_steps,
/// has_count — self-describing from the tail, so the kernel recovers the
/// scalar count before the standard Frame decode.
///
/// Tiles like the primitives it replaces: FUSED through the compaction
/// strategy, FUSED_AGG through the block fold (task/kernels_internal.h).
Status FusedKernel(KernelExecContext* ctx);

/// Upper bound on recipe length (keeps the scalar list bounded).
constexpr size_t kMaxFusedSteps = 64;

/// Launch builder. `inputs` are the scan input buffers (load step operand
/// `a` indexes into them). For an agg-terminated recipe pass the int64[1]
/// accumulator as `out_or_acc` and kInvalidBuffer as `count`; for a
/// stream-terminated recipe pass the output buffer and the int64[1] count
/// output. `init` resets the accumulator to the aggregate identity.
KernelLaunch MakeFused(const std::vector<BufferId>& inputs,
                       BufferId out_or_acc, BufferId count,
                       const std::vector<FusedStep>& steps, bool init,
                       size_t n, BufferId count_in = kInvalidBuffer);

}  // namespace adamant::kernels

#endif  // ADAMANT_TASK_KERNELS_FUSED_H_
