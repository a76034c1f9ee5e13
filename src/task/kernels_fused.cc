#include "task/kernels_fused.h"

#include <string>

#include "common/logging.h"
#include "task/kernels_internal.h"

namespace adamant::kernels {
namespace {

using internal::AggCombine;
using internal::ApplyMap;
using internal::CheckCapacity;
using internal::CheckIntType;
using internal::Compare;
using internal::Frame;
using internal::LoadAs64;
using internal::StoreFrom64;

/// Decoded, validated fused program: steps plus resolved argument indices.
struct FusedProgram {
  std::vector<FusedStep> steps;
  size_t num_inputs = 0;
  bool init = false;
  bool agg_terminal = false;
  AggOp agg_op = AggOp::kSum;
  ElementType out_type = ElementType::kInt32;  // stream terminal
  size_t out_arg = 0;    // stream: out buffer; agg: accumulator
  size_t count_arg = 0;  // stream only
};

/// The fused scalar list is variable-length, so the standard Frame decode
/// needs the step count first: it sits at num_args - 2 (before has_count).
Result<Frame> DecodeFusedFrame(const KernelExecContext& ctx) {
  if (ctx.num_args() < 4) {
    return Status::InvalidArgument("fused kernel: too few arguments");
  }
  const int64_t num_steps = ctx.scalar(ctx.num_args() - 2);
  if (num_steps < 2 || num_steps > static_cast<int64_t>(kMaxFusedSteps)) {
    return Status::InvalidArgument("fused recipe has invalid step count " +
                                   std::to_string(num_steps));
  }
  return Frame::Decode(
      ctx, kFusedStepScalars * static_cast<size_t>(num_steps) + 4);
}

/// Checks step well-formedness (register references resolve to
/// value-producing steps, exactly one terminal, supported ops/types) and
/// buffer capacities, in deterministic step order.
Result<FusedProgram> DecodeFusedProgram(const KernelExecContext& ctx,
                                        const Frame& f) {
  FusedProgram p;
  const size_t num_args = ctx.num_args();
  const auto num_steps = static_cast<size_t>(ctx.scalar(num_args - 2));
  p.num_inputs = static_cast<size_t>(ctx.scalar(num_args - 3));
  p.init = ctx.scalar(num_args - 4) != 0;

  p.steps.resize(num_steps);
  for (size_t s = 0; s < num_steps; ++s) {
    const size_t base = f.scalar_base + kFusedStepScalars * s;
    FusedStep& st = p.steps[s];
    st.op = static_cast<FusedStep::Op>(ctx.scalar(base));
    st.a = ctx.scalar(base + 1);
    st.b = ctx.scalar(base + 2);
    st.c = ctx.scalar(base + 3);
    st.src0 = static_cast<int32_t>(ctx.scalar(base + 4));
    st.src1 = static_cast<int32_t>(ctx.scalar(base + 5));
  }

  auto is_value = [&](int32_t reg, size_t s) {
    return reg >= 0 && static_cast<size_t>(reg) < s &&
           (p.steps[reg].op == FusedStep::Op::kLoad ||
            p.steps[reg].op == FusedStep::Op::kMap);
  };
  for (size_t s = 0; s < num_steps; ++s) {
    const FusedStep& st = p.steps[s];
    const bool terminal = st.op == FusedStep::Op::kEmit ||
                          st.op == FusedStep::Op::kAgg;
    if (terminal != (s + 1 == num_steps)) {
      return Status::InvalidArgument(
          "fused recipe must end in one emit or agg step");
    }
    switch (st.op) {
      case FusedStep::Op::kLoad:
        if (st.a < 0 || static_cast<size_t>(st.a) >= p.num_inputs) {
          return Status::InvalidArgument(
              "fused load step references input buffer " +
              std::to_string(st.a));
        }
        ADAMANT_RETURN_NOT_OK(
            CheckIntType(static_cast<ElementType>(st.b)));
        break;
      case FusedStep::Op::kFilter:
        if (!is_value(st.src0, s)) {
          return Status::InvalidArgument("fused step " + std::to_string(s) +
                                         " reads a non-value register");
        }
        break;
      case FusedStep::Op::kMap: {
        const auto op = static_cast<MapOp>(st.a);
        if (op == MapOp::kNeqPrev) {
          return Status::NotSupported(
              "fused map step does not support NEQ_PREV");
        }
        if (!is_value(st.src0, s) ||
            (MapReadsSecondColumn(op) && !is_value(st.src1, s))) {
          return Status::InvalidArgument("fused step " + std::to_string(s) +
                                         " reads a non-value register");
        }
        ADAMANT_RETURN_NOT_OK(
            CheckIntType(static_cast<ElementType>(st.c)));
        break;
      }
      case FusedStep::Op::kEmit:
        if (!is_value(st.src0, s)) {
          return Status::InvalidArgument("fused step " + std::to_string(s) +
                                         " reads a non-value register");
        }
        ADAMANT_RETURN_NOT_OK(
            CheckIntType(static_cast<ElementType>(st.a)));
        p.out_type = static_cast<ElementType>(st.a);
        break;
      case FusedStep::Op::kAgg:
        p.agg_op = static_cast<AggOp>(st.a);
        p.agg_terminal = true;
        if (p.agg_op != AggOp::kCount && !is_value(st.src0, s)) {
          return Status::InvalidArgument("fused step " + std::to_string(s) +
                                         " reads a non-value register");
        }
        break;
    }
  }

  const size_t expect_data = p.num_inputs + (p.agg_terminal ? 1 : 2);
  if (f.num_data != expect_data) {
    return Status::InvalidArgument("fused expects " +
                                   std::to_string(expect_data) +
                                   " data buffers");
  }
  for (const FusedStep& st : p.steps) {
    if (st.op != FusedStep::Op::kLoad) continue;
    ADAMANT_RETURN_NOT_OK(CheckCapacity(
        ctx, f.data_base + static_cast<size_t>(st.a),
        f.n * ElementSize(static_cast<ElementType>(st.b)), "fused in"));
  }
  p.out_arg = f.data_base + p.num_inputs;
  if (p.agg_terminal) {
    ADAMANT_RETURN_NOT_OK(
        CheckCapacity(ctx, p.out_arg, sizeof(int64_t), "acc"));
  } else {
    p.count_arg = p.out_arg + 1;
    ADAMANT_RETURN_NOT_OK(
        CheckCapacity(ctx, p.count_arg, sizeof(int64_t), "count"));
  }
  return p;
}

/// Per-row evaluator. Returns the row's predicate; *value receives the
/// terminal's source register. Once the predicate is false downstream map
/// arithmetic is skipped — exactly the rows the unfused chain's materialize
/// would have dropped before the map kernel ran, so fused evaluation never
/// performs arithmetic the unfused chain did not.
class FusedEval {
 public:
  FusedEval(const KernelExecContext& ctx, const FusedProgram& p,
            const Frame& f)
      : steps_(p.steps) {
    inputs_.reserve(p.num_inputs);
    for (size_t i = 0; i < p.num_inputs; ++i) {
      inputs_.push_back(ctx.ptr(f.data_base + i));
    }
  }

  bool Row(size_t i, int64_t* value) const {
    // Step s writes regs[s] before any later step reads it (decode checks
    // that every read names an earlier value step). Per thread, so tiles
    // evaluate concurrently.
    thread_local int64_t regs[kMaxFusedSteps];
    bool pred = true;
    for (size_t s = 0; s < steps_.size(); ++s) {
      const FusedStep& st = steps_[s];
      switch (st.op) {
        case FusedStep::Op::kLoad:
          regs[s] = LoadAs64(inputs_[static_cast<size_t>(st.a)],
                             static_cast<ElementType>(st.b), i);
          break;
        case FusedStep::Op::kFilter:
          if (pred) {
            pred = Compare(static_cast<CmpOp>(st.a), regs[st.src0], st.b,
                           st.c);
          }
          regs[s] = 0;
          break;
        case FusedStep::Op::kMap: {
          if (!pred) {
            regs[s] = 0;
            break;
          }
          const int64_t r = ApplyMap(static_cast<MapOp>(st.a), regs[st.src0],
                                     st.b, [&] { return regs[st.src1]; });
          // The unfused chain stores each map result as out_type and the
          // consumer reloads it; replay that round-trip.
          regs[s] = static_cast<ElementType>(st.c) == ElementType::kInt32
                        ? static_cast<int64_t>(static_cast<int32_t>(r))
                        : r;
          break;
        }
        case FusedStep::Op::kEmit:
        case FusedStep::Op::kAgg:
          *value = pred && st.src0 >= 0 ? regs[st.src0] : 0;
          return pred;
      }
    }
    return false;  // unreachable: decode guarantees a terminal step
  }

 private:
  const std::vector<FusedStep>& steps_;
  std::vector<const void*> inputs_;
};

}  // namespace

Status FusedKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, DecodeFusedFrame(*ctx));
  ADAMANT_ASSIGN_OR_RETURN(FusedProgram p, DecodeFusedProgram(*ctx, f));
  const FusedEval eval(*ctx, p, f);

  if (p.agg_terminal) {
    return internal::Fold(
        ctx, f.n, "fused", p.agg_op, p.init, ctx->ptr_as<int64_t>(p.out_arg),
        [&](size_t i, int64_t a) {
          int64_t value = 0;
          if (!eval.Row(i, &value)) return a;
          return AggCombine(p.agg_op, a,
                            p.agg_op == AggOp::kCount ? 0 : value);
        });
  }

  void* out = ctx->ptr(p.out_arg);
  const size_t cap = ctx->arg_bytes(p.out_arg) / ElementSize(p.out_type);
  return internal::Compact(
      ctx, f.n, "fused", cap, "fused output",
      [&](size_t i, const auto& emit) {
        int64_t value = 0;
        if (eval.Row(i, &value)) emit(value);
      },
      [&](size_t k, int64_t value) { StoreFrom64(out, p.out_type, k, value); },
      ctx->ptr_as<int64_t>(p.count_arg));
}

KernelLaunch MakeFused(const std::vector<BufferId>& inputs,
                       BufferId out_or_acc, BufferId count,
                       const std::vector<FusedStep>& steps, bool init,
                       size_t n, BufferId count_in) {
  KernelLaunch launch;
  launch.kernel_name = "fused";
  launch.work_items = n;
  if (count_in != kInvalidBuffer) {
    launch.args.push_back(KernelArg::In(count_in));
  }
  for (BufferId in : inputs) launch.args.push_back(KernelArg::In(in));
  const bool agg =
      !steps.empty() && steps.back().op == FusedStep::Op::kAgg;
  if (agg) {
    launch.args.push_back(KernelArg::InOut(out_or_acc));
  } else {
    launch.args.push_back(KernelArg::Out(out_or_acc));
    launch.args.push_back(KernelArg::Out(count));
  }
  for (const FusedStep& st : steps) {
    launch.args.push_back(KernelArg::Scalar(static_cast<int64_t>(st.op)));
    launch.args.push_back(KernelArg::Scalar(st.a));
    launch.args.push_back(KernelArg::Scalar(st.b));
    launch.args.push_back(KernelArg::Scalar(st.c));
    launch.args.push_back(KernelArg::Scalar(st.src0));
    launch.args.push_back(KernelArg::Scalar(st.src1));
  }
  launch.args.push_back(KernelArg::Scalar(init ? 1 : 0));
  launch.args.push_back(
      KernelArg::Scalar(static_cast<int64_t>(inputs.size())));
  launch.args.push_back(
      KernelArg::Scalar(static_cast<int64_t>(steps.size())));
  launch.args.push_back(
      KernelArg::Scalar(count_in != kInvalidBuffer ? 1 : 0));
  return launch;
}

}  // namespace adamant::kernels
