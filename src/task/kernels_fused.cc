#include "task/kernels_fused.h"

#include <array>
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
using internal::WithAggOp;
using internal::WithCmpOp;
using internal::WithIntType;
using internal::WithMapOp;

/// Rows the interpreter runs through the recipe at a time.
constexpr size_t kBatchRows = 1024;

/// One batch: rows [begin, begin + rows) of the launch. The first `live`
/// entries of `sel` are the batch offsets, ascending, of the rows every
/// filter so far kept; live == rows means all rows are live and `sel` is
/// not read. Value register r holds row j at reg(r)[j], defined at live
/// offsets only.
struct Batch {
  size_t begin = 0;
  size_t rows = 0;
  size_t live = 0;
  std::array<uint32_t, kBatchRows> sel{};
  std::vector<int64_t> regs;

  int64_t* reg(int32_t r) {
    return regs.data() + static_cast<size_t>(r) * kBatchRows;
  }
  const int64_t* reg(int32_t r) const {
    return regs.data() + static_cast<size_t>(r) * kBatchRows;
  }
};

/// Calls fn(j) for every live offset j of the batch, in row order.
template <typename Fn>
inline void ForLive(const Batch& b, const Fn& fn) {
  if (b.live == b.rows) {
    for (size_t j = 0; j < b.rows; ++j) fn(j);
  } else {
    for (size_t k = 0; k < b.live; ++k) fn(size_t{b.sel[k]});
  }
}

/// A non-terminal recipe step whose op and types were resolved at decode:
/// `run` is one typed loop over a batch's live rows.
struct CompiledStep {
  void (*run)(const CompiledStep&, Batch*) = nullptr;
  const void* input = nullptr;  // load: the input buffer
  int64_t imm = 0;              // filter: lo; map: the immediate
  int64_t hi = 0;               // filter: hi
  int32_t dst = -1;             // load/map: the register written
  int32_t src0 = -1;
  int32_t src1 = -1;
};
using StepFn = void (*)(const CompiledStep&, Batch*);

/// A widening copy of the live rows.
template <typename T>
void LoadStep(const CompiledStep& st, Batch* b) {
  const T* in = static_cast<const T*>(st.input) + b->begin;
  int64_t* dst = b->reg(st.dst);
  ForLive(*b, [&](size_t j) { dst[j] = in[j]; });
}

/// Narrows the selection to the live rows the comparison keeps.
template <CmpOp Op>
void FilterStep(const CompiledStep& st, Batch* b) {
  const int64_t* v = b->reg(st.src0);
  size_t k = 0;
  ForLive(*b, [&](size_t j) {
    b->sel[k] = static_cast<uint32_t>(j);
    k += Compare<Op>(v[j], st.imm, st.hi) ? 1 : 0;
  });
  b->live = k;
}

/// Map arithmetic on live rows only: a row an earlier filter dropped never
/// reaches it, as in the unfused chain, whose materialize drops the row
/// before the map kernel runs. The unfused chain stores each result as Out
/// and the consumer reloads it; the cast replays that round-trip.
template <MapOp Op, typename Out>
void MapStep(const CompiledStep& st, Batch* b) {
  const int64_t* a = b->reg(st.src0);
  const int64_t* second = st.src1 >= 0 ? b->reg(st.src1) : nullptr;
  int64_t* dst = b->reg(st.dst);
  ForLive(*b, [&](size_t j) {
    dst[j] = static_cast<Out>(
        ApplyMap<Op>(a[j], st.imm, [&] { return second[j]; }));
  });
}

/// Decoded, validated fused program: the non-terminal steps compiled to
/// typed loops, the terminal and the resolved argument indices.
struct FusedProgram {
  std::vector<CompiledStep> steps;
  size_t num_regs = 0;
  size_t num_inputs = 0;
  bool init = false;
  bool agg_terminal = false;
  AggOp agg_op = AggOp::kSum;
  ElementType out_type = ElementType::kInt32;  // stream terminal
  int32_t value_reg = -1;  // register the terminal reads, if any
  size_t out_arg = 0;      // stream: out buffer; agg: accumulator
  size_t count_arg = 0;    // stream only
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

/// Compiles the validated non-terminal step `st` into `out`. `reg` maps
/// recipe step indices to registers.
Status CompileStep(const KernelExecContext& ctx, const Frame& f,
                   const FusedStep& st, const std::vector<int32_t>& reg,
                   CompiledStep* out) {
  // Unvalidated references (a load's, a scalar map's src1) resolve to -1.
  const auto reg_of = [&](int32_t step) {
    return step >= 0 && static_cast<size_t>(step) < reg.size()
               ? reg[static_cast<size_t>(step)]
               : -1;
  };
  out->src0 = reg_of(st.src0);
  out->src1 = reg_of(st.src1);
  switch (st.op) {
    case FusedStep::Op::kLoad:
      out->input = ctx.ptr(f.data_base + static_cast<size_t>(st.a));
      out->run = WithIntType(static_cast<ElementType>(st.b),
                             [](auto tag) -> StepFn {
                               return &LoadStep<decltype(tag)>;
                             });
      return Status::OK();
    case FusedStep::Op::kFilter: {
      auto op = static_cast<CmpOp>(st.a);
      out->imm = st.b;
      out->hi = st.c;
      internal::ResolveEmptyRange(&op, &out->imm, out->hi);
      return WithCmpOp(op, [&](auto op_c) {
        out->run = &FilterStep<decltype(op_c)::value>;
        return Status::OK();
      });
    }
    case FusedStep::Op::kMap:
      out->imm = st.b;
      return WithMapOp(static_cast<MapOp>(st.a), [&](auto op_c) {
        out->run = WithIntType(static_cast<ElementType>(st.c),
                               [](auto tag) -> StepFn {
                                 return &MapStep<decltype(op_c)::value,
                                                 decltype(tag)>;
                               });
        return Status::OK();
      });
    case FusedStep::Op::kEmit:
    case FusedStep::Op::kAgg:
      break;
  }
  return Status::Internal("fused terminal step compiled as a loop");
}

/// Checks step well-formedness (register references resolve to
/// value-producing steps, exactly one terminal, supported ops/types) and
/// buffer capacities, in deterministic step order, then compiles the
/// steps.
Result<FusedProgram> DecodeFusedProgram(const KernelExecContext& ctx,
                                        const Frame& f) {
  FusedProgram p;
  const size_t num_args = ctx.num_args();
  const auto num_steps = static_cast<size_t>(ctx.scalar(num_args - 2));
  p.num_inputs = static_cast<size_t>(ctx.scalar(num_args - 3));
  p.init = ctx.scalar(num_args - 4) != 0;

  std::vector<FusedStep> steps(num_steps);
  for (size_t s = 0; s < num_steps; ++s) {
    const size_t base = f.scalar_base + kFusedStepScalars * s;
    FusedStep& st = steps[s];
    st.op = static_cast<FusedStep::Op>(ctx.scalar(base));
    st.a = ctx.scalar(base + 1);
    st.b = ctx.scalar(base + 2);
    st.c = ctx.scalar(base + 3);
    st.src0 = static_cast<int32_t>(ctx.scalar(base + 4));
    st.src1 = static_cast<int32_t>(ctx.scalar(base + 5));
  }

  auto is_value = [&](int32_t reg, size_t s) {
    return reg >= 0 && static_cast<size_t>(reg) < s &&
           (steps[reg].op == FusedStep::Op::kLoad ||
            steps[reg].op == FusedStep::Op::kMap);
  };
  for (size_t s = 0; s < num_steps; ++s) {
    const FusedStep& st = steps[s];
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
  for (const FusedStep& st : steps) {
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

  // One register per value step; filters narrow the selection instead.
  std::vector<int32_t> reg(num_steps, -1);
  for (size_t s = 0; s + 1 < num_steps; ++s) {
    CompiledStep step;
    if (steps[s].op != FusedStep::Op::kFilter) {
      reg[s] = static_cast<int32_t>(p.num_regs++);
      step.dst = reg[s];
    }
    ADAMANT_RETURN_NOT_OK(CompileStep(ctx, f, steps[s], reg, &step));
    p.steps.push_back(step);
  }
  const int32_t terminal_src = steps.back().src0;
  p.value_reg = terminal_src >= 0 ? reg[static_cast<size_t>(terminal_src)]
                                  : -1;
  return p;
}

/// Runs the compiled steps over rows [begin, end) one batch at a time and
/// hands each batch's live rows to terminal(batch). A batch whose rows a
/// filter all dropped skips the remaining steps.
template <typename Terminal>
void RunBatches(const FusedProgram& p, size_t begin, size_t end,
                const Terminal& terminal) {
  Batch b;
  b.regs.resize(p.num_regs * kBatchRows);
  for (size_t b0 = begin; b0 < end; b0 += kBatchRows) {
    b.begin = b0;
    b.rows = std::min(kBatchRows, end - b0);
    b.live = b.rows;
    for (const CompiledStep& st : p.steps) {
      if (b.live == 0) break;
      st.run(st, &b);
    }
    terminal(b);
  }
}

}  // namespace

Status FusedKernel(KernelExecContext* ctx) {
  ADAMANT_ASSIGN_OR_RETURN(Frame f, DecodeFusedFrame(*ctx));
  ADAMANT_ASSIGN_OR_RETURN(FusedProgram p, DecodeFusedProgram(*ctx, f));

  if (p.agg_terminal) {
    return WithAggOp(p.agg_op, [&](auto op_c) {
      constexpr AggOp kOp = decltype(op_c)::value;
      return internal::Fold(
          ctx, f.n, "fused", kOp, p.init, ctx->ptr_as<int64_t>(p.out_arg),
          [&](size_t begin, size_t end, int64_t a) {
            RunBatches(p, begin, end, [&](const Batch& b) {
              const int64_t* v = kOp == AggOp::kCount ? nullptr
                                                      : b.reg(p.value_reg);
              ForLive(b, [&](size_t j) {
                a = AggCombine<kOp>(a, kOp == AggOp::kCount ? 0 : v[j]);
              });
            });
            return a;
          });
    });
  }

  const size_t cap = ctx->arg_bytes(p.out_arg) / ElementSize(p.out_type);
  return WithIntType(p.out_type, [&](auto tag) {
    using T = decltype(tag);
    auto* out = ctx->ptr_as<T>(p.out_arg);
    return internal::Compact(
        ctx, f.n, "fused", cap, "fused output",
        [&](size_t begin, size_t end, const auto& emit) {
          RunBatches(p, begin, end, [&](const Batch& b) {
            const int64_t* v = b.reg(p.value_reg);
            ForLive(b, [&](size_t j) { emit(b.begin + j, v[j]); });
          });
        },
        [&](size_t k, size_t, int64_t value) {
          out[k] = static_cast<T>(value);
        },
        ctx->ptr_as<int64_t>(p.count_arg));
  });
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
