#include "plan/fusion.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "task/kernels_fused.h"

namespace adamant::plan {

namespace {

bool IntType(ElementType type) {
  return type == ElementType::kInt32 || type == ElementType::kInt64;
}

/// Kinds a fused recipe can express. NEQ_PREV maps are cross-row and stay
/// unfused.
bool FusableKind(const GraphNode& node) {
  switch (node.kind) {
    case PrimitiveKind::kMap:
      return node.config.map_op != MapOp::kNeqPrev;
    case PrimitiveKind::kFilterBitmap:
    case PrimitiveKind::kMaterialize:
    case PrimitiveKind::kAggBlock:
      return true;
    default:
      return false;
  }
}

bool TerminalKind(PrimitiveKind kind) {
  return kind == PrimitiveKind::kMap || kind == PrimitiveKind::kMaterialize ||
         kind == PrimitiveKind::kAggBlock;
}

/// One fusable group: its members in topological order, the single
/// terminal, and the composite node the rewrite will create.
struct GroupPlan {
  std::vector<int> members;  // topological order
  int terminal = -1;
  PrimitiveKind kind = PrimitiveKind::kFused;
  std::vector<ColumnPtr> input_columns;  // fused node input slots, in order
  NodeConfig config;
  std::string label;
};

/// Translates a group's member sub-DAG into a linear FusedStep recipe.
/// Returns false when the recipe cannot reproduce the unfused chain
/// bit-for-bit — non-integer columns, a percentage map whose operand is
/// not an int32 load, or a row-alignment hazard: the fused interpreter
/// pairs values of the same *original* row, so a multi-input map must read
/// operands compacted under the same filters, and the emitted/aggregated
/// value must be gated by every filter in the group. The group is then
/// simply left unfused.
bool BuildRecipe(const PrimitiveGraph& g, GroupPlan* group) {
  std::vector<FusedStep>& steps = group->config.fused_steps;
  std::map<const Column*, int32_t> load_reg;  // dedup scan columns
  std::map<int, int32_t> value_reg;           // member node -> value register
  // Compaction context of a member's value: the filter members whose
  // predicates have compacted it (via MATERIALIZE) on its way here.
  std::map<int, std::set<int>> value_ctx;

  // The member producing input slot `slot` of `node_id`; -1 for a scan.
  auto input_source = [&](int node_id, int slot) -> const GraphEdge* {
    for (int eid : g.InEdges(node_id)) {
      const GraphEdge& e = g.edges()[static_cast<size_t>(eid)];
      if (e.to_slot == slot) return &e;
    }
    return nullptr;
  };

  // Register of a member's slot-`slot` value input; -2 on failure.
  auto input_reg = [&](int node_id, int slot) -> int32_t {
    const GraphEdge* e = input_source(node_id, slot);
    if (e == nullptr) return -2;
    if (e->is_scan()) {
      auto it = load_reg.find(e->column.get());
      if (it != load_reg.end()) return it->second;
      if (!IntType(e->elem_type)) return -2;
      if (steps.size() >= kernels::kMaxFusedSteps) return -2;
      FusedStep load;
      load.op = FusedStep::Op::kLoad;
      load.a = static_cast<int64_t>(group->input_columns.size());
      load.b = static_cast<int64_t>(e->elem_type);
      group->input_columns.push_back(e->column);
      load_reg[e->column.get()] = static_cast<int32_t>(steps.size());
      steps.push_back(load);
      return load_reg[e->column.get()];
    }
    auto it = value_reg.find(e->from_node);
    return it == value_reg.end() ? -2 : it->second;
  };

  auto input_ctx = [&](int node_id, int slot) -> std::set<int> {
    const GraphEdge* e = input_source(node_id, slot);
    if (e == nullptr || e->is_scan()) return {};
    auto it = value_ctx.find(e->from_node);
    return it == value_ctx.end() ? std::set<int>{} : it->second;
  };

  // All filters in a bitmap's combine chain (the predicate a MATERIALIZE
  // of that bitmap applies).
  std::function<std::set<int>(int)> filter_closure = [&](int filter_id) {
    std::set<int> closure{filter_id};
    const GraphEdge* chain = input_source(filter_id, 1);
    if (chain != nullptr && !chain->is_scan() &&
        g.node(chain->from_node).kind == PrimitiveKind::kFilterBitmap) {
      std::set<int> up = filter_closure(chain->from_node);
      closure.insert(up.begin(), up.end());
    }
    return closure;
  };

  std::set<int> all_filters;
  for (int id : group->members) {
    if (g.node(id).kind == PrimitiveKind::kFilterBitmap) {
      all_filters.insert(id);
    }
  }

  // Element type a value register holds after store/load between kernels.
  auto reg_elem = [&](int32_t reg) {
    const FusedStep& step = steps[static_cast<size_t>(reg)];
    return static_cast<ElementType>(step.op == FusedStep::Op::kLoad ? step.b
                                                                    : step.c);
  };

  for (int id : group->members) {
    const GraphNode& node = g.node(id);
    const bool terminal = id == group->terminal;
    if (steps.size() + 2 > kernels::kMaxFusedSteps) return false;
    switch (node.kind) {
      case PrimitiveKind::kFilterBitmap: {
        const int32_t src = input_reg(id, 0);
        if (src < 0) return false;
        FusedStep step;
        step.op = FusedStep::Op::kFilter;
        step.a = static_cast<int64_t>(node.config.cmp_op);
        step.b = node.config.lo;
        step.c = node.config.hi;
        step.src0 = src;
        steps.push_back(step);
        break;
      }
      case PrimitiveKind::kMap: {
        const int32_t src0 = input_reg(id, 0);
        if (src0 < 0) return false;
        int32_t src1 = -1;
        const MapOp op = node.config.map_op;
        if (MapReadsSecondColumn(op)) {
          src1 = input_reg(id, 1);
          if (src1 < 0) return false;
          // Both operands must pair rows under the same compaction, or the
          // unfused chain combines values of different original rows.
          if (input_ctx(id, 0) != input_ctx(id, 1)) return false;
        }
        // The unfused percentage maps read their in1 buffer as raw int32;
        // the fused interpreter reads a register. They agree only when the
        // register is an int32 load.
        if (IsPercentMap(op) &&
            (steps[static_cast<size_t>(src1)].op != FusedStep::Op::kLoad ||
             static_cast<ElementType>(steps[static_cast<size_t>(src1)].b) !=
                 ElementType::kInt32)) {
          return false;
        }
        if (!IntType(node.config.out_type)) return false;
        FusedStep step;
        step.op = FusedStep::Op::kMap;
        step.a = static_cast<int64_t>(op);
        step.b = node.config.imm;
        step.c = static_cast<int64_t>(node.config.out_type);
        step.src0 = src0;
        step.src1 = src1;
        value_reg[id] = static_cast<int32_t>(steps.size());
        value_ctx[id] = input_ctx(id, 0);
        steps.push_back(step);
        if (terminal) {
          if (value_ctx[id] != all_filters) return false;
          FusedStep emit;
          emit.op = FusedStep::Op::kEmit;
          emit.a = static_cast<int64_t>(node.config.out_type);
          emit.src0 = value_reg[id];
          steps.push_back(emit);
          group->config.out_type = node.config.out_type;
        }
        break;
      }
      case PrimitiveKind::kMaterialize: {
        // Compaction is implicit in the fused emit; the member only aliases
        // its value input (slot 1's bitmap became part of the predicate).
        const int32_t src = input_reg(id, 0);
        if (src < 0) return false;
        const GraphEdge* bitmap = input_source(id, 1);
        if (bitmap == nullptr || bitmap->is_scan() ||
            g.node(bitmap->from_node).kind != PrimitiveKind::kFilterBitmap) {
          return false;
        }
        value_reg[id] = src;
        std::set<int> ctx = input_ctx(id, 0);
        std::set<int> gate = filter_closure(bitmap->from_node);
        ctx.insert(gate.begin(), gate.end());
        value_ctx[id] = std::move(ctx);
        group->config.selectivity =
            std::min(group->config.selectivity, node.config.selectivity);
        if (terminal) {
          if (value_ctx[id] != all_filters) return false;
          const ElementType elem = reg_elem(src);
          FusedStep emit;
          emit.op = FusedStep::Op::kEmit;
          emit.a = static_cast<int64_t>(elem);
          emit.src0 = src;
          steps.push_back(emit);
          group->config.out_type = elem;
        }
        break;
      }
      case PrimitiveKind::kAggBlock: {
        const int32_t src = input_reg(id, 0);
        if (src < 0) return false;
        // The aggregate must fold exactly the rows surviving every filter
        // the fused predicate will apply.
        if (input_ctx(id, 0) != all_filters) return false;
        FusedStep agg;
        agg.op = FusedStep::Op::kAgg;
        agg.a = static_cast<int64_t>(node.config.agg_op);
        agg.src0 = src;
        steps.push_back(agg);
        group->config.agg_op = node.config.agg_op;
        group->config.out_type = ElementType::kInt64;
        break;
      }
      default:
        return false;
    }
  }
  if (steps.size() < 2 || steps.size() > kernels::kMaxFusedSteps ||
      group->input_columns.empty()) {
    return false;
  }
  group->kind = g.node(group->terminal).kind == PrimitiveKind::kAggBlock
                    ? PrimitiveKind::kFusedAgg
                    : PrimitiveKind::kFused;
  group->config.in_type =
      static_cast<ElementType>(steps[0].b);  // first step is always a load
  group->label = "fused(" + FusedRecipeLabel(steps) + ")";
  return true;
}

/// Auto-mode cost check: one fused launch vs the member kernels' launches,
/// each priced by the device at a representative chunk size under the
/// run's thread budget.
bool FusionPaysOff(const PrimitiveGraph& g, const GroupPlan& group,
                   const ExecutionOptions& options, DeviceManager* manager) {
  if (manager == nullptr) return true;
  auto dev = manager->GetDevice(g.node(group.terminal).device);
  if (!dev.ok()) return true;
  auto price = [&](const char* kernel) {
    return (*dev)
        ->PriceLaunch(kernel, static_cast<double>(size_t{1} << 20),
                      options.kernel_threads)
        .total_us;
  };
  double unfused_us = 0.0;
  for (int id : group.members) {
    unfused_us += price(GetSignature(g.node(id).kind).kernel_name);
  }
  return price("fused") < unfused_us;
}

}  // namespace

Result<FusionReport> ApplyFusion(PlanBundle* bundle,
                                 const ExecutionOptions& options,
                                 DeviceManager* manager) {
  FusionReport report;
  if (options.fusion == FusionMode::kOff) return report;
  if (bundle == nullptr || bundle->graph == nullptr) {
    return Status::InvalidArgument("fusion pass needs a lowered plan");
  }
  const PrimitiveGraph& g = *bundle->graph;
  const size_t num_nodes = g.nodes().size();

  // Nodes the caller extracts results from must survive the rewrite; they
  // may fuse only as a group's terminal.
  std::set<int> named;
  for (const auto& [name, id] : bundle->nodes) named.insert(id);
  if (bundle->result_node >= 0) named.insert(bundle->result_node);

  // Candidate membership, refined to a fixpoint: a member's non-scan
  // inputs must come from same-device members (so the group's external
  // inputs are all column scans), interior intermediates may not leak
  // outside the group, breakers and named nodes may only be terminals,
  // and a bitmap cannot be a fused output.
  std::vector<bool> member(num_nodes, false);
  for (const GraphNode& node : g.nodes()) {
    member[static_cast<size_t>(node.id)] = FusableKind(node);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GraphNode& node : g.nodes()) {
      if (!member[static_cast<size_t>(node.id)]) continue;
      bool drop = false;
      for (int eid : g.InEdges(node.id)) {
        const GraphEdge& e = g.edges()[static_cast<size_t>(eid)];
        if (e.is_scan()) continue;
        if (!member[static_cast<size_t>(e.from_node)] ||
            g.node(e.from_node).device != node.device) {
          drop = true;
        }
      }
      bool interior_out = false;
      bool escaping_out = false;
      for (int eid : g.OutEdges(node.id)) {
        const GraphEdge& e = g.edges()[static_cast<size_t>(eid)];
        if (member[static_cast<size_t>(e.to_node)] &&
            g.node(e.to_node).device == node.device) {
          interior_out = true;
        } else {
          escaping_out = true;
        }
      }
      if (interior_out && escaping_out) drop = true;
      if (interior_out &&
          (node.kind == PrimitiveKind::kAggBlock || named.count(node.id))) {
        drop = true;  // breakers / named nodes may only be terminals
      }
      if (!interior_out && !TerminalKind(node.kind)) drop = true;
      if (drop) {
        member[static_cast<size_t>(node.id)] = false;
        changed = true;
      }
    }
  }

  // Connected components over interior edges.
  std::vector<int> comp(num_nodes, -1);
  int num_comps = 0;
  for (size_t seed = 0; seed < num_nodes; ++seed) {
    if (!member[seed] || comp[seed] >= 0) continue;
    std::vector<int> stack{static_cast<int>(seed)};
    comp[seed] = num_comps;
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      for (const GraphEdge& e : g.edges()) {
        if (e.is_scan()) continue;
        int other = -1;
        if (e.from_node == id && member[static_cast<size_t>(e.to_node)]) {
          other = e.to_node;
        } else if (e.to_node == id &&
                   member[static_cast<size_t>(e.from_node)]) {
          other = e.from_node;
        }
        if (other >= 0 && comp[static_cast<size_t>(other)] < 0) {
          comp[static_cast<size_t>(other)] = num_comps;
          stack.push_back(other);
        }
      }
    }
    ++num_comps;
  }

  ADAMANT_ASSIGN_OR_RETURN(std::vector<int> topo, g.TopoOrder());

  // Validate each component into a GroupPlan (exactly one terminal, >= 2
  // members, expressible recipe, and — in auto mode — a cost-model win).
  std::vector<GroupPlan> groups;
  std::vector<int> group_of(num_nodes, -1);
  for (int c = 0; c < num_comps; ++c) {
    GroupPlan group;
    for (int id : topo) {
      if (comp[static_cast<size_t>(id)] == c) group.members.push_back(id);
    }
    if (group.members.size() < 2) continue;
    int terminals = 0;
    for (int id : group.members) {
      bool interior_out = false;
      for (int eid : g.OutEdges(id)) {
        const GraphEdge& e = g.edges()[static_cast<size_t>(eid)];
        if (comp[static_cast<size_t>(e.to_node)] == c) interior_out = true;
      }
      if (!interior_out) {
        group.terminal = id;
        ++terminals;
      }
    }
    if (terminals != 1) continue;
    if (!BuildRecipe(g, &group)) continue;
    if (options.fusion == FusionMode::kAuto &&
        !FusionPaysOff(g, group, options, manager)) {
      continue;
    }
    for (int id : group.members) {
      group_of[static_cast<size_t>(id)] = static_cast<int>(groups.size());
    }
    groups.push_back(std::move(group));
  }
  if (groups.empty()) return report;

  // Rebuild the graph in the original topological order, replacing each
  // group with its composite at the terminal's position.
  auto rewritten = std::make_unique<PrimitiveGraph>();
  std::vector<int> new_id(num_nodes, -1);
  for (int old_id : topo) {
    const GraphNode& node = g.node(old_id);
    const int gi = group_of[static_cast<size_t>(old_id)];
    if (gi >= 0 && old_id != groups[static_cast<size_t>(gi)].terminal) {
      continue;  // folded into the composite
    }
    if (gi >= 0) {
      const GroupPlan& group = groups[static_cast<size_t>(gi)];
      const int fid = rewritten->AddNode(group.kind, node.device,
                                         group.config, group.label);
      for (size_t slot = 0; slot < group.input_columns.size(); ++slot) {
        ADAMANT_ASSIGN_OR_RETURN(
            int scan_edge,
            rewritten->ConnectScan(group.input_columns[slot], fid,
                                   static_cast<int>(slot)));
        (void)scan_edge;
      }
      new_id[static_cast<size_t>(old_id)] = fid;
      continue;
    }
    const int nid =
        rewritten->AddNode(node.kind, node.device, node.config, node.label);
    new_id[static_cast<size_t>(old_id)] = nid;
    for (int eid : g.InEdges(old_id)) {
      const GraphEdge& e = g.edges()[static_cast<size_t>(eid)];
      if (e.is_scan()) {
        ADAMANT_ASSIGN_OR_RETURN(
            int scan_edge, rewritten->ConnectScan(e.column, nid, e.to_slot));
        (void)scan_edge;
        continue;
      }
      const int src = new_id[static_cast<size_t>(e.from_node)];
      // A fused source exposes its single output on slot 0; everything
      // else keeps its slot. Semantics/types carry over from the original
      // edge either way.
      const int src_slot =
          group_of[static_cast<size_t>(e.from_node)] >= 0 ? 0 : e.from_slot;
      ADAMANT_ASSIGN_OR_RETURN(
          int edge_id, rewritten->Connect(src, src_slot, nid, e.to_slot,
                                          e.elem_type, e.semantic));
      (void)edge_id;
    }
  }
  ADAMANT_RETURN_NOT_OK(rewritten->Validate());

  for (auto& [name, id] : bundle->nodes) {
    id = new_id[static_cast<size_t>(id)];
  }
  if (bundle->result_node >= 0) {
    bundle->result_node = new_id[static_cast<size_t>(bundle->result_node)];
  }
  bundle->graph = std::move(rewritten);

  report.groups = static_cast<int>(groups.size());
  for (const GroupPlan& group : groups) {
    report.nodes_fused += static_cast<int>(group.members.size());
    report.recipes.push_back(FusedRecipeLabel(group.config.fused_steps));
  }
  return report;
}

}  // namespace adamant::plan
