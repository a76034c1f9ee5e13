#include "plan/logical_plan.h"

#include <algorithm>
#include <sstream>

#include "common/bit_util.h"

namespace adamant::plan {

namespace {
std::shared_ptr<LogicalNode> NewNode(LogicalNode::Kind kind) {
  auto node = std::make_shared<LogicalNode>();
  node->kind = kind;
  return node;
}
}  // namespace

LogicalNodePtr Scan(std::string table) {
  auto node = NewNode(LogicalNode::Kind::kScan);
  node->table = std::move(table);
  return node;
}

LogicalNodePtr Filter(LogicalNodePtr child,
                      std::vector<Predicate> predicates) {
  auto node = NewNode(LogicalNode::Kind::kFilter);
  node->child = std::move(child);
  node->predicates = std::move(predicates);
  return node;
}

LogicalNodePtr Project(LogicalNodePtr child,
                       std::vector<std::pair<std::string, ScalarExpr>> exprs) {
  auto node = NewNode(LogicalNode::Kind::kProject);
  node->child = std::move(child);
  node->projections = std::move(exprs);
  return node;
}

LogicalNodePtr HashJoin(LogicalNodePtr probe, LogicalNodePtr build,
                        std::string probe_key, std::string build_key,
                        ProbeMode mode, double join_selectivity) {
  auto node = NewNode(LogicalNode::Kind::kHashJoin);
  node->child = std::move(probe);
  node->build = std::move(build);
  node->probe_key = std::move(probe_key);
  node->build_key = std::move(build_key);
  node->join_mode = mode;
  node->join_selectivity = join_selectivity;
  return node;
}

LogicalNodePtr GroupBy(LogicalNodePtr child, std::string key,
                       std::vector<AggSpec> aggregates, double expected_groups,
                       bool groups_scale_with_data) {
  auto node = NewNode(LogicalNode::Kind::kGroupBy);
  node->child = std::move(child);
  node->group_key = std::move(key);
  node->aggregates = std::move(aggregates);
  node->expected_groups = expected_groups;
  node->groups_scale_with_data = groups_scale_with_data;
  return node;
}

int64_t GroupKeyModulus(int64_t lo_domain) {
  return static_cast<int64_t>(bit_util::NextPowerOfTwo(
      static_cast<uint64_t>(std::max<int64_t>(lo_domain, 8))));
}

Result<int64_t> GroupKeyDomain(const Table& table, const std::string& column) {
  if (const StringDictionary* dict = table.FindDictionary(column)) {
    return static_cast<int64_t>(dict->size());
  }
  ADAMANT_ASSIGN_OR_RETURN(ColumnPtr col, table.GetColumn(column));
  int64_t max_value = 0;
  for (size_t i = 0; i < col->length(); ++i) {
    int64_t v = 0;
    switch (col->type()) {
      case ElementType::kInt32: v = col->Value<int32_t>(i); break;
      case ElementType::kInt64: v = col->Value<int64_t>(i); break;
      case ElementType::kFloat64:
        v = static_cast<int64_t>(col->Value<double>(i));
        break;
    }
    if (v < 0) {
      return Status::NotSupported(
          "GROUP BY column '" + column +
          "' holds negative values and cannot be packed into a "
          "two-column key");
    }
    max_value = std::max(max_value, v);
  }
  return max_value + 1;
}

double PackedGroupCount(int64_t hi_domain, int64_t lo_domain) {
  return static_cast<double>(hi_domain * lo_domain);
}

std::pair<int64_t, int64_t> UnpackGroupKey(int32_t key, int64_t modulus) {
  return {key / modulus, key % modulus};
}

LogicalNodePtr Reduce(LogicalNodePtr child, std::vector<AggSpec> aggregates) {
  auto node = NewNode(LogicalNode::Kind::kReduce);
  node->child = std::move(child);
  node->aggregates = std::move(aggregates);
  return node;
}

namespace {

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "SUM";
    case AggOp::kCount:
      return "COUNT";
    case AggOp::kMin:
      return "MIN";
    case AggOp::kMax:
      return "MAX";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kBetween:
      return "BETWEEN";
    case CmpOp::kInPair:
      return "IN";
  }
  return "?";
}

void ExplainInto(const LogicalNode& node, int depth, std::ostringstream* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  *out << indent;
  switch (node.kind) {
    case LogicalNode::Kind::kScan:
      *out << "Scan(" << node.table << ")\n";
      return;
    case LogicalNode::Kind::kFilter: {
      *out << "Filter(";
      for (size_t i = 0; i < node.predicates.size(); ++i) {
        const Predicate& p = node.predicates[i];
        if (i > 0) *out << " AND ";
        *out << p.column << " " << CmpOpName(p.op) << " " << p.lo;
        if (p.op == CmpOp::kBetween) *out << ".." << p.hi;
      }
      *out << ")\n";
      break;
    }
    case LogicalNode::Kind::kProject: {
      *out << "Project(";
      for (size_t i = 0; i < node.projections.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << node.projections[i].first;
      }
      *out << ")\n";
      break;
    }
    case LogicalNode::Kind::kHashJoin:
      *out << (node.join_mode == ProbeMode::kSemi ? "SemiJoin(" : "HashJoin(")
           << node.probe_key << " = " << node.build_key << ")\n";
      break;
    case LogicalNode::Kind::kGroupBy: {
      *out << "GroupBy(" << node.group_key << "; ";
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << AggOpName(node.aggregates[i].op) << "("
             << node.aggregates[i].value_column << ")";
      }
      *out << ")\n";
      break;
    }
    case LogicalNode::Kind::kReduce: {
      *out << "Reduce(";
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        if (i > 0) *out << ", ";
        *out << AggOpName(node.aggregates[i].op) << "("
             << node.aggregates[i].value_column << ")";
      }
      *out << ")\n";
      break;
    }
  }
  if (node.child != nullptr) ExplainInto(*node.child, depth + 1, out);
  if (node.build != nullptr) {
    *out << indent << "  [build]\n";
    ExplainInto(*node.build, depth + 2, out);
  }
}

}  // namespace

std::string ExplainPlan(const LogicalNode& root) {
  std::ostringstream out;
  ExplainInto(root, 0, &out);
  return out.str();
}

}  // namespace adamant::plan
