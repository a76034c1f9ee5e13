#include "sql/engine.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/date.h"
#include "plan/interpreter.h"
#include "plan/logical_plan.h"
#include "sql/parser.h"

namespace adamant::sql {

namespace {

std::string FormatMoney(int64_t cents) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%lld.%02lld",
                static_cast<long long>(cents / 100),
                static_cast<long long>(std::llabs(cents % 100)));
  return buffer;
}

std::string FormatDouble(double v) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  return buffer;
}

/// Decoded group-key part `part` of one output row.
int64_t KeyPartValue(const CompiledQuery& query, int32_t key, int part) {
  if (query.pack_mod <= 0) return key;
  const auto [hi, lo] = plan::UnpackGroupKey(key, query.pack_mod);
  return part == 0 ? hi : lo;
}

}  // namespace

Result<CompiledQuery> Compile(const std::string& sql, const Catalog& catalog,
                              const PlannerOptions& options) {
  ADAMANT_ASSIGN_OR_RETURN(auto stmt, Parse(sql));
  ADAMANT_ASSIGN_OR_RETURN(BoundQuery bound, Bind(*stmt, catalog));
  return PlanQuery(std::move(bound), catalog, options);
}

Result<SqlResultSet> ExtractResults(const CompiledQuery& query,
                                    const plan::PlanBundle& bundle,
                                    const QueryExecution& exec) {
  SqlResultSet out;
  for (const BoundOutput& output : query.outputs) {
    out.column_names.push_back(output.name);
  }

  // Pull every aggregate sink once: the groups of each HASH_AGG node (one
  // per GROUP BY, holding several aggregates), or each AGG_BLOCK's value.
  std::vector<std::map<int32_t, int64_t>> agg_results(
      query.aggregates.size());
  std::map<int, std::vector<AggGroup>> node_groups;
  std::vector<int32_t> keys;
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const std::string& name = query.aggregates[a].output_name;
    const auto it = bundle.nodes.find(name);
    if (it == bundle.nodes.end()) {
      return Status::Internal("aggregate '" + name +
                              "' missing from the lowered plan");
    }
    if (query.grouped) {
      auto groups_it = node_groups.find(it->second);
      if (groups_it == node_groups.end()) {
        ADAMANT_ASSIGN_OR_RETURN(auto groups, exec.GroupResults(it->second));
        groups_it = node_groups.emplace(it->second, std::move(groups)).first;
      }
      const std::vector<AggGroup>& groups = groups_it->second;
      if (a == 0) {
        keys.reserve(groups.size());
        for (const AggGroup& group : groups) keys.push_back(group.key);
      }
      const size_t acc = bundle.AccumulatorOf(name);
      for (const AggGroup& group : groups) {
        agg_results[a].emplace(group.key, group.acc[acc]);
      }
    } else {
      ADAMANT_ASSIGN_OR_RETURN(int64_t value, exec.AggValue(it->second));
      agg_results[a][0] = value;
    }
  }
  if (!query.grouped) keys.push_back(0);

  for (const int32_t key : keys) {
    std::vector<SqlValue> row;
    row.reserve(query.outputs.size());
    for (const BoundOutput& output : query.outputs) {
      SqlValue value;
      switch (output.kind) {
        case BoundOutput::Kind::kGroupKey:
          value.i = KeyPartValue(query, key, output.key_part);
          break;
        case BoundOutput::Kind::kAgg: {
          const auto& groups = agg_results[output.agg_index];
          const auto it = groups.find(key);
          value.i = it == groups.end() ? 0 : it->second;
          break;
        }
        case BoundOutput::Kind::kAvg: {
          const auto& sums = agg_results[output.sum_index];
          const auto& counts = agg_results[output.count_index];
          const auto sum_it = sums.find(key);
          const auto count_it = counts.find(key);
          const double sum =
              sum_it == sums.end() ? 0 : static_cast<double>(sum_it->second);
          const double count = count_it == counts.end()
                                   ? 0
                                   : static_cast<double>(count_it->second);
          value.is_double = true;
          value.d = count > 0 ? sum / count : 0;
          break;
        }
      }
      row.push_back(value);
    }
    out.rows.push_back(std::move(row));
  }

  if (!query.order_by.empty()) {
    std::stable_sort(
        out.rows.begin(), out.rows.end(),
        [&](const std::vector<SqlValue>& a, const std::vector<SqlValue>& b) {
          for (const BoundOrderKey& key : query.order_by) {
            const SqlValue& x = a[key.output_index];
            const SqlValue& y = b[key.output_index];
            const double xv = x.is_double ? x.d : static_cast<double>(x.i);
            const double yv = y.is_double ? y.d : static_cast<double>(y.i);
            if (xv == yv) continue;
            return key.desc ? xv > yv : xv < yv;
          }
          return false;
        });
  }
  if (query.limit >= 0 &&
      out.rows.size() > static_cast<size_t>(query.limit)) {
    out.rows.resize(static_cast<size_t>(query.limit));
  }
  return out;
}

std::string FormatResultSet(const SqlResultSet& results,
                            const CompiledQuery& query,
                            const Catalog& catalog, size_t max_rows) {
  std::string text;
  for (size_t i = 0; i < results.column_names.size(); ++i) {
    text += (i ? " | " : "") + results.column_names[i];
  }
  text += "\n";
  const size_t shown = std::min(results.rows.size(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    const auto& row = results.rows[r];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) text += " | ";
      const BoundOutput& output = query.outputs[c];
      const SqlValue& value = row[c];
      if (value.is_double) {
        text += FormatDouble(output.sem == ColumnSemantic::kMoney
                                 ? value.d / 100.0
                                 : value.d);
        continue;
      }
      switch (output.sem) {
        case ColumnSemantic::kMoney:
          text += FormatMoney(value.i);
          break;
        case ColumnSemantic::kPercent:
          text += FormatMoney(value.i);  // hundredths print the same way
          break;
        case ColumnSemantic::kDate:
          text += Date(static_cast<int32_t>(value.i)).ToString();
          break;
        case ColumnSemantic::kDict: {
          const StringDictionary* dict = nullptr;
          if (output.kind == BoundOutput::Kind::kGroupKey) {
            const BoundGroupKey& key = query.group_by[output.key_part];
            auto table = catalog.GetTable(key.table);
            if (table.ok()) dict = (*table)->FindDictionary(key.column);
          }
          if (dict != nullptr && value.i >= 0 &&
              value.i < static_cast<int64_t>(dict->size())) {
            text += dict->GetString(static_cast<int32_t>(value.i));
          } else {
            text += std::to_string(value.i);
          }
          break;
        }
        case ColumnSemantic::kPlain:
          text += std::to_string(value.i);
          break;
      }
    }
    text += "\n";
  }
  if (results.rows.size() > shown) {
    text += "... (" + std::to_string(results.rows.size() - shown) +
            " more rows)\n";
  }
  return text;
}

Status VerifyAgainstInterpreter(const CompiledQuery& query,
                                const plan::PlanBundle& bundle,
                                const QueryExecution& exec,
                                const Catalog& catalog) {
  ADAMANT_ASSIGN_OR_RETURN(plan::InterpreterResults want,
                           plan::InterpretPlan(*query.plan, catalog));
  std::map<int, std::vector<AggGroup>> node_groups;
  for (const BoundAggregate& agg : query.aggregates) {
    const auto node = bundle.nodes.find(agg.output_name);
    if (node == bundle.nodes.end()) {
      return Status::Internal("aggregate '" + agg.output_name +
                              "' missing from the lowered plan");
    }
    const auto want_it = want.find(agg.output_name);
    if (want_it == want.end()) {
      return Status::Internal("aggregate '" + agg.output_name +
                              "' missing from the interpreter results");
    }
    const auto& want_groups = want_it->second;
    if (query.grouped) {
      auto got_it = node_groups.find(node->second);
      if (got_it == node_groups.end()) {
        ADAMANT_ASSIGN_OR_RETURN(auto groups, exec.GroupResults(node->second));
        got_it = node_groups.emplace(node->second, std::move(groups)).first;
      }
      const std::vector<AggGroup>& got = got_it->second;
      if (got.size() != want_groups.size()) {
        return Status::ExecutionError(
            "aggregate '" + agg.output_name + "': executor returned " +
            std::to_string(got.size()) + " groups, interpreter " +
            std::to_string(want_groups.size()));
      }
      const size_t acc = bundle.AccumulatorOf(agg.output_name);
      for (const AggGroup& group : got) {
        const int32_t key = group.key;
        const int64_t value = group.acc[acc];
        const auto it = want_groups.find(key);
        if (it == want_groups.end()) {
          return Status::ExecutionError("aggregate '" + agg.output_name +
                                  "': unexpected group key " +
                                  std::to_string(key));
        }
        if (it->second != value) {
          return Status::ExecutionError(
              "aggregate '" + agg.output_name + "' key " +
              std::to_string(key) + ": executor " + std::to_string(value) +
              " != interpreter " + std::to_string(it->second));
        }
      }
    } else {
      ADAMANT_ASSIGN_OR_RETURN(int64_t got, exec.AggValue(node->second));
      const int64_t expect =
          want_groups.count(0) ? want_groups.at(0) : 0;
      if (got != expect) {
        return Status::ExecutionError("aggregate '" + agg.output_name +
                                "': executor " + std::to_string(got) +
                                " != interpreter " + std::to_string(expect));
      }
    }
  }
  return Status::OK();
}

namespace {

std::string CmpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kBetween: return "between";
    case CmpOp::kInPair: return "in";
  }
  return "?";
}

std::string FormatPredicate(const plan::Predicate& pred) {
  char sel[32];
  std::snprintf(sel, sizeof(sel), "%.3f", pred.selectivity);
  std::string text = pred.column + " " + CmpName(pred.op) + " " +
                     std::to_string(pred.lo);
  if (pred.op == CmpOp::kBetween || pred.op == CmpOp::kInPair) {
    text += (pred.op == CmpOp::kBetween ? " and " : ", ") +
            std::to_string(pred.hi);
  }
  return text + " (sel " + sel + ")";
}

/// Collects each join's annotated selectivity ("fraction of probe rows
/// surviving"), probe-outermost first.
void CollectJoinSelectivities(const plan::LogicalNode& node,
                              std::string* text) {
  if (node.kind == plan::LogicalNode::Kind::kHashJoin) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %s = %s: sel %.3f%s\n",
                  node.probe_key.c_str(), node.build_key.c_str(),
                  node.join_selectivity,
                  node.join_mode == ProbeMode::kSemi ? " (semi)" : "");
    *text += line;
  }
  if (node.child) CollectJoinSelectivities(*node.child, text);
  if (node.build) CollectJoinSelectivities(*node.build, text);
}

/// Collects Filter-over-Scan pairs ("pushed-down predicates") from the
/// annotated plan.
void CollectPushdown(const plan::LogicalNode& node, std::string* text) {
  if (node.kind == plan::LogicalNode::Kind::kFilter) {
    const plan::LogicalNode* below = node.child.get();
    while (below != nullptr &&
           below->kind == plan::LogicalNode::Kind::kProject) {
      below = below->child.get();
    }
    if (below != nullptr && below->kind == plan::LogicalNode::Kind::kScan) {
      for (const plan::Predicate& pred : node.predicates) {
        *text += "  " + below->table + ": " + FormatPredicate(pred) + "\n";
      }
    }
  }
  if (node.build) CollectPushdown(*node.build, text);
  if (node.child) CollectPushdown(*node.child, text);
}

}  // namespace

std::string ExplainCompiled(const CompiledQuery& query) {
  std::string text = "plan:\n" + plan::ExplainPlan(*query.plan);
  text += "pushed-down predicates:\n";
  std::string pushdown;
  CollectPushdown(*query.plan, &pushdown);
  text += pushdown.empty() ? "  (none)\n" : pushdown;
  text += "join order:";
  if (query.join_order.size() < 2) {
    text += " (no joins)\n";
  } else {
    for (size_t i = 0; i < query.join_order.size(); ++i) {
      text += (i ? " joins " : " ") + query.join_order[i];
    }
    text += " (probe side first)\n";
    std::string joins;
    CollectJoinSelectivities(*query.plan, &joins);
    if (!joins.empty()) text += "join selectivities:\n" + joins;
  }
  if (!query.join_candidates.empty()) {
    text += "costed build orders:\n";
    for (const std::string& candidate : query.join_candidates) {
      text += "  " + candidate + "\n";
    }
  }
  if (query.grouped) {
    text += "group by:";
    for (const BoundGroupKey& key : query.group_by) text += " " + key.column;
    if (query.pack_mod > 0) {
      text += " (packed: key = " + query.group_by[0].column + " * " +
              std::to_string(query.pack_mod) + " + " +
              query.group_by[1].column + ")";
    }
    text += "\n";
  }
  if (!query.order_by.empty()) {
    text += "order by:";
    for (const BoundOrderKey& key : query.order_by) {
      text += " " + query.outputs[key.output_index].name +
              (key.desc ? " desc" : " asc");
    }
    text += "\n";
  }
  if (query.limit >= 0) {
    text += "limit: " + std::to_string(query.limit) + "\n";
  }
  return text;
}

}  // namespace adamant::sql
