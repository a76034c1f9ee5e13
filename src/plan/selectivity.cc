#include "plan/selectivity.h"

#include <algorithm>
#include <set>

#include "plan/interpreter.h"

namespace adamant::plan {

namespace {

/// Floor for measured fractions: a predicate that matched nothing in the
/// sample may still match a few rows at full scale.
constexpr double kMinSelectivity = 0.02;

/// Every column the annotator reads above a scan: predicate columns,
/// projection inputs, join and group keys. Scans widen only these.
void CollectReads(const LogicalNode& node, std::set<std::string>* names) {
  for (const Predicate& pred : node.predicates) names->insert(pred.column);
  for (const auto& [name, expr] : node.projections) {
    names->insert(expr.a);
    if (MapReadsSecondColumn(expr.op)) names->insert(expr.b);
  }
  names->insert({node.build_key, node.probe_key, node.group_key});
  if (node.build != nullptr) CollectReads(*node.build, names);
  if (node.child != nullptr) CollectReads(*node.child, names);
}

double Fraction(size_t num, size_t den) {
  if (den == 0) return kMinSelectivity;
  return std::max(kMinSelectivity,
                  static_cast<double>(num) / static_cast<double>(den));
}

class Annotator {
 public:
  Annotator(const LogicalNode& root, const Catalog& catalog,
            size_t sample_every)
      : catalog_(catalog), sample_every_(sample_every) {
    CollectReads(root, &reads_);
  }

  /// Returns (annotated node, the node's sampled output stream).
  /// `deflation` tracks how much smaller the sampled stream is than a
  /// faithful 1/k sample of the true stream: each FK join loses the probe
  /// rows whose build partner fell outside the sample, compounding a
  /// further ~k-fold shrink per join that downstream cardinality
  /// measurements must scale back up.
  struct Annotated {
    std::shared_ptr<LogicalNode> node;
    InterpreterStream stream;
    double deflation = 1.0;
  };

  Result<Annotated> Visit(const LogicalNode& node) {
    auto copy = std::make_shared<LogicalNode>(node);
    switch (node.kind) {
      case LogicalNode::Kind::kScan: {
        ADAMANT_ASSIGN_OR_RETURN(
            InterpreterStream s,
            InterpretScan(node, catalog_, sample_every_, &reads_));
        return Annotated{copy, std::move(s)};
      }
      case LogicalNode::Kind::kFilter: {
        ADAMANT_ASSIGN_OR_RETURN(Annotated child, Visit(*node.child));
        copy->child = child.node;
        std::vector<size_t> term_rows;
        InterpreterStream out = InterpretFilter(node, child.stream, &term_rows);
        size_t before = child.stream.rows;
        for (size_t i = 0; i < term_rows.size(); ++i) {
          // Conditional selectivity of this term given the earlier terms.
          copy->predicates[i].selectivity = Fraction(term_rows[i], before);
          before = term_rows[i];
        }
        return Annotated{copy, std::move(out), child.deflation};
      }
      case LogicalNode::Kind::kProject: {
        ADAMANT_ASSIGN_OR_RETURN(Annotated child, Visit(*node.child));
        copy->child = child.node;
        for (const auto& [name, expr] : node.projections) {
          child.stream.cols[name] = InterpretExpr(expr, child.stream);
        }
        return Annotated{copy, std::move(child.stream), child.deflation};
      }
      case LogicalNode::Kind::kHashJoin: {
        ADAMANT_ASSIGN_OR_RETURN(Annotated build, Visit(*node.build));
        ADAMANT_ASSIGN_OR_RETURN(Annotated probe, Visit(*node.child));
        copy->build = build.node;
        copy->child = probe.node;
        size_t build_keys = 0;
        InterpreterStream out =
            InterpretJoin(node, build.stream, probe.stream, &build_keys);
        // A systematic 1/k sample keeps only ~1/k of a unique-key (FK→PK)
        // build side, so most probe rows' partners are missing from the
        // sample and the measured match fraction deflates by ~k. A
        // low-cardinality build keeps every key and needs no correction.
        // The sampled duplication factor picks between the regimes; like
        // the group-count scaling below, this is the safe (larger-buffer)
        // choice.
        double correction = 1.0;
        if (build_keys > 0) {
          const double dup = static_cast<double>(build.stream.rows) /
                             static_cast<double>(build_keys);
          correction = std::min(static_cast<double>(sample_every_),
                                std::max(1.0, sample_every_ / dup));
        }
        copy->join_selectivity = std::min(
            1.0, Fraction(out.rows, probe.stream.rows) * correction);
        // The missing partners shrink the sampled output stream by the
        // same factor; record it so downstream distinct counts rescale.
        return Annotated{copy, std::move(out),
                         probe.deflation * correction};
      }
      case LogicalNode::Kind::kGroupBy:
      case LogicalNode::Kind::kReduce: {
        ADAMANT_ASSIGN_OR_RETURN(Annotated child, Visit(*node.child));
        copy->child = child.node;
        if (node.kind == LogicalNode::Kind::kGroupBy &&
            node.expected_groups <= 0) {
          std::set<int64_t> distinct;
          const auto& keys = child.stream.cols.at(node.group_key);
          distinct.insert(keys.begin(), keys.end());
          // The sample sees at most 1/k of the rows; distinct counts scale
          // somewhere between 1x (low-cardinality keys, all seen) and kx
          // (unique keys). Scaling by k is the safe (larger-table) choice.
          // Upstream joins shrink the sampled stream further (deflation);
          // unique group keys shrink proportionally, so scale that back
          // too — again the larger, safe choice for low-cardinality keys.
          copy->expected_groups = std::max<double>(
              16.0, static_cast<double>(distinct.size()) *
                        static_cast<double>(sample_every_) *
                        child.deflation);
          copy->groups_scale_with_data = node.groups_scale_with_data;
        }
        return Annotated{copy, std::move(child.stream), child.deflation};
      }
    }
    return Status::Internal("unknown logical node kind");
  }

 private:
  const Catalog& catalog_;
  size_t sample_every_;
  std::set<std::string> reads_;
};

}  // namespace

Result<LogicalNodePtr> AnnotateSelectivities(const LogicalNode& root,
                                             const Catalog& catalog,
                                             size_t sample_every) {
  if (sample_every == 0) {
    return Status::InvalidArgument("sample_every must be >= 1");
  }
  Annotator annotator(root, catalog, sample_every);
  ADAMANT_ASSIGN_OR_RETURN(Annotator::Annotated result,
                           annotator.Visit(root));
  return LogicalNodePtr(result.node);
}

}  // namespace adamant::plan
