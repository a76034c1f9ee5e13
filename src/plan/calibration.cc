#include "plan/calibration.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/chrome_trace.h"
#include "task/primitive.h"

namespace adamant::plan {

namespace {

// The one clamp: NaN-safe (a NaN sample lands on `lo`).
double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

double ClampSelectivity(double v) {
  return Clamp(v, Calibration::kSelectivityFloor, 1.0);
}

std::string LabelKey(const std::string& label, int ordinal) {
  return "label:" + label + "#" + std::to_string(ordinal);
}

}  // namespace

void Calibration::Ewma::Fold(double sample, double alpha) {
  value = observations == 0 ? sample : alpha * sample + (1.0 - alpha) * value;
  ++observations;
}

void Calibration::ObserveOperators(
    const std::string& query_name,
    const std::vector<obs::OperatorStats>& operators) {
  std::lock_guard<std::mutex> lock(mu_);
  QueryModel& model = selectivity_[query_name];
  ++model.runs;
  auto fold = [](Selectivity* entry, double actual, double peak) {
    entry->mean.Fold(actual, kSelectivityAlpha);
    entry->peak = std::max(entry->peak, peak);
  };
  std::map<std::string, int> ordinals;
  for (const obs::OperatorStats& op : operators) {
    if (!op.selective) continue;
    const int ordinal = ordinals[op.label]++;
    if (op.rows_in == 0) continue;  // cancelled before any chunk landed
    const double actual = op.ActualSelectivity();
    const double peak =
        op.max_chunk_selectivity > 0 ? op.max_chunk_selectivity : actual;
    if (!op.feedback_key.empty()) {
      fold(&model.keys[op.feedback_key], actual, peak);
    }
    fold(&model.keys[LabelKey(op.label, ordinal)], actual, peak);
  }
}

int Calibration::ApplyToGraph(const std::string& query_name,
                              PrimitiveGraph* graph) const {
  if (graph == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto qit = selectivity_.find(query_name);
  if (qit == selectivity_.end()) return 0;
  const QueryModel& model = qit->second;
  int adjusted = 0;
  std::map<std::string, int> ordinals;
  for (const GraphNode& node : graph->nodes()) {
    if (!GetSignature(node.kind).sized_by_selectivity) continue;
    const int ordinal = ordinals[node.label]++;
    auto it = model.keys.find(LabelKey(node.label, ordinal));
    if (it == model.keys.end()) continue;
    const Selectivity& e = it->second;
    // The peak (not the mean) sizes the buffer: a chunk that overflows its
    // capacity estimate fails the query, so head-room pads the worst chunk
    // ever seen.
    graph->mutable_node(node.id).config.selectivity =
        ClampSelectivity(std::max(e.peak, e.mean.value) * kSizingMargin);
    ++adjusted;
  }
  return adjusted;
}

LogicalNodePtr Calibration::ApplyToLogicalPlan(const std::string& query_name,
                                               LogicalNodePtr root,
                                               int* adjusted) const {
  int local = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto qit = selectivity_.find(query_name);
    if (qit != selectivity_.end()) {
      // Private rewrite over a snapshot reference; the lock is held for the
      // whole (cheap, allocation-only) walk.
      struct Walker {
        const std::map<std::string, Selectivity>& keys;
        int* adjusted;

        const Ewma* Step(const std::string& key) const {
          auto it = keys.find(key);
          return it != keys.end() ? &it->second.mean : nullptr;
        }

        LogicalNodePtr Walk(const LogicalNodePtr& node) {
          if (node == nullptr) return node;
          LogicalNodePtr child = Walk(node->child);
          LogicalNodePtr build =
              node->kind == LogicalNode::Kind::kHashJoin ? Walk(node->build)
                                                         : node->build;
          bool changed = child != node->child || build != node->build;
          auto copy = std::make_shared<LogicalNode>(*node);
          copy->child = child;
          copy->build = build;
          if (node->kind == LogicalNode::Kind::kFilter &&
              !node->predicates.empty()) {
            // The filter chain's cumulative selectivity is observed at its
            // MATERIALIZE, keyed by the last FILTER_BITMAP's label.
            const Ewma* step = Step("step:lower.filter(" +
                                    node->predicates.back().column + ")");
            if (step != nullptr) {
              double current = 1.0;
              for (const Predicate& p : node->predicates) {
                current *= p.selectivity;
              }
              const double measured = ClampSelectivity(step->value);
              if (current > 0 && measured > 0) {
                // Spread the correction evenly across the conjuncts — only
                // the product is observable.
                const double factor =
                    std::pow(measured / current,
                             1.0 / static_cast<double>(
                                       node->predicates.size()));
                for (Predicate& p : copy->predicates) {
                  p.selectivity = ClampSelectivity(p.selectivity * factor);
                }
                ++*adjusted;
                changed = true;
              }
            }
          } else if (node->kind == LogicalNode::Kind::kHashJoin) {
            const Ewma* step = Step("step:lower.probe(" + node->probe_key + ")");
            if (step != nullptr) {
              copy->join_selectivity = ClampSelectivity(step->value);
              ++*adjusted;
              changed = true;
            }
          }
          return changed ? LogicalNodePtr(copy) : node;
        }
      };
      Walker walker{qit->second.keys, &local};
      root = walker.Walk(root);
    }
  }
  if (adjusted != nullptr) *adjusted = local;
  return root;
}

size_t Calibration::RunsObserved(const std::string& query_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto qit = selectivity_.find(query_name);
  return qit == selectivity_.end() ? 0 : qit->second.runs;
}

void Calibration::ObserveSplit(const std::string& device_name,
                               double predicted_chunk_us,
                               double observed_chunk_us) {
  if (!(predicted_chunk_us > 0) || !(observed_chunk_us > 0)) return;
  const double sample =
      Clamp(observed_chunk_us / predicted_chunk_us, 1.0 / kMaxSkew, kMaxSkew);
  std::lock_guard<std::mutex> lock(mu_);
  split_ratio_[device_name].Fold(sample, kSplitAlpha);
}

double Calibration::SplitRatio(const std::string& device_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = split_ratio_.find(device_name);
  return it == split_ratio_.end() ? 1.0 : it->second.value;
}

std::vector<double> Calibration::CalibrateWeights(
    const std::vector<std::string>& names, std::vector<double> weights) const {
  if (names.size() != weights.size()) return weights;
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    auto it = split_ratio_.find(names[i]);
    if (it != split_ratio_.end()) {
      // Observed cost ran ratio-times the prediction, so the device's
      // effective throughput is 1/ratio of the model's — shrink its share.
      weights[i] /= it->second.value;
    }
    sum += weights[i];
  }
  if (sum > 0) {
    for (double& w : weights) w /= sum;
  }
  return weights;
}

size_t Calibration::SplitObservations() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [name, ratio] : split_ratio_) total += ratio.observations;
  return total;
}

void Calibration::ObserveRun(const std::string& query_name, double sim_us,
                             double wall_ms) {
  if (wall_ms <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  avg_run_ms_.Fold(wall_ms, kRunAlpha);
  if (sim_us > 0) wall_ms_per_sim_us_.Fold(wall_ms / sim_us, kRunAlpha);
  run_wall_ms_[query_name].Fold(wall_ms, kRunAlpha);
}

double Calibration::PredictWallMs(const std::string& query_name,
                                  double sim_us, double floor_ms) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = run_wall_ms_.find(query_name);
  if (it != run_wall_ms_.end()) return std::max(floor_ms, it->second.value);
  if (wall_ms_per_sim_us_.observations > 0 && sim_us > 0) {
    return std::max(floor_ms, wall_ms_per_sim_us_.value * sim_us);
  }
  return floor_ms;
}

double Calibration::avg_run_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return avg_run_ms_.value;
}

size_t Calibration::RunObservations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return avg_run_ms_.observations;
}

std::string Calibration::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  // `"name":` object keys, comma-separated after the first.
  auto key = [&out](bool* first, const std::string& name) {
    if (!*first) out << ',';
    *first = false;
    out << '"' << obs::JsonEscape(name) << "\":";
  };
  out << "{\"selectivity\":{";
  bool first_query = true;
  for (const auto& [name, model] : selectivity_) {
    key(&first_query, name);
    out << "{\"runs\":" << model.runs << ",\"keys\":{";
    bool first_key = true;
    for (const auto& [step, entry] : model.keys) {
      key(&first_key, step);
      out << "{\"ewma\":" << entry.mean.value << ",\"peak\":" << entry.peak
          << ",\"observations\":" << entry.mean.observations << '}';
    }
    out << "}}";
  }
  out << "},\"split\":{";
  bool first_device = true;
  for (const auto& [name, ratio] : split_ratio_) {
    key(&first_device, name);
    out << "{\"ratio\":" << ratio.value
        << ",\"observations\":" << ratio.observations << '}';
  }
  out << "},\"runs\":{\"wall_avg_run_ms\":" << avg_run_ms_.value
      << ",\"wall_ms_per_sim_us\":" << wall_ms_per_sim_us_.value
      << ",\"observations\":" << avg_run_ms_.observations << "}}";
  return out.str();
}

}  // namespace adamant::plan
