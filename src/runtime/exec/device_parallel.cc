#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/exec/hetero_split.h"
#include "runtime/exec/run_context.h"
#include "task/hash_table.h"
#include "task/merge.h"

namespace adamant::exec {

namespace {

/// One partition device's private execution state: a clone of the query
/// graph retargeted to the device, and a chunked-model RunContext over it.
/// Keeping the contexts fully disjoint (own graph, own bindings, own hub,
/// own persists) is what makes the partition threads race-free — the only
/// shared mutable state is the scan cache and memory ledger, which lock
/// internally, the rebalancing pool, which holds one mutex, and each
/// SimulatedDevice, which only its own thread touches between joins.
struct SubRun {
  DeviceId device = 0;
  SimulatedDevice* dev = nullptr;
  std::unique_ptr<PrimitiveGraph> graph;
  std::unique_ptr<RunContext> ctx;
  size_t chunks_run = 0;
  size_t chunks_stolen = 0;
  /// Observed simulated busy time (us) of this partition's executed chunks,
  /// summed over all pipelines — the feedback quantity per device.
  double observed_us = 0;
};

/// Runtime rebalancing pool for one pipeline: partitions claim their
/// contiguous ranges chunk by chunk, and a partition that runs ahead on the
/// *simulated* clock steals whole chunks from the slowest partition's
/// unclaimed tail.
///
/// Why simulated clocks: a simulated-slow device executes wall-clock as
/// fast as a fast one (kernels run for real on the host; only booked time
/// differs), so wall-clock work stealing would never fire here. Instead
/// each partition carries a virtual clock `t` — the simulated cost of the
/// chunks it has claimed, charged with the current per-chunk estimate at
/// claim time and corrected to the device's observed timeline delta on
/// completion — and claims are admitted in virtual-time order: a partition
/// may take its next chunk only while its clock is minimal among live
/// partitions. That serializes *claims* (not execution) exactly the way
/// simulated time would, so the final chunk assignment matches what real
/// heterogeneous hardware would reach, deterministically.
///
/// Steal protocol: a partition whose own range is exhausted picks the
/// victim with the latest projected finish (t_v + cost_v * unclaimed_v) and
/// takes one chunk off that range's tail (end_v -= 1) iff it can finish the
/// chunk before the victim would (t_thief + cost_thief < projected finish).
/// Ranges stay contiguous — fronts only advance, tails only retreat — and
/// every chunk is claimed exactly once under the mutex, so results remain
/// bit-identical to any other schedule.
class StealPool {
 public:
  struct Claimed {
    bool has = false;
    size_t chunk = 0;
  };

  StealPool(const std::vector<std::pair<size_t, size_t>>& ranges,
            std::vector<double> chunk_cost_seed, bool allow_steal,
            CancelToken* cancel, std::vector<std::string> names,
            size_t pipeline_index)
      : allow_steal_(allow_steal),
        cancel_(cancel),
        names_(std::move(names)),
        pipeline_index_(pipeline_index) {
    parts_.resize(ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      parts_[i].next = ranges[i].first;
      parts_[i].end = ranges[i].second;
      parts_[i].cost = chunk_cost_seed[i] > 0 ? chunk_cost_seed[i] : 1.0;
    }
  }

  /// Blocks until partition `i` may claim a chunk (virtual-time gate), then
  /// claims from its own front or a victim's tail. `has == false` means the
  /// pipeline holds no more work this partition can usefully take.
  Result<Claimed> Claim(size_t i) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (failed_) return Claimed{};
      if (cancel_ != nullptr) {
        Status cancelled = cancel_->Check();
        if (!cancelled.ok()) {
          failed_ = true;
          cv_.notify_all();
          return cancelled;
        }
      }
      Part& me = parts_[i];
      if (AtFront(i)) {
        if (me.next < me.end) {
          const size_t chunk = me.next++;
          me.charged = me.cost;
          me.t += me.charged;
          cv_.notify_all();
          return Claimed{true, chunk};
        }
        const int victim = allow_steal_ ? PickVictim(i) : -1;
        if (victim < 0) {
          me.live = false;
          cv_.notify_all();
          return Claimed{};
        }
        Part& v = parts_[static_cast<size_t>(victim)];
        const size_t chunk = --v.end;
        me.charged = me.cost;
        me.t += me.charged;
        ++me.stolen;
        obs::TraceInstant(
            obs::kHostTrack,
            "steal:" + names_[static_cast<size_t>(victim)] + "->" + names_[i],
            "{\"pipeline\":" + std::to_string(pipeline_index_) +
                ",\"chunk\":" + std::to_string(chunk) + "}");
        cv_.notify_all();
        return Claimed{true, chunk};
      }
      // Not this partition's simulated turn yet; the 1ms bound keeps the
      // wait responsive to cancellation and to clock corrections.
      cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
  }

  /// Folds one executed chunk back in: replaces the charged estimate with
  /// the device's observed timeline delta and refines the per-chunk cost.
  void Complete(size_t i, double observed_us) {
    std::lock_guard<std::mutex> lk(mu_);
    Part& me = parts_[i];
    me.t += observed_us - me.charged;
    me.charged = 0;
    me.cost = me.seen ? 0.5 * observed_us + 0.5 * me.cost
                      : (observed_us > 0 ? observed_us : me.cost);
    me.seen = true;
    ++me.run;
    cv_.notify_all();
  }

  /// Aborts the pipeline (a partition failed); waiters drain promptly.
  void Fail() {
    std::lock_guard<std::mutex> lk(mu_);
    failed_ = true;
    cv_.notify_all();
  }

  size_t run(size_t i) const { return parts_[i].run; }
  size_t stolen(size_t i) const { return parts_[i].stolen; }

 private:
  struct Part {
    size_t next = 0;
    size_t end = 0;
    double t = 0;        // virtual clock: simulated us of claimed chunks
    double cost = 1.0;   // per-chunk cost estimate (seeded, then observed)
    double charged = 0;  // estimate charged for the in-flight chunk
    bool seen = false;
    bool live = true;
    size_t run = 0;
    size_t stolen = 0;
  };

  /// Virtual-time gate: partition `i` claims only while no live partition
  /// carries a smaller clock (ties broken by index, so the order is total
  /// and the resulting assignment deterministic).
  bool AtFront(size_t i) const {
    const Part& me = parts_[i];
    for (size_t j = 0; j < parts_.size(); ++j) {
      if (j == i || !parts_[j].live) continue;
      if (parts_[j].t < me.t || (parts_[j].t == me.t && j < i)) return false;
    }
    return true;
  }

  /// The victim whose projected finish is latest — and only if the thief
  /// would finish the stolen chunk earlier than the victim would get to it.
  int PickVictim(size_t i) const {
    const Part& me = parts_[i];
    int best = -1;
    double best_finish = 0;
    for (size_t j = 0; j < parts_.size(); ++j) {
      if (j == i || parts_[j].next >= parts_[j].end) continue;
      const double unclaimed =
          static_cast<double>(parts_[j].end - parts_[j].next);
      const double finish = parts_[j].t + parts_[j].cost * unclaimed;
      if (best < 0 || finish > best_finish) {
        best = static_cast<int>(j);
        best_finish = finish;
      }
    }
    if (best < 0 || me.t + me.cost >= best_finish) return -1;
    return best;
  }

  const bool allow_steal_;
  CancelToken* const cancel_;
  const std::vector<std::string> names_;
  const size_t pipeline_index_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Part> parts_;
  bool failed_ = false;
};

/// One partition's chunk loop under the rebalancing pool: claim, execute,
/// fold the observed cost back in, repeat until the pool runs dry.
Status RunPartitionRebalanced(SubRun& sub, size_t pi, size_t cap,
                              StealPool& pool, size_t i) {
  const Pipeline& pipeline = sub.ctx->pipelines()[pi];
  Status st = sub.ctx->BeginPipeline(pipeline, cap);
  if (!st.ok()) {
    pool.Fail();
    return st;
  }
  for (;;) {
    auto claim = pool.Claim(i);
    if (!claim.ok()) return claim.status();
    if (!claim->has) return Status::OK();
    const sim::SimTime busy_before = sub.dev->busy().total();
    st = sub.ctx->RunChunks(pipeline, claim->chunk, claim->chunk + 1, cap);
    if (!st.ok()) {
      pool.Fail();
      return st;
    }
    const double observed =
        static_cast<double>(sub.dev->busy().total() - busy_before);
    sub.observed_us += observed;
    pool.Complete(i, observed);
  }
}

/// Advances every device past the slowest partition: a zero-duration entry
/// at the joint completion time on all three resource timelines models the
/// cross-device synchronization the host performs before merging.
Status ScheduleBarrier(DeviceManager* manager,
                       const std::vector<DeviceId>& devices) {
  sim::SimTime barrier = 0;
  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager->GetDevice(id));
    barrier = std::max(barrier, dev->MaxCompletion());
  }
  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev, manager->GetDevice(id));
    dev->Barrier(barrier);
  }
  return Status::OK();
}

/// Merges one breaker's per-partition containers and redistributes the
/// result. `contributors` are sub-run indices that executed at least one
/// chunk of the pipeline (a device with an empty range never ran the
/// breaker kernel, so its persist holds no identity to merge).
Status MergeBreaker(RunContext& parent, std::vector<SubRun>& subs,
                    const GraphNode& node,
                    const std::vector<size_t>& contributors) {
  if (!parent.graph()->IsTerminal(node.id) && subs.size() == 1) {
    // Single-partition run: the device already holds the only container
    // and its own next pipeline reads it in place — reading it back to the
    // host would be a pure D2H waste (a full hash table per pipeline).
    // With several partitions the round-trip is required even for a sole
    // contributor: the other devices may own chunks of later pipelines.
    return Status::OK();
  }
  std::vector<std::vector<uint8_t>> partials;
  partials.reserve(contributors.size());
  for (size_t i : contributors) {
    ADAMANT_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                             subs[i].ctx->ReadPersistBytes(node.id));
    partials.push_back(std::move(bytes));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> merged = std::move(partials[0]);
  for (size_t i = 1; i < partials.size(); ++i) {
    if (partials[i].size() != merged.size()) {
      return Status::Internal(node.label +
                              ": partition containers differ in size");
    }
    switch (node.kind) {
      // FUSED_AGG mirrors its terminal aggregate in config.agg_op, so the
      // per-partition int64 accumulators merge exactly like AGG_BLOCK.
      case PrimitiveKind::kFusedAgg:
      case PrimitiveKind::kAggBlock: {
        int64_t acc, part;
        std::memcpy(&acc, merged.data(), sizeof(acc));
        std::memcpy(&part, partials[i].data(), sizeof(part));
        acc = MergeAggPartials(node.config.agg_op, acc, part);
        std::memcpy(merged.data(), &acc, sizeof(acc));
        break;
      }
      case PrimitiveKind::kHashAgg:
        ADAMANT_RETURN_NOT_OK(
            MergeAggTables(node.config.agg_ops, partials[i].data(),
                           merged.size() / HashTableLayout::AggSlotBytes(
                                               node.config.agg_ops.size()),
                           merged.data())
                .WithContext(node.label));
        break;
      case PrimitiveKind::kHashBuild:
        ADAMANT_RETURN_NOT_OK(
            MergeBuildTables(partials[i].data(),
                             merged.size() /
                                 sizeof(HashTableLayout::BuildSlot),
                             merged.data())
                .WithContext(node.label));
        break;
      default:
        return Status::NotSupported(node.label +
                                    ": breaker kind has no partition merge");
    }
  }
  parent.exec().stats.merge_host_ms +=
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (parent.graph()->IsTerminal(node.id)) {
    // Terminal breaker: the merged container IS the query result; stash it
    // on the parent execution exactly as RetrieveBreaker would have.
    const Persist* persist = subs[contributors[0]].ctx->FindPersist(node.id);
    QueryExecution::NodeOutput& output =
        parent.exec().mutable_outputs()[node.id];
    output.kind = node.kind;
    output.num_slots = persist != nullptr ? persist->num_slots : 0;
    output.bytes = std::move(merged);
    return Status::OK();
  }

  // Interior breaker: every partition device consumes the merged container
  // in the next pipeline, so push it back out — except a sole contributor,
  // whose device already holds exactly these bytes.
  for (size_t i = 0; i < subs.size(); ++i) {
    if (contributors.size() == 1 && i == contributors[0]) continue;
    ADAMANT_RETURN_NOT_OK(
        subs[i].ctx->PlacePersistBytes(node.id, merged.data(), merged.size())
            .WithContext(node.label));
  }
  return Status::OK();
}

Status RunPartitioned(RunContext& ctx, std::vector<SubRun>& subs,
                      const std::vector<DeviceId>& devices,
                      const std::vector<double>& weights,
                      const std::vector<GraphPrice>& prices) {
  const std::vector<Pipeline>& pipelines = ctx.pipelines();
  const bool rebalance = ctx.options().split_rebalance && subs.size() > 1;
  std::vector<std::string> names;
  for (DeviceId id : devices) names.push_back(ctx.manager()->device(id)->name());
  for (size_t pi = 0; pi < pipelines.size(); ++pi) {
    const Pipeline& pipeline = pipelines[pi];
    const size_t cap = ctx.ChunkCapacity(pipeline);
    const ChunkSource chunks(pipeline.input_rows, cap);
    const auto ranges = SplitChunksWeighted(chunks.total(), weights);
    // Per-chunk cost seeds for the virtual clocks, from the planning
    // estimate (same units — simulated us — as the observed corrections).
    std::vector<double> seeds(subs.size(), 1.0);
    for (size_t i = 0; i < subs.size(); ++i) {
      seeds[i] = prices[i].pipeline_cost_us[pi] /
                 static_cast<double>(chunks.total());
    }
    // The parent holds the run's profile: the partitions run with
    // collect_profile off, and the parent's pipeline entry samples every
    // partition device at the boundaries, when the partition threads are
    // joined.
    ADAMANT_RETURN_NOT_OK(ctx.CheckCancel());
    ctx.OpenPipeline(static_cast<int>(pi));

    // Every partition runs its chunk sub-range concurrently — statically
    // when rebalancing is off, through the claim/steal pool when on. A
    // device with an empty range still runs BeginPipeline so its persists
    // exist to receive merged containers.
    StealPool pool(ranges, seeds, rebalance, ctx.options().cancel_token,
                   names, pi);
    std::vector<Status> statuses(subs.size());
    std::vector<std::thread> threads;
    threads.reserve(subs.size());
    for (size_t i = 0; i < subs.size(); ++i) {
      SubRun* sub = &subs[i];
      Status* status = &statuses[i];
      threads.emplace_back([sub, pi, cap, &pool, i, status] {
        *status = RunPartitionRebalanced(*sub, pi, cap, pool, i);
      });
    }
    for (std::thread& t : threads) t.join();
    // Chunks count before any status is checked, so a cancelled or failed
    // pipeline's entry holds the chunks it ran.
    for (size_t i = 0; i < subs.size(); ++i) {
      subs[i].chunks_run += pool.run(i);
      subs[i].chunks_stolen += pool.stolen(i);
      ctx.exec().stats.chunks += pool.run(i);
    }
    for (const Status& st : statuses) {
      ADAMANT_RETURN_NOT_OK(st);
    }

    // Host-side synchronization point before the merge.
    ADAMANT_RETURN_NOT_OK(ScheduleBarrier(ctx.manager(), devices));

    std::vector<size_t> contributors;
    for (size_t i = 0; i < subs.size(); ++i) {
      if (pool.run(i) > 0) contributors.push_back(i);
    }
    for (int node_id : pipeline.nodes) {
      const GraphNode& node = ctx.graph()->node(node_id);
      if (!GetSignature(node.kind).pipeline_breaker) continue;
      obs::TraceSpan merge_span;
      if (obs::TracingEnabled()) {
        merge_span.Start(obs::kHostTrack, "merge:" + node.label);
      }
      ADAMANT_RETURN_NOT_OK(MergeBreaker(ctx, subs, node, contributors));
    }
    for (SubRun& sub : subs) {
      ADAMANT_RETURN_NOT_OK(
          sub.ctx->BindPersistOutputs(sub.ctx->pipelines()[pi]));
    }
  }

  // Streaming terminal outputs: collect every partition's chunk parts and
  // restore global order by base row (each chunk ran exactly once on some
  // partition, so this is a concatenation-and-sort, not an interleave —
  // stealing moves whole chunks, never rows).
  for (SubRun& sub : subs) {
    for (auto& [node_id, out] : sub.ctx->exec().mutable_outputs()) {
      if (out.parts.empty()) continue;
      QueryExecution::NodeOutput& merged =
          ctx.exec().mutable_outputs()[node_id];
      merged.kind = out.kind;
      merged.elem_type = out.elem_type;
      for (QueryExecution::ChunkPart& part : out.parts) {
        merged.parts.push_back(std::move(part));
      }
      out.parts.clear();
    }
  }
  for (auto& [node_id, out] : ctx.exec().mutable_outputs()) {
    (void)node_id;
    std::sort(out.parts.begin(), out.parts.end(),
              [](const QueryExecution::ChunkPart& a,
                 const QueryExecution::ChunkPart& b) {
                return a.base_row < b.base_row;
              });
  }

  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev,
                             ctx.manager()->GetDevice(id));
    dev->Synchronize();
  }
  return Status::OK();
}

}  // namespace

Status RunDeviceParallel(RunContext& ctx) {
  // Resolve the partition device set: the options' set, or every plugged
  // device when unspecified.
  std::vector<DeviceId> devices = ctx.options().device_set;
  if (devices.empty()) {
    for (size_t i = 0; i < ctx.manager()->num_devices(); ++i) {
      devices.push_back(static_cast<DeviceId>(i));
    }
  }
  std::sort(devices.begin(), devices.end());
  devices.erase(std::unique(devices.begin(), devices.end()), devices.end());
  if (devices.empty()) {
    return Status::InvalidArgument(
        "device-parallel execution needs at least one device");
  }
  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(SimulatedDevice * dev,
                             ctx.manager()->GetDevice(id));
    (void)dev;
  }
  for (const GraphNode& node : ctx.graph()->nodes()) {
    if (node.kind == PrimitiveKind::kPrefixSum ||
        node.kind == PrimitiveKind::kSortAgg) {
      return Status::NotSupported(
          node.label +
          ": global breakers (PREFIX_SUM / SORT_AGG) have no partition "
          "merge; use a single-device model");
    }
  }

  // Cost-ratio partitioning: price the run's pipelines on every partition
  // device and split the chunk range proportionally to effective
  // throughput. Explicit shares (options.device_split, parallel to the
  // pre-sort device_set) override the model; the prices still seed the
  // rebalancer's virtual clocks.
  ADAMANT_RETURN_NOT_OK(ctx.Plan());
  std::vector<GraphPrice> prices;
  for (DeviceId id : devices) {
    ADAMANT_ASSIGN_OR_RETURN(GraphPrice price,
                             PriceGraph(*ctx.graph(), ctx.pipelines(),
                                        ctx.options(), ctx.manager(), id));
    prices.push_back(std::move(price));
  }
  std::vector<double> weights;
  if (!ctx.options().device_split.empty()) {
    std::map<DeviceId, double> by_device;
    const auto& set = ctx.options().device_set;
    for (size_t i = 0; i < set.size() && i < ctx.options().device_split.size();
         ++i) {
      by_device.emplace(set[i], ctx.options().device_split[i]);
    }
    for (DeviceId id : devices) {
      auto it = by_device.find(id);
      weights.push_back(it != by_device.end() ? it->second : 0.0);
    }
    weights = NormalizeSplit(std::move(weights), devices.size());
  } else {
    weights = ThroughputWeights(prices);
  }

  // An oversized device set collapses up front: a partition beyond the
  // largest pipeline's chunk count would run zero chunks in *every*
  // pipeline yet still pay BeginPipeline / persist setup and force breaker
  // round-trips. Keep the highest-share devices (ties to lower ids).
  size_t max_chunks = 1;
  for (size_t chunks : prices.front().pipeline_chunks) {
    max_chunks = std::max(max_chunks, chunks);
  }
  if (devices.size() > max_chunks) {
    std::vector<size_t> order(devices.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&weights](size_t a, size_t b) {
      return weights[a] != weights[b] ? weights[a] > weights[b] : a < b;
    });
    order.resize(max_chunks);
    std::sort(order.begin(), order.end());
    std::vector<DeviceId> kept_devices;
    std::vector<double> kept_weights;
    std::vector<GraphPrice> kept_prices;
    for (size_t i : order) {
      kept_devices.push_back(devices[i]);
      kept_weights.push_back(weights[i]);
      kept_prices.push_back(std::move(prices[i]));
    }
    devices = std::move(kept_devices);
    weights = NormalizeSplit(std::move(kept_weights), devices.size());
    prices = std::move(kept_prices);
  }

  ADAMANT_RETURN_NOT_OK(ctx.Prepare(devices));

  // One private graph clone + chunked RunContext per partition device. The
  // clone keeps the plan identical while retargeting every node, so each
  // sub-run is an ordinary single-device chunked execution.
  std::vector<SubRun> subs;
  subs.reserve(devices.size());
  Status st;
  for (DeviceId id : devices) {
    SubRun sub;
    sub.device = id;
    sub.dev = ctx.manager()->device(id);
    sub.graph = std::make_unique<PrimitiveGraph>(*ctx.graph());
    for (const GraphNode& node : ctx.graph()->nodes()) {
      sub.graph->mutable_node(node.id).device = id;
    }
    ExecutionOptions sub_options = ctx.options();
    sub_options.model = ExecutionModelKind::kChunked;
    sub_options.device_set.clear();
    sub_options.device_split.clear();
    // The parent holds the run's profile (see RunPartitioned). The
    // sub-run's Prepare resets its device again; nothing was booked on it
    // since the parent's.
    sub_options.collect_profile = false;
    sub.ctx = std::make_unique<RunContext>(ctx.manager(), sub.graph.get(),
                                           sub_options);
    st = sub.ctx->Prepare();
    subs.push_back(std::move(sub));
    if (!st.ok()) break;
  }

  if (st.ok()) st = RunPartitioned(ctx, subs, devices, weights, prices);

  // Fold partition accounting into the parent record on every path, before
  // its FinalizeStats (which adds, rather than assigns, exactly for this
  // composition): a cancelled or failed run reports what it ran. Chunks
  // were counted per pipeline.
  QueryStats& stats = ctx.exec().stats;
  stats.devices.resize(ctx.manager()->num_devices());
  size_t total_chunks = 0;
  for (const SubRun& sub : subs) total_chunks += sub.chunks_run;
  size_t stolen_total = 0;
  for (size_t i = 0; i < subs.size(); ++i) {
    const SubRun& sub = subs[i];
    const DataTransferHub& hub = sub.ctx->hub();
    stats.bytes_h2d += hub.bytes_host_to_device();
    stats.bytes_d2h += hub.bytes_device_to_host();
    stats.scan_cache_hits += hub.scan_cache_hits();
    stats.scan_cache_misses += hub.scan_cache_misses();
    stats.bytes_h2d_saved += hub.bytes_h2d_saved();
    DeviceRunStats& ds = stats.devices[static_cast<size_t>(sub.device)];
    ds.chunks = sub.chunks_run;
    ds.split_share = weights[i];
    ds.chunks_stolen = sub.chunks_stolen;
    if (total_chunks > 0) {
      ds.predicted_chunk_us =
          prices[i].cost_us / static_cast<double>(total_chunks);
    }
    if (sub.chunks_run > 0) {
      ds.observed_chunk_us =
          sub.observed_us / static_cast<double>(sub.chunks_run);
    }
    stolen_total += sub.chunks_stolen;
    // Prometheus exposition: the planned split per device and the
    // process-wide steal total (obs_test asserts both).
    obs::GlobalMetrics()
        .GetGauge("adamant_split_ratio", "device", sub.dev->name())
        ->Set(weights[i]);
  }
  obs::GlobalMetrics()
      .GetCounter("adamant_chunks_stolen_total")
      ->Add(static_cast<double>(stolen_total));

  // EXPLAIN ANALYZE: fold partition operator stats on every path — the
  // partial tree of a cancelled or failed run still finalizes in the
  // parent (sub-graphs are clones, so node ids line up).
  if (ctx.options().collect_operator_stats) {
    for (const SubRun& sub : subs) {
      ctx.MergeOperatorStats(sub.ctx->operator_stats());
    }
  }

  // Partition cleanup on every path; the parent context's own ReleaseAll
  // runs in QueryExecutor::Run.
  for (SubRun& sub : subs) sub.ctx->ReleaseAll();
  return st;
}

}  // namespace adamant::exec
