// The traced run's second path to each answer: re-executes one query
// through the public layer functions the engine itself composes —
//
//   lsh    FunctionSet::ComputePlan (via shard 0's index), then per shard
//          SegmentSnapshot::CollectCandidates
//   hll    SegmentSnapshot::EstimateProbe
//   core   CostModel::CorrectedLshCost / LinearCost (the decision), then
//          kernels::VerifyBlock and kernels::VerifyBlockQuantized on the
//          same candidate list
//
// — timing every call as a span, re-deriving each shard's strategy with the
// engine's own CostModel and checking it against the facade's
// ShardedQueryStats, and checking that every shard's ids equal the slice
// the facade returned for it. The float and int8 verify tiers must also
// agree with each other bit for bit.

#ifndef HLSH_E2EBENCH_LAYERS_H_
#define HLSH_E2EBENCH_LAYERS_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/kernels.h"
#include "data/quantized.h"
#include "engine/search_engine.h"
#include "lsh/index.h"
#include "util/bit_vector.h"

namespace e2e {

/// Per-shard layer record of one replayed query.
struct ShardTrace {
  core::Strategy strategy = core::Strategy::kLsh;
  int64_t estimate_ns = 0;
  int64_t gather_ns = 0;  // CollectCandidates (LSH) or live-id walk (linear)
  int64_t verify_float_ns = 0;
  int64_t verify_int8_ns = 0;
  size_t candidates = 0;  // ids handed to the verify kernels
  size_t distances = 0;   // of those, the ones that reached a distance check
  size_t reported = 0;
};

struct QueryTrace {
  int64_t plan_ns = 0;
  /// plan + the slowest shard's estimate + gather + int8 verify: the
  /// traced layer time on the query's blocking path (the engine runs the
  /// shards in parallel and verifies through the int8 tier).
  int64_t critical_ns = 0;
  std::vector<ShardTrace> shards;
};

template <typename Family>
class LayerTracer {
 public:
  using Adapter = engine::ShardedEngineAdapter<Family, data::DenseDataset>;
  using Engine = typename Adapter::Engine;

  /// `mirror` is the tracer's own int8 mirror of `dataset` (kept in step
  /// with inserts by the caller).
  LayerTracer(const Engine& engine, const data::DenseDataset& dataset,
              const data::QuantizedMirror& mirror, SpanLog* spans)
      : engine_(engine),
        dataset_(dataset),
        mirror_(mirror),
        spans_(spans),
        merged_(engine.shard_index(0).MakeScratchSketch()) {}

  /// Replays one non-fused query. `filter` is the composed predicate ∧
  /// ¬tombstone bitmap (null when unfiltered) and `selectivity` its
  /// survivors / live, both as the facade derived them. `facade_out` and
  /// `facade` are the facade's answer to the same query on the same
  /// engine state.
  void Replay(uint32_t request, uint32_t parent, const float* query,
              double radius, const util::BitVector* filter, double selectivity,
              const engine::ShardedQueryStats& facade,
              std::span<const uint32_t> facade_out, Checker* check,
              QueryTrace* trace) {
    const core::CostModel& model = engine_.options().searcher.cost_model;
    const data::Metric metric = engine_.shard_index(0).family().metric();
    const size_t num_shards = engine_.num_shards();
    trace->shards.assign(num_shards, ShardTrace{});
    if (facade.per_shard.size() != num_shards) {
      check->Fail("facade stats do not cover every shard");
      return;
    }

    int64_t t0 = NowNs();
    const util::Status planned = engine_.shard_index(0).ComputePlan(
        query, engine_.options().searcher.probes_per_table, &plan_scratch_,
        &plan_);
    int64_t t1 = NowNs();
    if (!planned.ok()) {
      check->Fail("ComputePlan: " + planned.message());
      return;
    }
    trace->plan_ns = t1 - t0;
    spans_->Add(request, parent, "lsh.plan", t0, t1, plan_.keys.size());

    int64_t slowest_shard_ns = 0;
    size_t offset = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      ShardTrace& st = trace->shards[s];
      const auto& index = engine_.shard_index(s);
      const auto snapshot = index.Acquire();
      if (visited_.capacity() < snapshot.id_bound()) {
        visited_.Resize(snapshot.id_bound());
      }

      t0 = NowNs();
      const lsh::ProbeEstimate estimate =
          snapshot.EstimateProbe(plan_, &merged_);
      t1 = NowNs();
      st.estimate_ns = t1 - t0;
      spans_->Add(request, parent, "hll.estimate", t0, t1,
                  estimate.collisions);

      const core::LiveStats live = index.live_stats();
      const double lsh_cost = model.CorrectedLshCost(
          estimate.collisions, estimate.cand_estimate, live, selectivity);
      const double linear_cost = model.LinearCost(live.live, selectivity);
      st.strategy = lsh_cost < linear_cost ? core::Strategy::kLsh
                                           : core::Strategy::kLinear;
      if (st.strategy != facade.per_shard[s].strategy) {
        check->Fail("shard " + std::to_string(s) +
                    ": re-derived strategy differs from the facade's");
      }

      // Gather. The LSH path verifies through the filter's bit test; the
      // linear path enumerates filter survivors directly.
      std::span<const uint32_t> candidates;
      const util::BitVector* verify_filter = nullptr;
      t0 = NowNs();
      if (st.strategy == core::Strategy::kLsh) {
        visited_.Reset();
        snapshot.CollectCandidates(plan_, &visited_);
        candidates = visited_.touched();
        verify_filter = filter;
      } else {
        live_ids_.clear();
        auto push = [&](uint32_t id) { live_ids_.push_back(id); };
        if (filter != nullptr) {
          snapshot.ForEachLiveIdFiltered(*filter, push);
        } else {
          snapshot.ForEachLiveId(push);
        }
        candidates = live_ids_;
      }
      t1 = NowNs();
      st.gather_ns = t1 - t0;
      spans_->Add(request, parent,
                  st.strategy == core::Strategy::kLsh ? "lsh.gather"
                                                      : "engine.live_walk",
                  t0, t1, candidates.size());

      st.candidates = candidates.size();
      st.distances = candidates.size();
      if (verify_filter != nullptr) {
        st.distances = 0;
        for (const uint32_t id : candidates) {
          st.distances += id < verify_filter->size() && verify_filter->Get(id);
        }
      }

      out_float_.clear();
      t0 = NowNs();
      core::kernels::VerifyBlock(dataset_, metric, query, candidates, radius,
                                 &out_float_, verify_filter);
      t1 = NowNs();
      st.verify_float_ns = t1 - t0;
      spans_->Add(request, parent, "core.verify_float", t0, t1,
                  candidates.size());

      out_int8_.clear();
      t0 = NowNs();
      core::kernels::VerifyBlockQuantized(dataset_, mirror_, metric, query,
                                          candidates, radius, &out_int8_,
                                          nullptr, verify_filter);
      t1 = NowNs();
      st.verify_int8_ns = t1 - t0;
      spans_->Add(request, parent, "core.verify_int8", t0, t1,
                  candidates.size());
      st.reported = out_int8_.size();

      if (out_float_ != out_int8_) {
        check->Fail("shard " + std::to_string(s) +
                    ": VerifyBlockQuantized differs from VerifyBlock");
      }
      const size_t count = facade.per_shard[s].output_size;
      if (offset + count > facade_out.size()) {
        check->Fail("facade per-shard output sizes exceed its result");
        return;
      }
      sorted_a_.assign(facade_out.begin() + offset,
                       facade_out.begin() + offset + count);
      sorted_b_.assign(out_int8_.begin(), out_int8_.end());
      std::sort(sorted_a_.begin(), sorted_a_.end());
      std::sort(sorted_b_.begin(), sorted_b_.end());
      if (sorted_a_ != sorted_b_) {
        check->Fail("shard " + std::to_string(s) +
                    ": re-executed ids differ from the facade's (" +
                    std::to_string(count) + " vs " +
                    std::to_string(sorted_b_.size()) + ")");
      }
      offset += count;
      slowest_shard_ns = std::max(
          slowest_shard_ns, st.estimate_ns + st.gather_ns + st.verify_int8_ns);
    }
    if (offset != facade_out.size()) {
      check->Fail("facade per-shard output sizes do not add up");
    }
    trace->critical_ns = trace->plan_ns + slowest_shard_ns;
  }

 private:
  const Engine& engine_;
  const data::DenseDataset& dataset_;
  const data::QuantizedMirror& mirror_;
  SpanLog* spans_;
  lsh::PlanScratch plan_scratch_;
  lsh::ProbePlan plan_;
  hll::HyperLogLog merged_;
  util::VisitedSet visited_;
  std::vector<uint32_t> live_ids_;
  std::vector<uint32_t> out_float_, out_int8_;
  std::vector<uint32_t> sorted_a_, sorted_b_;
};

/// Per-layer accumulators of one traced run. Fields a workload never
/// exercises stay at zero and are reported as 0.
struct LayerTotals {
  Mean plan_us, collisions, gather_us, estimate_us, cand_rel_error, distances,
      self_us, fusion_merge_us, filter_us, filter_selectivity, insert_us,
      remove_us, recall;
  uint64_t lsh_collisions = 0;  // collisions of LSH-answered shards
  uint64_t lsh_candidates = 0;  // their distinct candidates
  uint64_t shard_decisions = 0;
  uint64_t linear_decisions = 0;
  double verify_float_ns = 0.0, verify_int8_ns = 0.0;
  uint64_t verify_candidates = 0;
  uint64_t verified = 0;  // candidates that reached a distance check
  uint64_t reported = 0;
  double regret_share = 0.0;
  double hybrid_over_best = 0.0;
  double compactions = 0.0;
  double compact_s = 0.0;
  double index_bytes = 0.0;
  double mirror_bytes = 0.0;
  double trace_overhead_us = 0.0;

  /// Folds one replayed non-fused query: its layer trace, the facade's
  /// stats for it, and the facade call's own duration.
  void AddQuery(const QueryTrace& trace, const engine::ShardedQueryStats& facade,
                int64_t facade_ns, int64_t filter_ns) {
    plan_us.Add(trace.plan_ns / 1e3);
    collisions.Add(static_cast<double>(facade.collisions));
    double gather = 0.0, estimate = 0.0;
    size_t query_distances = 0;
    for (size_t s = 0; s < trace.shards.size(); ++s) {
      const ShardTrace& st = trace.shards[s];
      const core::QueryStats& fs = facade.per_shard[s];
      estimate += st.estimate_ns / 1e3;
      ++shard_decisions;
      if (fs.strategy == core::Strategy::kLsh) {
        gather += st.gather_ns / 1e3;
        lsh_collisions += fs.collisions;
        lsh_candidates += fs.cand_actual;
        if (fs.cand_actual > 0) {
          cand_rel_error.Add(std::abs(fs.cand_estimate -
                                      static_cast<double>(fs.cand_actual)) /
                             static_cast<double>(fs.cand_actual));
        }
      } else {
        ++linear_decisions;
      }
      verify_float_ns += static_cast<double>(st.verify_float_ns);
      verify_int8_ns += static_cast<double>(st.verify_int8_ns);
      verify_candidates += st.candidates;
      query_distances += st.distances;
      reported += st.reported;
    }
    verified += query_distances;
    gather_us.Add(gather);
    estimate_us.Add(estimate);
    distances.Add(static_cast<double>(query_distances));
    self_us.Add((facade_ns - filter_ns - trace.critical_ns) / 1e3);
  }
};

/// The per-layer metrics of a traced run, in BENCHMARK.json's order.
std::vector<Metric> LayerMetrics(const LayerTotals& t);

/// One radius query: a row of the workload's query points and a radius.
struct Pair {
  uint32_t point;
  double radius;
};

/// The engine a regret-pass answer came from.
enum class RegretEngine { kHybrid, kForcedLsh, kForcedLinear };

/// Builds an engine over the workload's data with the given forced strategy.
using ForcedBuilder = std::function<util::StatusOr<std::unique_ptr<engine::SearchEngine>>(
    core::ForcedStrategy)>;

/// Checks one regret-pass answer (pair index, ids, the facade's stats).
using RegretAnswerCheck =
    std::function<void(RegretEngine, size_t, const std::vector<uint32_t>&,
                       const engine::ShardedQueryStats&)>;

/// Regret pass: every pair, in `order`, on `hybrid` and on forced-LSH and
/// forced-linear engines from `build_forced` (one alive at a time), two
/// passes each, minimum latency per pair. Sets `totals->regret_share` (pairs
/// on which the hybrid was slower than the faster forced engine) and
/// `totals->hybrid_over_best` (hybrid total ÷ the smaller forced total, as
/// in Fig. 2).
void RegretPass(engine::SearchEngine& hybrid, const ForcedBuilder& build_forced,
                const data::DenseDataset& queries, const std::vector<Pair>& pairs,
                const std::vector<uint32_t>& order,
                const RegretAnswerCheck& check_answer, Checker* check,
                LayerTotals* totals);

/// The adapted engine behind a facade built by BuildEngine /
/// BuildMutableEngine for `Family` over dense data (the traced run reads
/// per-shard state the facade does not expose).
template <typename Family>
const typename LayerTracer<Family>::Engine& AdaptedEngine(
    const engine::SearchEngine& facade) {
  return dynamic_cast<const typename LayerTracer<Family>::Adapter&>(facade)
      .engine();
}

template <typename Family>
typename LayerTracer<Family>::Engine& AdaptedEngine(engine::SearchEngine& facade) {
  return dynamic_cast<typename LayerTracer<Family>::Adapter&>(facade).engine();
}

}  // namespace e2e

#endif  // HLSH_E2EBENCH_LAYERS_H_
