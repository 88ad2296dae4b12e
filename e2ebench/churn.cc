// churn-filtered: one caller runs a seeded, interleaved script of writes
// and reads against a mutable Corel-like L2 engine (d = 32, 68,040 initial
// points, 4 shards, background seal/compaction):
//
//   per round of 200 operations, in a per-seed shuffled order:
//     50 Insert of a held-out point (with its attribute row)
//     50 Remove of a random live id
//     25 unfiltered Query at r in {0.30, 0.35, 0.40}
//     25 filtered Query at ~1% selectivity, 25 at ~10%
//     25 two-radius RRF QueryFused (r = 0.30 and 0.40)
//
// Writes are half of the calls, as in the one-reader mixed phase of the
// repository's churn latency bench (about 5,000 writer ops/s beside 5,600
// queries/s); the four query kinds share the reads equally. Inserts and
// removes balance, so the live set stays at its initial size while
// tombstones and sealed segments pile up and compact. See README.md.
//
// Every answer is checked as it arrives: ids are unique, inside the radius
// by the benchmark's scalar distance, not removed before the query, and
// pass the predicate on the benchmark's own copy of the attributes; fused
// hits are unique and their scores non-increasing. The untimed rounds
// before and after the timed ones, and a pass of queries after the final
// Compact(), also check every non-fused answer against the oracle over
// every live id: shards that answered by linear scan are complete, and
// mean recall at radii up to the build radius holds, over all neighbours
// and over inserted ones alone. After Compact() the engine's size() is
// checked against the benchmark's own count.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/fusion.h"
#include "data/attributes.h"
#include "data/metric.h"
#include "data/quantized.h"
#include "data/synthetic.h"
#include "engine/search_engine.h"
#include "layers.h"
#include "lsh/families.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace e2e {
namespace {

constexpr size_t kInitialPoints = 68040;
constexpr size_t kInsertPool = 16000;
constexpr size_t kQueryPoints = 4096;
constexpr size_t kRegretPoints = 256;
constexpr size_t kCompactedCheckPoints = 64;
constexpr int kCheckedRounds = 8;  // untimed, before and after the timed ones
constexpr int kTracedRounds = 10;
constexpr uint64_t kCorpusSeed = 231;  // fixed corpus; --seed draws the rest
constexpr uint32_t kTagRange = 1000;  // tag uniform in [0, 1000)
constexpr double kBuildRadius = 0.35;
constexpr double kRadii[] = {0.30, 0.35, 0.40};
constexpr double kFusedRadii[2] = {0.30, 0.40};
constexpr double kFusedWeights[2] = {1.0, 0.5};

enum class Op { kInsert, kRemove, kQuery, kFilter1, kFilter10, kFused };

constexpr std::pair<Op, int> kRoundMix[] = {
    {Op::kInsert, 50},  {Op::kRemove, 50},   {Op::kQuery, 25},
    {Op::kFilter1, 25}, {Op::kFilter10, 25}, {Op::kFused, 25}};

using Family = lsh::PStableFamily;

/// The script's state and the benchmark's own copy of everything the
/// checks need: attributes, the live set, and which ids are dead.
class ChurnRun {
 public:
  explicit ChurnRun(const Args& args)
      : args_(args),
        rng_(DeriveSeed(args.seed, 5)),
        ranges_(ShardRanges(kInitialPoints, kShards)) {
    // The corpus, its insert pool and its query points are fixed; --seed
    // draws the attributes and the script (which query point, radius,
    // predicate and victim each operation uses, and the operation order).
    const data::DenseDataset full = data::MakeCorelLike(
        kInitialPoints + kInsertPool + kQueryPoints, 32, kCorpusSeed);
    std::vector<uint32_t> perm(full.size());
    std::iota(perm.begin(), perm.end(), 0);
    util::Rng corpus_rng(kCorpusSeed);
    Shuffle(&perm, &corpus_rng);
    auto take = [&](size_t from, size_t count) {
      return CopyRows(full, std::vector<uint32_t>(perm.begin() + from,
                                                  perm.begin() + from + count));
    };
    queries_ = take(0, kQueryPoints);
    pool_ = take(kQueryPoints, kInsertPool);
    base_ = take(kQueryPoints + kInsertPool, kInitialPoints);

    util::Rng tag_rng(DeriveSeed(args.seed, 6));
    attributes_.AddColumn("tag");
    for (size_t i = 0; i < base_.size(); ++i) AppendTag(&tag_rng);
    tag_rng_ = tag_rng;
    live_.resize(base_.size());
    std::iota(live_.begin(), live_.end(), 0);
    dead_.assign(base_.size(), false);

    for (const auto& [op, count] : kRoundMix) script_.insert(script_.end(), count, op);
    util::Rng script_rng(DeriveSeed(args.seed, 3));
    Shuffle(&script_, &script_rng);
  }

  RunResult Run() {
    RunResult result;
    // Latency buffers are touched before the memory baseline so their
    // growth does not count as engine memory.
    TimedRegion region;
    Timing timing;
    timing.plain_us.assign(1 << 18, 0.0);
    timing.plain_us.clear();
    const double rss_before = ResidentMb();
    engine::EngineOptions options =
        BaseEngineOptions(kBuildRadius, 6.0, DeriveSeed(args_.seed, 4));
    options.active_seal_threshold = 128;
    options.max_sealed_segments = 2;
    const int64_t setup_start = NowNs();
    auto built = engine::BuildMutableEngine(data::Metric::kL2, &base_, options);
    const double setup_s = (NowNs() - setup_start) / 1e9;
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n", built.status().message().c_str());
      result.correct = false;
      return result;
    }
    engine_ = std::move(*built);
    if (!engine_->AttachAttributes(&attributes_).ok()) check_.Fail("AttachAttributes");

    // Checked rounds (untimed), timed whole rounds, then checked rounds
    // again on the engine the timed rounds left behind.
    for (int r = 0; r < kCheckedRounds; ++r) RunRound(nullptr, nullptr);
    const int64_t budget = static_cast<int64_t>(args_.seconds * 1e9);
    region.Start();
    int64_t elapsed = 0;
    size_t rounds = 0;
    do {
      RunRound(&timing, &region);
      ++rounds;
      elapsed = region.EndRound();
    } while (elapsed < budget || region.queries() < TimedRegion::kBlockQueries);
    const TimedRegion::Figures figures = region.Summarize();
    const double rss_after = ResidentMb();
    for (int r = 0; r < kCheckedRounds; ++r) RunRound(nullptr, nullptr);
    result.attempted = timing.attempted;
    result.failed = timing.failed;

    LayerTotals totals;
    if (args_.trace) Trace(Percentile(timing.plain_us, 50), &totals);

    // The script ends with Compact(); then the size must add up, and a
    // pass of unfiltered queries at the build radius checks the compacted
    // engine against the oracle.
    const int64_t compact_start = NowNs();
    if (!engine_->Compact().ok()) check_.Fail("Compact");
    totals.compact_s = (NowNs() - compact_start) / 1e9;
    const size_t expected = kInitialPoints + inserted_ - removed_;
    if (engine_->size() != expected || live_.size() != expected) {
      check_.Fail("final size " + std::to_string(engine_->size()) +
                  " != initial + inserted - removed = " + std::to_string(expected));
    }
    for (uint32_t q = 0; q < kCompactedCheckPoints; ++q) {
      const Params p{q, kBuildRadius, std::nullopt};
      out_.clear();
      if (!engine_->Query(queries_.point(q), kBuildRadius, &out_, &stats_).ok()) {
        check_.Fail("query after Compact failed");
        continue;
      }
      CheckQuery(p, out_);
      CheckComplete(p);
    }
    CheckRecall(recall_, options.delta, recall_.count, "mean recall", &check_);
    CheckRecall(inserted_recall_, options.delta, inserted_recall_.count,
                "mean recall over inserted neighbours", &check_);

    std::fprintf(stderr,
                 "# churn-filtered seed=%llu rounds=%zu blocks=%zu ops=%llu wall_s=%.3f "
                 "busy_s=%.3f inserted=%zu removed=%zu final_size=%zu "
                 "recall=%.4f (n=%llu) inserted_recall=%.4f (n=%llu) "
                 "max_excess=%.3g\n",
                 static_cast<unsigned long long>(args_.seed), rounds, figures.blocks,
                 static_cast<unsigned long long>(timing.attempted), elapsed / 1e9,
                 timing.busy_ns / 1e9, inserted_, removed_, engine_->size(),
                 recall_.value(), static_cast<unsigned long long>(recall_.count),
                 inserted_recall_.value(),
                 static_cast<unsigned long long>(inserted_recall_.count),
                 check_.max_excess());
    std::fprintf(stderr,
                 "# mean us: insert %.1f remove %.1f query %.1f filter1 %.1f "
                 "filter10 %.1f fused %.1f\n",
                 timing.op_us[0].value(), timing.op_us[1].value(),
                 timing.op_us[2].value(), timing.op_us[3].value(),
                 timing.op_us[4].value(), timing.op_us[5].value());

    if (!args_.trace) {
      result.metrics = {
          {"ops_per_s", figures.ops_per_s, "ops/s"},
          {"query_p50_us", figures.p50_us, "us"},
          {"query_p99_us", figures.p99_us, "us"},
          {"neighbors_reported", figures.ids_per_s * args_.seconds, "count"},
          {"setup_s", setup_s, "s"},
          {"engine_rss_mb", rss_after - rss_before, "MB"},
      };
    } else {
      const auto& engine = AdaptedEngine<Family>(*engine_);
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        totals.compactions += engine.shard_index(s).lifecycle().compactions;
      }
      const engine::EngineStats stats = engine_->stats();
      totals.index_bytes = static_cast<double>(stats.index_bytes);
      totals.mirror_bytes = static_cast<double>(stats.mirror_bytes);
      totals.recall = recall_;
      Regret(options, &totals);
      result.metrics = LayerMetrics(totals);
    }
    result.correct = check_.ok();
    return result;
  }

 private:
  struct Timing {
    uint64_t attempted = 0, failed = 0;
    int64_t busy_ns = 0;  // inside facade calls, for the progress line
    std::vector<double> plain_us;  // non-fused queries, for trace.overhead_us
    Mean op_us[6];  // by Op, for the progress line
  };

  /// One operation's parameters, drawn from the script's stream.
  struct Params {
    uint32_t point = 0;
    double radius = 0.0;
    std::optional<data::Predicate> predicate;
  };

  template <typename T>
  static void Shuffle(std::vector<T>* v, util::Rng* rng) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(
                                 rng->UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
  }

  void AppendTag(util::Rng* rng) {
    const uint32_t tag = static_cast<uint32_t>(rng->UniformInt(0, kTagRange - 1));
    tags_.push_back(tag);
    attributes_.AppendRow(std::span<const uint32_t>(&tag, 1));
  }

  bool Passes(const data::Predicate& predicate, uint32_t id) const {
    const auto& term = predicate.all_of[0];
    return tags_[id] >= term.lo && tags_[id] <= term.hi;
  }

  /// The shard that owns `id`: initial ids by contiguous range, inserted
  /// ids round-robin in insert order.
  size_t ShardOf(uint32_t id) const {
    if (id >= kInitialPoints) return (id - kInitialPoints) % kShards;
    size_t s = 0;
    while (id >= ranges_[s].second) ++s;
    return s;
  }

  Params Draw(Op op) {
    Params p;
    p.point = static_cast<uint32_t>(rng_.UniformInt(0, kQueryPoints - 1));
    p.radius = kRadii[rng_.UniformInt(0, 2)];
    if (op == Op::kFilter1 || op == Op::kFilter10) {
      const uint32_t width = op == Op::kFilter1 ? kTagRange / 100 : kTagRange / 10;
      const uint32_t lo = static_cast<uint32_t>(rng_.UniformInt(0, kTagRange - width));
      p.predicate = data::Predicate::Between(0, lo, lo + width - 1);
    }
    return p;
  }

  static engine::QuerySpec FusedSpec() {
    engine::QuerySpec spec;
    for (int j = 0; j < 2; ++j) {
      spec.subqueries.push_back({kFusedRadii[j], kFusedWeights[j], std::nullopt, false});
    }
    spec.fusion.mode = core::FusionMode::kRrf;
    return spec;
  }

  /// Inserts the next held-out point with its attribute row; returns the
  /// new id, or nothing if the facade call failed. `ns` gets the call's
  /// duration.
  std::optional<uint32_t> InsertNext(int64_t* ns) {
    const float* point = pool_.point(next_insert_++ % pool_.size());
    const size_t expected_id = base_.size();
    AppendTag(&tag_rng_);
    const int64_t t0 = NowNs();
    auto id = engine_->Insert(point);
    *ns = NowNs() - t0;
    if (!id.ok()) return std::nullopt;
    if (*id != expected_id) check_.Fail("Insert returned an unexpected id");
    live_.push_back(*id);
    dead_.push_back(false);
    ++inserted_;
    return *id;
  }

  /// Removes a random live id; false if the facade call failed.
  bool RemoveRandom(int64_t* ns) {
    const size_t at = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(live_.size()) - 1));
    const uint32_t id = live_[at];
    const int64_t t0 = NowNs();
    const util::Status status = engine_->Remove(id);
    *ns = NowNs() - t0;
    if (!status.ok()) return false;
    live_[at] = live_.back();
    live_.pop_back();
    dead_[id] = true;
    ++removed_;
    return true;
  }

  /// Runs the script's operations once. `timing` and `region` null = an
  /// untimed round, in which every non-fused answer also gets the full
  /// oracle check.
  void RunRound(Timing* timing, TimedRegion* region) {
    for (const Op op : script_) {
      int64_t ns = 0;
      bool ok = true;
      size_t returned = 0;
      if (op == Op::kInsert) {
        ok = InsertNext(&ns).has_value();
      } else if (op == Op::kRemove) {
        ok = RemoveRandom(&ns);
      } else if (op == Op::kFused) {
        const Params p = Draw(op);
        fused_.clear();
        const int64_t t0 = NowNs();
        const util::Status status =
            engine_->QueryFused(queries_.point(p.point), FusedSpec(), &fused_, &stats_);
        ns = NowNs() - t0;
        ok = status.ok();
        if (ok) CheckFused(p);
        returned = fused_.size();
      } else {
        const Params p = Draw(op);
        engine::QuerySpec spec = engine::QuerySpec::Radius(p.radius);
        if (p.predicate) spec.predicate = &*p.predicate;
        out_.clear();
        const int64_t t0 = NowNs();
        const util::Status status =
            engine_->Query(queries_.point(p.point), spec, &out_, &stats_);
        ns = NowNs() - t0;
        ok = status.ok();
        if (ok) {
          CheckQuery(p, out_);
          if (timing == nullptr) CheckComplete(p);
        }
        returned = out_.size();
      }
      if (!ok) check_.Fail("facade call returned a non-OK status");
      if (timing == nullptr) continue;
      ++timing->attempted;
      if (!ok) {
        ++timing->failed;
        continue;
      }
      timing->busy_ns += ns;
      timing->op_us[static_cast<int>(op)].Add(ns / 1e3);
      region->AddOps(1, returned);
      if (op != Op::kInsert && op != Op::kRemove) region->AddQuery(ns / 1e3);
      if (op == Op::kQuery || op == Op::kFilter1 || op == Op::kFilter10) {
        timing->plain_us.push_back(ns / 1e3);
      }
    }
  }

  double Distance(uint32_t point, uint32_t id) const {
    return OracleL2(queries_.point(point), base_.point(id), base_.dim());
  }

  /// Starts the duplicate check of one answer.
  void NewEpoch() {
    if (stamp_.size() < base_.size()) stamp_.resize(base_.size() + kInsertPool, 0);
    ++epoch_;
  }

  /// Shared per-id checks; returns false if the id is unusable.
  bool CheckId(uint32_t id, const char* what) {
    if (id >= base_.size()) {
      check_.Fail(std::string(what) + ": id out of range");
      return false;
    }
    if (stamp_[id] == epoch_) check_.Fail(std::string(what) + ": id reported twice");
    stamp_[id] = epoch_;
    if (dead_[id]) check_.Fail(std::string(what) + ": removed id reported");
    return true;
  }

  void CheckQuery(const Params& p, std::span<const uint32_t> ids) {
    NewEpoch();
    for (const uint32_t id : ids) {
      if (!CheckId(id, "query")) continue;
      const double excess = Distance(p.point, id) - p.radius;
      if (excess > kRadiusTolerance) check_.Fail("query: id outside radius");
      check_.NoteExcess(excess);
      if (p.predicate && !Passes(*p.predicate, id)) {
        check_.Fail("filtered query: id fails the predicate");
      }
    }
  }

  /// The full check of the non-fused answer in out_/stats_ (after
  /// CheckQuery) against the oracle over every live id: each shard's slice
  /// of the answer holds only its own ids, a shard that answered by linear
  /// scan reports every live id of its own that is clearly inside the
  /// radius and passes the predicate, and unfiltered answers at radii up to
  /// the build radius add to the recall means.
  void CheckComplete(const Params& p) {
    if (stats_.per_shard.size() != kShards) {
      check_.Fail("missing per-shard stats");
      return;
    }
    size_t offset = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const size_t count = stats_.per_shard[s].output_size;
      if (offset + count > out_.size()) {
        check_.Fail("per-shard counts exceed the result");
        return;
      }
      for (size_t k = offset; k < offset + count; ++k) {
        if (out_[k] < base_.size() && ShardOf(out_[k]) != s) {
          check_.Fail("id in the wrong shard's slice");
        }
      }
      offset += count;
    }
    if (offset != out_.size()) check_.Fail("per-shard counts do not add up");

    size_t truth = 0, found = 0, inserted_truth = 0, inserted_found = 0;
    bool missed = false;
    for (const uint32_t id : live_) {
      if (p.predicate && !Passes(*p.predicate, id)) continue;
      const double d = Distance(p.point, id);
      if (d > p.radius) continue;
      const bool reported = stamp_[id] == epoch_;
      if (!reported && d <= p.radius - kRadiusTolerance &&
          stats_.per_shard[ShardOf(id)].strategy == core::Strategy::kLinear) {
        missed = true;
      }
      ++truth;
      found += reported;
      if (id >= kInitialPoints) {
        ++inserted_truth;
        inserted_found += reported;
      }
    }
    if (missed) check_.Fail("linear shard missed a live in-range id");
    if (p.predicate || p.radius > kBuildRadius + 1e-12) return;
    if (truth > 0) recall_.Add(static_cast<double>(found) / truth);
    if (inserted_truth > 0) {
      inserted_recall_.Add(static_cast<double>(inserted_found) / inserted_truth);
    }
  }

  void CheckFused(const Params& p) {
    NewEpoch();
    for (size_t k = 0; k < fused_.size(); ++k) {
      const core::FusedHit& hit = fused_[k];
      if (!CheckId(hit.id, "fused")) continue;
      if (k > 0 && hit.score > fused_[k - 1].score) {
        check_.Fail("fused: scores not in non-increasing order");
      }
      const double excess = Distance(p.point, hit.id) - kFusedRadii[1];
      if (excess > kRadiusTolerance) check_.Fail("fused: id outside every radius");
      check_.NoteExcess(excess);
    }
  }

  void Trace(double untraced_p50_us, LayerTotals* totals);
  void Regret(const engine::EngineOptions& options, LayerTotals* totals);

  Args args_;
  util::Rng rng_;
  util::Rng tag_rng_{1};
  std::vector<std::pair<size_t, size_t>> ranges_;  // initial ids per shard
  data::DenseDataset base_, pool_, queries_;
  data::AttributeStore attributes_;
  std::vector<uint32_t> tags_;
  std::vector<uint32_t> live_;  // unordered; removes swap with the back
  std::vector<bool> dead_;
  std::vector<Op> script_;
  size_t next_insert_ = 0, inserted_ = 0, removed_ = 0;
  std::unique_ptr<engine::SearchEngine> engine_;
  std::vector<uint32_t> out_;
  std::vector<core::FusedHit> fused_;
  engine::ShardedQueryStats stats_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  Mean recall_, inserted_recall_;
  Checker check_;
};

/// Traced rounds: the same script, each query replayed through the layer
/// functions right after its facade call (background maintenance drained
/// first, so both see one engine state), filters rebuilt from the
/// benchmark's attributes and dead set, fused queries re-merged from their
/// subqueries with FuseScoredLists.
void ChurnRun::Trace(double untraced_p50_us, LayerTotals* totals) {
  auto& engine = AdaptedEngine<Family>(*engine_);
  SpanLog spans;
  data::QuantizedMirror mirror = data::QuantizedMirror::Build(base_);
  LayerTracer<Family> tracer(engine, base_, mirror, &spans);
  util::BitVector filter, dead_bits;
  std::vector<double> facade_us;
  QueryTrace trace;
  core::FusionScratch fusion_scratch;
  std::vector<core::FusedHit> refused;
  std::vector<core::ScoredList> lists(2);
  uint32_t request = 0;
  for (int round = 0; round < kTracedRounds; ++round) {
    for (const Op op : script_) {
      ++request;
      int64_t ns = 0;
      if (op == Op::kInsert) {
        const int64_t t0 = NowNs();
        const std::optional<uint32_t> id = InsertNext(&ns);
        spans.Add(request, 0, "engine.insert", t0, t0 + ns);
        if (!id) {
          check_.Fail("traced insert failed");
          continue;
        }
        totals->insert_us.Add(ns / 1e3);
        mirror.AppendRow(base_.point(*id));
        continue;
      }
      if (op == Op::kRemove) {
        const int64_t t0 = NowNs();
        const bool removed = RemoveRandom(&ns);
        spans.Add(request, 0, "engine.remove", t0, t0 + ns);
        if (!removed) {
          check_.Fail("traced remove failed");
          continue;
        }
        totals->remove_us.Add(ns / 1e3);
        continue;
      }

      engine.DrainMaintenance();
      const Params p = Draw(op);
      const float* query = queries_.point(p.point);
      if (op == Op::kFused) {
        const engine::QuerySpec spec = FusedSpec();
        fused_.clear();
        const int64_t t0 = NowNs();
        const util::Status status = engine_->QueryFused(query, spec, &fused_, &stats_);
        const int64_t t1 = NowNs();
        const uint32_t root = spans.Add(request, 0, "engine.query_fused", t0, t1, fused_.size());
        if (!status.ok()) {
          check_.Fail("traced fused query failed");
          continue;
        }
        CheckFused(p);
        // Score stage inputs: each subquery's ids with the engine's scalar
        // reference distances, then the merge under test.
        for (int j = 0; j < 2; ++j) {
          lists[j].weight = kFusedWeights[j];
          lists[j].ids.clear();
          lists[j].distances.clear();
          if (!engine_->Query(query, kFusedRadii[j], &lists[j].ids).ok()) {
            check_.Fail("fused subquery failed");
          }
          for (const uint32_t id : lists[j].ids) {
            lists[j].distances.push_back(
                data::L2Distance(query, base_.point(id), base_.dim()));
          }
        }
        const int64_t m0 = NowNs();
        const util::Status merged =
            core::FuseScoredLists(lists, spec.fusion, &fusion_scratch, &refused);
        const int64_t m1 = NowNs();
        spans.Add(request, root, "core.fusion_merge", m0, m1, refused.size());
        totals->fusion_merge_us.Add((m1 - m0) / 1e3);
        bool same = merged.ok() && refused.size() == fused_.size();
        for (size_t k = 0; same && k < refused.size(); ++k) {
          same = refused[k].id == fused_[k].id && refused[k].score == fused_[k].score;
        }
        if (!same) check_.Fail("re-merged fused hits differ from the facade's");
        continue;
      }

      engine::QuerySpec spec = engine::QuerySpec::Radius(p.radius);
      if (p.predicate) spec.predicate = &*p.predicate;
      out_.clear();
      const int64_t t0 = NowNs();
      const util::Status status = engine_->Query(query, spec, &out_, &stats_);
      const int64_t t1 = NowNs();
      const uint32_t root = spans.Add(request, 0, "engine.query", t0, t1, out_.size());
      if (!status.ok()) {
        check_.Fail("traced query failed");
        continue;
      }
      facade_us.push_back((t1 - t0) / 1e3);
      CheckQuery(p, out_);
      CheckComplete(p);

      const util::BitVector* composed = nullptr;
      double selectivity = 1.0;
      int64_t filter_ns = 0;
      if (p.predicate) {
        dead_bits.Resize(base_.size());
        dead_bits.ClearAll();
        for (size_t id = 0; id < base_.size(); ++id) {
          if (dead_[id]) dead_bits.Set(id);
        }
        const int64_t f0 = NowNs();
        data::EvaluateFilter(attributes_, *p.predicate, base_.size(), &filter);
        filter.AndWithNot(dead_bits);
        const int64_t f1 = NowNs();
        filter_ns = f1 - f0;
        const size_t survivors = filter.Count();
        spans.Add(request, root, "data.filter", f0, f1, survivors);
        composed = &filter;
        selectivity = std::min(1.0, static_cast<double>(survivors) / live_.size());
        if (selectivity != stats_.filter_selectivity) {
          check_.Fail("re-derived filter selectivity differs from the facade's");
        }
        totals->filter_us.Add(filter_ns / 1e3);
        totals->filter_selectivity.Add(stats_.filter_selectivity);
      }
      tracer.Replay(request, root, query, p.radius, composed, selectivity, stats_,
                    out_, &check_, &trace);
      totals->AddQuery(trace, stats_, t1 - t0, filter_ns);
    }
  }
  totals->trace_overhead_us = Percentile(facade_us, 50) - untraced_p50_us;
  WriteTrace(args_, spans);
}

/// Regret on the final (compacted) state: the first kRegretPoints query
/// points at every unfiltered radius, on this engine and on forced-LSH and
/// forced-linear engines built over the same points with the same ids
/// removed.
void ChurnRun::Regret(const engine::EngineOptions& options, LayerTotals* totals) {
  std::vector<Pair> pairs;
  for (uint32_t q = 0; q < kRegretPoints; ++q) {
    for (const double r : kRadii) pairs.push_back(Pair{q, r});
  }
  std::vector<uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  const ForcedBuilder build_forced = [&](core::ForcedStrategy mode)
      -> util::StatusOr<std::unique_ptr<engine::SearchEngine>> {
    engine::EngineOptions forced_options = options;
    forced_options.searcher.forced = mode;
    auto built = engine::BuildEngine(data::Metric::kL2, &base_, forced_options);
    if (!built.ok()) return built;
    for (uint32_t id = 0; id < base_.size(); ++id) {
      if (dead_[id] && !(*built)->Remove(id).ok()) check_.Fail("forced remove failed");
    }
    if (!(*built)->Compact().ok()) check_.Fail("forced compact failed");
    return built;
  };
  RegretPass(*engine_, build_forced, queries_, pairs, order,
             [&](RegretEngine, size_t p, const std::vector<uint32_t>& answer,
                 const engine::ShardedQueryStats&) {
               CheckQuery(Params{pairs[p].point, pairs[p].radius, std::nullopt}, answer);
             },
             &check_, totals);
}

}  // namespace

RunResult RunChurn(const Args& args) {
  ChurnRun run(args);
  return run.Run();
}

}  // namespace e2e
