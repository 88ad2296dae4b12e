// The two read-only workloads: one closed-loop caller sends radius queries
// through the SearchEngine facade.
//
//   corel-lsh     MakeCorelLike (L2, d = 32, n ~ 68k), radii 0.35..0.60
//                 around a build radius of 0.45. Cache-resident: the LSH,
//                 HLL and fan-out layers do most of the work.
//   webspam-dram  MakeWebspamLike (cosine, d = 254, n ~ 350k, 355 MB of
//                 floats), radii 0.05..0.10. DRAM-resident: the verify
//                 kernels and the hybrid decision do most of the work.
//
// A run: generate inputs from the seed, compute the oracle (scalar double
// distances from every query point to every base point), build the engine
// (timed: setup_s), run one warm-up round in which every answer is checked
// in full against the oracle, then time whole rounds until --seconds have
// passed. Every timed answer must reproduce its warm-up answer exactly
// (ids, order, per-shard strategies and counts), so the full check covers
// it. The traced run adds a replay of one round through the layer
// functions and a regret pass against forced-LSH and forced-linear engines
// built over the same data.

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/quantized.h"
#include "data/synthetic.h"
#include "engine/search_engine.h"
#include "layers.h"
#include "lsh/families.h"
#include "util/random.h"

namespace e2e {
namespace {

struct Workload {
  const char* name;
  data::Metric metric;
  size_t num_query_points;
  std::vector<double> radii;
  double build_radius;
  double cost_ratio;
};

const Workload kCorel{"corel-lsh", data::Metric::kL2, 256,
                      {0.35, 0.40, 0.45, 0.50, 0.55, 0.60}, 0.45, 6.0};
const Workload kWebspam{"webspam-dram", data::Metric::kCosine, 48,
                        {0.05, 0.06, 0.07, 0.08, 0.09, 0.10}, 0.10, 10.0};

struct Inputs {
  data::DenseDataset base;
  data::DenseDataset queries;
};

/// `count` distinct ids drawn uniformly from [lo, hi).
std::vector<uint32_t> SampleIds(util::Rng* rng, size_t lo, size_t hi,
                                size_t count) {
  std::vector<uint32_t> ids;
  std::vector<bool> taken(hi - lo, false);
  while (ids.size() < count) {
    const size_t id = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi) - 1));
    if (taken[id - lo]) continue;
    taken[id - lo] = true;
    ids.push_back(static_cast<uint32_t>(id));
  }
  return ids;
}

/// Splits `full` into queries (the ids in `query_ids`) and the base (all
/// other rows, in id order).
Inputs Split(const data::DenseDataset& full, std::vector<uint32_t> query_ids) {
  std::vector<bool> is_query(full.size(), false);
  for (const uint32_t id : query_ids) is_query[id] = true;
  std::vector<uint32_t> base_ids;
  base_ids.reserve(full.size() - query_ids.size());
  for (uint32_t id = 0; id < full.size(); ++id) {
    if (!is_query[id]) base_ids.push_back(id);
  }
  Inputs inputs;
  inputs.queries = CopyRows(full, query_ids);
  inputs.base = CopyRows(full, base_ids);
  return inputs;
}

/// The corpus is fixed (like the paper's datasets): its generator seed is
/// pinned, and a fixed pool of held-out candidate query points is split off
/// it. --seed draws the run's query points from that pool.
constexpr uint64_t kCorpusSeed = 231;
constexpr size_t kQueryPool = 4096;
/// Base points against which each pool point's local density is counted.
constexpr size_t kDensitySample = 1024;

/// Picks `count` pool points stratified by local density: the pool is
/// ordered by how many of a fixed base sample lie within `radius` of each
/// point, cut into `count` equal strata, and one point is drawn from each.
/// A query's cost grows with its output, and on these skewed datasets
/// (Zipf cluster sizes; a mega-cluster with a density gradient) a plain
/// random draw of a few hundred points moves the total work of a round by
/// more than 10% from seed to seed; stratified, the mix of sparse and dense
/// queries is the same for every seed.
std::vector<uint32_t> StratifiedByDensity(data::Metric metric,
                                          const data::DenseDataset& pool,
                                          const data::DenseDataset& base,
                                          double radius, size_t count,
                                          util::Rng* rng) {
  const size_t stride = base.size() / kDensitySample;
  std::vector<uint32_t> density(pool.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kShards; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = t; q < pool.size(); q += kShards) {
        for (size_t k = 0; k < kDensitySample; ++k) {
          density[q] += OracleDistance(metric, pool.point(q),
                                       base.point(k * stride), base.dim()) <= radius;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<uint32_t> by_density(pool.size());
  std::iota(by_density.begin(), by_density.end(), 0);
  std::stable_sort(by_density.begin(), by_density.end(),
                   [&](uint32_t a, uint32_t b) { return density[a] < density[b]; });
  std::vector<uint32_t> picked;
  for (size_t s = 0; s < count; ++s) {
    const size_t lo = s * pool.size() / count;
    const size_t hi = (s + 1) * pool.size() / count;
    picked.push_back(by_density[static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(hi) - 1))]);
  }
  return picked;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  data::DenseDataset full;
  if (w.metric == data::Metric::kL2) {
    full = data::MakeCorelLike(68040 + kQueryPool, 32, kCorpusSeed);
  } else {
    data::WebspamLikeConfig config;  // n = 350000, d = 254, 55% mega-cluster
    config.n += kQueryPool;
    config.seed = kCorpusSeed;
    full = data::MakeWebspamLike(config);
  }
  util::Rng pool_rng(kCorpusSeed);
  Inputs split = Split(full, SampleIds(&pool_rng, 0, full.size(), kQueryPool));
  util::Rng rng(DeriveSeed(seed, 2));
  Inputs inputs;
  inputs.queries = CopyRows(
      split.queries, StratifiedByDensity(w.metric, split.queries, split.base,
                                         w.build_radius, w.num_query_points, &rng));
  inputs.base = std::move(split.base);
  return inputs;
}

/// Oracle distances from query points [first, first + rows->size()) to
/// every base point, one thread per row (computed in double, stored in
/// float: the rounding is far below kRadiusTolerance). Rows keep their
/// capacity across calls.
void ComputeOracleRows(data::Metric metric, const data::DenseDataset& base,
                       const data::DenseDataset& queries, size_t first,
                       std::vector<std::vector<float>>* rows) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < rows->size(); ++t) {
    threads.emplace_back([&, t] {
      std::vector<float>& row = (*rows)[t];
      row.resize(base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        row[i] = static_cast<float>(OracleDistance(
            metric, queries.point(first + t), base.point(i), base.dim()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Order-sensitive digest of one answer: ids, and each shard's strategy and
/// output count.
uint64_t Fingerprint(const std::vector<uint32_t>& out,
                     const engine::ShardedQueryStats& stats) {
  uint64_t h = MixHash(0x5EED, out.size());
  for (const uint32_t id : out) h = MixHash(h, id);
  for (const core::QueryStats& s : stats.per_shard) {
    h = MixHash(h, (static_cast<uint64_t>(s.strategy) << 40) | s.output_size);
  }
  return h;
}

/// Full oracle check of one answer; see README "Correctness".
class OracleCheck {
 public:
  OracleCheck(size_t n, double build_radius)
      : ranges_(ShardRanges(n, kShards)),
        stamp_(n, 0),
        build_radius_(build_radius) {}

  /// `d` holds the oracle distances of the pair's query point.
  void Run(const Pair& pair, const std::vector<float>& d,
           const std::vector<uint32_t>& out,
           const engine::ShardedQueryStats& stats, Checker* check) {
    const double r = pair.radius;
    const std::string where = "query " + std::to_string(pair.point) + " r=" +
                              std::to_string(r) + ": ";
    ++epoch_;
    size_t found = 0;
    for (const uint32_t id : out) {
      if (id >= d.size()) {
        check->Fail(where + "id out of range");
        continue;
      }
      if (stamp_[id] == epoch_) check->Fail(where + "id reported twice");
      stamp_[id] = epoch_;
      const double excess = d[id] - r;
      if (excess > kRadiusTolerance) check->Fail(where + "id outside radius");
      check->NoteExcess(excess);
      found += d[id] <= r;
    }
    if (stats.per_shard.size() != kShards) {
      check->Fail(where + "missing per-shard stats");
      return;
    }
    size_t offset = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const auto [lo, hi] = ranges_[s];
      const size_t count = stats.per_shard[s].output_size;
      if (offset + count > out.size()) {
        check->Fail(where + "per-shard counts exceed the result");
        return;
      }
      for (size_t k = offset; k < offset + count; ++k) {
        if (out[k] < lo || out[k] >= hi) check->Fail(where + "id in wrong shard");
      }
      offset += count;
      if (stats.per_shard[s].strategy != core::Strategy::kLinear) continue;
      // A linear shard is exact: every id clearly inside the radius must
      // be there (ids clearly outside are already rejected above).
      for (size_t id = lo; id < hi; ++id) {
        if (d[id] <= r - kRadiusTolerance && stamp_[id] != epoch_) {
          check->Fail(where + "linear shard missed an in-range id");
          break;
        }
      }
    }
    if (offset != out.size()) check->Fail(where + "per-shard counts mismatch");
    if (r <= build_radius_ + 1e-12) {
      size_t truth = 0;
      for (const float x : d) truth += x <= r;
      if (truth > 0) recall_.Add(static_cast<double>(found) / truth);
    }
  }

  const Mean& recall() const { return recall_; }

 private:
  std::vector<std::pair<size_t, size_t>> ranges_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  double build_radius_;
  Mean recall_;
};

template <typename Family>
void TraceRun(const Workload& w, const Args& args, engine::SearchEngine& hybrid,
              const data::DenseDataset& base, const data::DenseDataset& queries,
              const std::vector<Pair>& pairs, const std::vector<uint32_t>& order,
              const engine::EngineOptions& options, double untraced_p50_us,
              const std::vector<uint64_t>& expected, const Mean& recall,
              Checker* check, LayerTotals* totals) {
  SpanLog spans;
  const data::QuantizedMirror mirror = data::QuantizedMirror::Build(base);
  LayerTracer<Family> tracer(AdaptedEngine<Family>(hybrid), base, mirror, &spans);
  std::vector<uint32_t> out;
  engine::ShardedQueryStats stats;
  std::vector<double> facade_us;
  QueryTrace trace;
  uint32_t request = 0;
  for (const uint32_t p : order) {
    ++request;
    out.clear();
    const int64_t t0 = NowNs();
    const util::Status status =
        hybrid.Query(queries.point(pairs[p].point), pairs[p].radius, &out, &stats);
    const int64_t t1 = NowNs();
    const uint32_t root = spans.Add(request, 0, "engine.query", t0, t1, out.size());
    if (!status.ok()) {
      check->Fail("traced query: " + status.message());
      continue;
    }
    facade_us.push_back((t1 - t0) / 1e3);
    tracer.Replay(request, root, queries.point(pairs[p].point), pairs[p].radius,
                  nullptr, 1.0, stats, out, check, &trace);
    totals->AddQuery(trace, stats, t1 - t0, 0);
  }
  totals->trace_overhead_us = Percentile(facade_us, 50) - untraced_p50_us;
  totals->recall = recall;
  const engine::EngineStats engine_stats = hybrid.stats();
  totals->index_bytes = static_cast<double>(engine_stats.index_bytes);
  totals->mirror_bytes = static_cast<double>(engine_stats.mirror_bytes);
  std::fprintf(stderr,
               "# %s stats: dataset_bytes=%zu mirror_bytes=%zu index_bytes=%zu "
               "(float data %.1f MB, int8 codes %.1f MB)\n",
               w.name, engine_stats.dataset_bytes, engine_stats.mirror_bytes,
               engine_stats.index_bytes,
               base.size() * base.dim() * sizeof(float) / 1e6,
               base.size() * base.dim() / 1e6);

  // Regret: the hybrid engine's answers must reproduce their checked
  // warm-up fingerprints; the forced engines answer differently by design.
  const ForcedBuilder build_forced = [&](core::ForcedStrategy mode) {
    engine::EngineOptions forced_options = options;
    forced_options.searcher.forced = mode;
    return engine::BuildEngine(w.metric, &base, forced_options);
  };
  RegretPass(hybrid, build_forced, queries, pairs, order,
             [&](RegretEngine which, size_t p, const std::vector<uint32_t>& answer,
                 const engine::ShardedQueryStats& answer_stats) {
               if (which == RegretEngine::kHybrid &&
                   Fingerprint(answer, answer_stats) != expected[p]) {
                 check->Fail("regret pass answer differs from the checked warm-up answer");
               }
             },
             check, totals);
  WriteTrace(args, spans);
}

}  // namespace

RunResult RunReadOnly(const Args& args) {
  const Workload& w = args.workload == kCorel.name ? kCorel : kWebspam;
  RunResult result;
  Checker check;

  // Inputs and oracle buffers (not timed, touched before the memory
  // baseline so they do not count as engine memory).
  Inputs inputs = MakeInputs(w, args.seed);
  const data::DenseDataset& queries = inputs.queries;
  std::vector<std::vector<float>> oracle_rows(kShards);
  for (auto& row : oracle_rows) row.assign(inputs.base.size(), 0.0f);
  TimedRegion region;
  std::vector<Pair> pairs;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    for (const double r : w.radii) pairs.push_back(Pair{q, r});
  }
  std::vector<uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(DeriveSeed(args.seed, 3));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(order_rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  OracleCheck oracle(inputs.base.size(), w.build_radius);

  // Setup: the cold build of the engine.
  const double rss_before = ResidentMb();
  const engine::EngineOptions options =
      BaseEngineOptions(w.build_radius, w.cost_ratio, DeriveSeed(args.seed, 4));
  const int64_t setup_start = NowNs();
  if (w.metric == data::Metric::kCosine) inputs.base.PrecomputeNorms();
  auto built = engine::BuildEngine(w.metric, &inputs.base, options);
  const double setup_s = (NowNs() - setup_start) / 1e9;
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().message().c_str());
    result.correct = false;
    return result;
  }
  engine::SearchEngine& engine = **built;

  // Warm-up round, query point by query point: each point's oracle row
  // is computed once (a batch of points in parallel) and every radius of
  // it is checked in full; the answers' fingerprints pin the timed rounds.
  std::vector<uint64_t> expected(pairs.size(), 0);
  std::vector<uint32_t> out;
  engine::ShardedQueryStats stats;
  const size_t num_radii = w.radii.size();
  for (size_t first = 0; first < queries.size(); first += kShards) {
    oracle_rows.resize(std::min(kShards, queries.size() - first));
    ComputeOracleRows(w.metric, inputs.base, queries, first, &oracle_rows);
    for (size_t p = first * num_radii;
         p < (first + oracle_rows.size()) * num_radii; ++p) {
      out.clear();
      const util::Status status = engine.Query(
          queries.point(pairs[p].point), pairs[p].radius, &out, &stats);
      if (!status.ok()) {
        check.Fail("warm-up query: " + status.message());
        continue;
      }
      oracle.Run(pairs[p], oracle_rows[pairs[p].point - first], out, stats, &check);
      expected[p] = Fingerprint(out, stats);
    }
  }

  // Timed rounds.
  uint64_t linear = 0, decisions = 0;
  size_t rounds = 0;
  std::vector<double> round_rate;
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  region.Start();
  int64_t elapsed = 0;
  do {
    const int64_t round_start = elapsed;
    for (const uint32_t p : order) {
      out.clear();
      const int64_t t0 = NowNs();
      const util::Status status =
          engine.Query(queries.point(pairs[p].point), pairs[p].radius, &out, &stats);
      const int64_t t1 = NowNs();
      ++result.attempted;
      if (!status.ok()) {
        ++result.failed;
        continue;
      }
      region.AddQuery((t1 - t0) / 1e3);
      region.AddOps(1, out.size());
      linear += stats.linear_shards;
      decisions += stats.num_shards;
      if (Fingerprint(out, stats) != expected[p]) {
        check.Fail("timed answer differs from the checked warm-up answer");
      }
    }
    ++rounds;
    elapsed = region.EndRound();
    round_rate.push_back(order.size() / ((elapsed - round_start) / 1e9));
  } while (elapsed < budget || region.queries() < TimedRegion::kBlockQueries);
  const TimedRegion::Figures figures = region.Summarize();
  std::fprintf(stderr, "# queries/s by round:");
  for (const double r : round_rate) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  const double rss_after = ResidentMb();

  std::fprintf(stderr,
               "# %s seed=%llu n=%zu d=%zu queries=%zu pairs/round=%zu "
               "rounds=%zu blocks=%zu linear_share=%.4f recall=%.4f max_excess=%.3g\n",
               w.name, static_cast<unsigned long long>(args.seed),
               inputs.base.size(), inputs.base.dim(), queries.size(),
               pairs.size(), rounds, figures.blocks, decisions ? double(linear) / decisions : 0.0,
               oracle.recall().value(), check.max_excess());
  // Radii of one query point share its neighbours: the samples are the
  // query points.
  CheckRecall(oracle.recall(), options.delta, queries.size(), "mean recall", &check);

  if (!args.trace) {
    result.metrics = {
        {"ops_per_s", figures.ops_per_s, "ops/s"},
        {"query_p50_us", figures.p50_us, "us"},
        {"query_p99_us", figures.p99_us, "us"},
        {"neighbors_reported", figures.ids_per_s * args.seconds, "count"},
        {"setup_s", setup_s, "s"},
        {"engine_rss_mb", rss_after - rss_before, "MB"},
    };
  } else {
    LayerTotals totals;
    const double untraced_p50 = Percentile(region.latency_us(), 50);
    if (w.metric == data::Metric::kL2) {
      TraceRun<lsh::PStableFamily>(w, args, engine, inputs.base, queries, pairs,
                                   order, options, untraced_p50, expected, oracle.recall(),
                                   &check, &totals);
    } else {
      TraceRun<lsh::SimHashFamily>(w, args, engine, inputs.base, queries, pairs,
                                   order, options, untraced_p50, expected, oracle.recall(),
                                   &check, &totals);
    }
    result.metrics = LayerMetrics(totals);
  }
  result.correct = check.ok();
  return result;
}

}  // namespace e2e
