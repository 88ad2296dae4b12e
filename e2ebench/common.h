// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record printed as the last output line, clocks, resident-memory
// reads, the benchmark's own scalar double-precision distance oracle, the
// correctness checker, and the in-memory span log of the traced run.
//
// Nothing here calls into the engine's kernels: the oracle is deliberately
// independent of core/kernels.h and data/metric.h, so a kernel bug cannot
// hide behind a checker that shares it.

#ifndef HLSH_E2EBENCH_COMMON_H_
#define HLSH_E2EBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/metric.h"
#include "engine/search_engine.h"

namespace e2e {

using namespace hybridlsh;

/// Engine shape shared by every workload: S id-range shards on a pool of S
/// workers. The single caller blocks while the pool runs the fan-out, so at
/// most kShards threads are runnable at once (nproc = 4 on the reference
/// host).
inline constexpr size_t kShards = 4;

/// Reported ids may exceed the radius by float rounding in the engine's
/// single-precision kernels; the oracle accepts up to this much (absolute,
/// in distance units) on either side of the radius. The largest excess
/// seen on the reference host is printed by every run ("max_excess").
inline constexpr double kRadiusTolerance = 1e-6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: operations attempted in the timed region,
/// those whose facade call returned a non-OK Status, whether every checked
/// answer was correct, and the metrics of the run's mode.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

RunResult RunReadOnly(const Args& args);
RunResult RunChurn(const Args& args);

// --- Clocks, memory, seeds. -------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size of this process in MB (1e6 bytes), from
/// /proc/self/statm.
double ResidentMb();

/// Independent 64-bit stream seeds derived from the run's --seed.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;
}

inline uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}

// --- Summaries. -------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);

struct Mean {
  double sum = 0.0;
  uint64_t count = 0;
  void Add(double v) {
    sum += v;
    ++count;
  }
  double value() const { return count == 0 ? 0.0 : sum / count; }
};

/// The timed region of one run, cut at round ends into blocks of whole
/// rounds that hold at least kBlockQueries query latencies each (a short
/// last block joins the one before it). Each timed figure is the median
/// over the blocks of its per-block value, so load from elsewhere on the
/// host during part of a run moves it less than a pooled figure would.
class TimedRegion {
 public:
  static constexpr size_t kBlockQueries = 1000;

  /// Latency buffer capacity, touched here so that its growth does not
  /// show as engine memory; construct before the memory baseline.
  TimedRegion();
  void Start() { start_ns_ = block_start_ns_ = NowNs(); }
  void AddQuery(double us) { latency_us_.push_back(us); }
  void AddOps(uint64_t completed, uint64_t ids) {
    ops_ += completed;
    ids_ += ids;
  }
  /// Call after each round; returns the wall time since Start().
  int64_t EndRound();
  size_t queries() const { return latency_us_.size(); }
  /// Every timed query latency, in call order.
  const std::vector<double>& latency_us() const { return latency_us_; }

  struct Figures {
    double ops_per_s = 0, p50_us = 0, p99_us = 0, ids_per_s = 0;
    size_t blocks = 0;
  };
  Figures Summarize() const;

 private:
  struct Block {
    size_t first_query = 0, end_query = 0;
    uint64_t ops = 0, ids = 0;
    int64_t wall_ns = 0;
  };
  std::vector<double> latency_us_;
  std::vector<Block> blocks_;
  Block open_;
  int64_t start_ns_ = 0, block_start_ns_ = 0;
  uint64_t ops_ = 0, ids_ = 0;
};

// --- Oracle: scalar double-precision distances. -----------------------------

inline double OracleL2(const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// 1 - cos(a, b), with the engine's convention that a zero vector is
/// orthogonal to everything (distance 1).
inline double OracleCosine(const float* a, const float* b, size_t dim) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    dot += static_cast<double>(a[j]) * b[j];
    na += static_cast<double>(a[j]) * a[j];
    nb += static_cast<double>(b[j]) * b[j];
  }
  if (na == 0.0 || nb == 0.0) return 1.0;
  const double cos = std::clamp(dot / (std::sqrt(na) * std::sqrt(nb)), -1.0, 1.0);
  return 1.0 - cos;
}

inline double OracleDistance(data::Metric metric, const float* a,
                             const float* b, size_t dim) {
  return metric == data::Metric::kCosine ? OracleCosine(a, b, dim)
                                         : OracleL2(a, b, dim);
}

/// Counts and reports (first few to stderr) every answer that disagrees
/// with the oracle or with the traced re-execution.
class Checker {
 public:
  void Fail(const std::string& what) {
    if (++failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// Largest distance by which a reported id exceeded its radius.
  void NoteExcess(double excess) { max_excess_ = std::max(max_excess_, excess); }
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }
  double max_excess() const { return max_excess_; }

 private:
  uint64_t failures_ = 0;
  double max_excess_ = 0.0;
};

/// Fails `check` if `recall` (a mean over `samples` independent queries at
/// radii up to the build radius) is below 1 - delta less three binomial
/// standard errors.
inline void CheckRecall(const Mean& recall, double delta, size_t samples,
                        const std::string& what, Checker* check) {
  if (recall.count == 0) return;
  const double floor = 1.0 - delta - 3.0 * std::sqrt(delta * (1 - delta) / samples);
  if (recall.value() < floor) {
    check->Fail(what + " " + std::to_string(recall.value()) + " below " +
                std::to_string(floor));
  }
}

/// The engine's balanced contiguous partition of the initial ids (shard s
/// covers n/S ids, the first n mod S shards one more).
std::vector<std::pair<size_t, size_t>> ShardRanges(size_t n, size_t shards);

// --- Trace spans. -----------------------------------------------------------

/// One timed call into a layer: spans of one request share `request`, and
/// `parent` names the span that caused it (0 = root).
struct Span {
  uint32_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;  // work done inside the span (keys, candidates, ids)
};

/// Spans kept in memory during the traced run and written out at its end.
class SpanLog {
 public:
  uint32_t Add(uint32_t request, uint32_t parent, const char* name,
               int64_t start_ns, int64_t end_ns, uint64_t count = 0) {
    const uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{request, id, parent, name, start_ns, end_ns, count});
    return id;
  }
  /// Writes every span as one JSON object per line; returns false on I/O
  /// failure.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Writes the run's spans to <trace_dir>/<workload>-seed<N>.jsonl (created
/// if missing); a failure is reported on stderr and does not fail the run.
void WriteTrace(const Args& args, const SpanLog& spans);

// --- Shared engine plumbing. ------------------------------------------------

/// Facade options every workload starts from.
inline engine::EngineOptions BaseEngineOptions(double build_radius,
                                               double cost_ratio,
                                               uint64_t seed) {
  engine::EngineOptions options;
  options.num_shards = kShards;
  options.num_threads = kShards;
  options.num_tables = 50;
  options.k = 0;  // derived from (radius, delta)
  options.delta = 0.1;
  options.radius = build_radius;
  options.seed = seed;
  options.quantized_verify = true;
  options.searcher.cost_model = core::CostModel::FromRatio(cost_ratio);
  return options;
}

/// Copies rows `ids` of `from` into a new dataset, in order.
data::DenseDataset CopyRows(const data::DenseDataset& from,
                            const std::vector<uint32_t>& ids);

}  // namespace e2e

#endif  // HLSH_E2EBENCH_COMMON_H_
