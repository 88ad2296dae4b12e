// hlsh_e2e: the end-to-end benchmark of the hybridlsh engine.
//
//   hlsh_e2e --workload <corel-lsh|webspam-dram|churn-filtered> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints progress lines on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics of a traced run
// (and writes its spans under --trace-dir). See README.md.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "layers.h"
#include "util/simd.h"

namespace e2e {

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

TimedRegion::TimedRegion() {
  latency_us_.assign(1 << 18, 0.0);
  latency_us_.clear();  // keeps the touched capacity
}

int64_t TimedRegion::EndRound() {
  const int64_t now = NowNs();
  open_.end_query = latency_us_.size();
  open_.ops += ops_;
  open_.ids += ids_;
  ops_ = ids_ = 0;
  if (open_.end_query - open_.first_query >= kBlockQueries) {
    open_.wall_ns = now - block_start_ns_;
    blocks_.push_back(open_);
    open_ = Block{};
    open_.first_query = latency_us_.size();
    block_start_ns_ = now;
  } else {
    open_.wall_ns = now - block_start_ns_;
  }
  return now - start_ns_;
}

TimedRegion::Figures TimedRegion::Summarize() const {
  std::vector<Block> blocks = blocks_;
  if (open_.end_query > open_.first_query) {
    if (blocks.empty()) {
      blocks.push_back(open_);
    } else {
      Block& last = blocks.back();
      last.end_query = open_.end_query;
      last.ops += open_.ops;
      last.ids += open_.ids;
      last.wall_ns += open_.wall_ns;
    }
  }
  std::vector<double> rate, p50, p99, ids;
  for (const Block& b : blocks) {
    const double wall_s = b.wall_ns / 1e9;
    const std::vector<double> lat(latency_us_.begin() + b.first_query,
                                  latency_us_.begin() + b.end_query);
    rate.push_back(b.ops / wall_s);
    ids.push_back(b.ids / wall_s);
    p50.push_back(Percentile(lat, 50));
    p99.push_back(Percentile(lat, 99));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
  };
  Figures f;
  f.ops_per_s = median(rate);
  f.p50_us = median(p50);
  f.p99_us = median(p99);
  f.ids_per_s = median(ids);
  f.blocks = blocks.size();
  return f;
}

std::vector<std::pair<size_t, size_t>> ShardRanges(size_t n, size_t shards) {
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t base = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t size = n / shards + (s < n % shards ? 1 : 0);
    ranges.emplace_back(base, base + size);
    base += size;
  }
  return ranges;
}

data::DenseDataset CopyRows(const data::DenseDataset& from,
                            const std::vector<uint32_t>& ids) {
  data::DenseDataset to(ids.size(), from.dim());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(to.mutable_point(i), from.point(ids[i]),
                from.dim() * sizeof(float));
  }
  return to;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(file,
                 "{\"request\":%u,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%llu}\n",
                 s.request, s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(file) == 0;
}

void WriteTrace(const Args& args, const SpanLog& spans) {
  if (args.trace_dir.empty()) return;
  std::error_code error;
  std::filesystem::create_directories(args.trace_dir, error);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (error || !spans.Write(path)) {
    std::fprintf(stderr, "# could not write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "# wrote %zu spans to %s\n", spans.size(), path.c_str());
}

std::vector<Metric> LayerMetrics(const LayerTotals& t) {
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  return {
      {"lsh.plan_us", t.plan_us.value(), "us"},
      {"lsh.collisions", t.collisions.value(), "count"},
      {"lsh.gather_us", t.gather_us.value(), "us"},
      {"lsh.dedup_yield", ratio(t.lsh_candidates, t.lsh_collisions), "ratio"},
      {"hll.estimate_us", t.estimate_us.value(), "us"},
      {"hll.cand_rel_error", t.cand_rel_error.value(), "ratio"},
      {"core.linear_share", ratio(t.linear_decisions, t.shard_decisions), "ratio"},
      {"core.regret_share", t.regret_share, "ratio"},
      {"core.hybrid_over_best", t.hybrid_over_best, "ratio"},
      {"core.distances", t.distances.value(), "count"},
      {"core.verify_float_ns", ratio(t.verify_float_ns, t.verify_candidates), "ns"},
      {"core.verify_int8_ns", ratio(t.verify_int8_ns, t.verify_candidates), "ns"},
      {"core.verify_yield", ratio(t.reported, t.verified), "ratio"},
      {"core.recall", t.recall.value(), "ratio"},
      {"core.fusion_merge_us", t.fusion_merge_us.value(), "us"},
      {"data.filter_us", t.filter_us.value(), "us"},
      {"data.filter_selectivity", t.filter_selectivity.value(), "ratio"},
      {"engine.self_us", t.self_us.value(), "us"},
      {"engine.insert_us", t.insert_us.value(), "us"},
      {"engine.remove_us", t.remove_us.value(), "us"},
      {"engine.compactions", t.compactions, "count"},
      {"engine.compact_s", t.compact_s, "s"},
      {"engine.index_bytes", t.index_bytes, "bytes"},
      {"engine.mirror_bytes", t.mirror_bytes, "bytes"},
      {"trace.overhead_us", t.trace_overhead_us, "us"},
  };
}

void RegretPass(engine::SearchEngine& hybrid, const ForcedBuilder& build_forced,
                const data::DenseDataset& queries, const std::vector<Pair>& pairs,
                const std::vector<uint32_t>& order,
                const RegretAnswerCheck& check_answer, Checker* check,
                LayerTotals* totals) {
  constexpr int kReps = 2;
  std::vector<uint32_t> out;
  engine::ShardedQueryStats stats;
  auto min_latencies = [&](engine::SearchEngine& engine, RegretEngine which) {
    std::vector<int64_t> best(pairs.size(), INT64_MAX);
    for (int rep = 0; rep < kReps; ++rep) {
      for (const uint32_t p : order) {
        out.clear();
        const int64_t t0 = NowNs();
        const util::Status status =
            engine.Query(queries.point(pairs[p].point), pairs[p].radius, &out, &stats);
        const int64_t t1 = NowNs();
        if (!status.ok()) {
          check->Fail("regret pass: " + status.message());
          continue;
        }
        best[p] = std::min(best[p], t1 - t0);
        check_answer(which, p, out, stats);
      }
    }
    return best;
  };
  const std::vector<int64_t> hybrid_ns = min_latencies(hybrid, RegretEngine::kHybrid);
  std::vector<int64_t> forced_ns[2];
  const core::ForcedStrategy modes[2] = {core::ForcedStrategy::kAlwaysLsh,
                                         core::ForcedStrategy::kAlwaysLinear};
  const RegretEngine engines[2] = {RegretEngine::kForcedLsh,
                                   RegretEngine::kForcedLinear};
  for (int m = 0; m < 2; ++m) {
    auto forced = build_forced(modes[m]);
    if (!forced.ok()) {
      check->Fail("forced engine build: " + forced.status().message());
      return;
    }
    forced_ns[m] = min_latencies(**forced, engines[m]);
  }
  size_t regrets = 0;
  double hybrid_total = 0, lsh_total = 0, linear_total = 0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    regrets += hybrid_ns[p] > std::min(forced_ns[0][p], forced_ns[1][p]);
    hybrid_total += hybrid_ns[p];
    lsh_total += forced_ns[0][p];
    linear_total += forced_ns[1][p];
  }
  totals->regret_share = static_cast<double>(regrets) / pairs.size();
  totals->hybrid_over_best = hybrid_total / std::min(lsh_total, linear_total);
  std::fprintf(stderr, "# regret pass: hybrid %.3f s, lsh %.3f s, linear %.3f s\n",
               hybrid_total / 1e9, lsh_total / 1e9, linear_total / 1e9);
}

namespace {

void PrintResult(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "corel-lsh" || args->workload == "webspam-dram" ||
          args->workload == "churn-filtered");
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hlsh_e2e --workload corel-lsh|webspam-dram|"
                 "churn-filtered --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const std::string_view tier =
      hybridlsh::util::simd::TierName(hybridlsh::util::ResolvedSimdTier());
  std::fprintf(stderr, "# host: nproc=%ld simd=%.*s\n",
               sysconf(_SC_NPROCESSORS_ONLN), static_cast<int>(tier.size()),
               tier.data());
  const e2e::RunResult result = args.workload == "churn-filtered"
                                    ? e2e::RunChurn(args)
                                    : e2e::RunReadOnly(args);
  if (result.metrics.empty()) return 1;
  e2e::PrintResult(result);
  return 0;
}
