// Row-at-a-time vs chunked execution on the one chunk runtime (DESIGN.md
// §8, BENCH_vectorized.json): the same scan-heavy TPC-H flows run at chunk
// size 1 — one row per chunk, the row-at-a-time reference — and at the
// default 1024, and the wall-clock ratio is the headline number. Every
// measured run is also checked against the executor's golden corpus
// (tests/golden_corpus.h: fingerprint, rows_processed and per-node row
// counts frozen from the retired row executor) — a speedup that changes
// bytes is a bug, not a win — so the bench doubles as a coarse
// differential test on real TPC-H data.
//
// Scenarios, per scale factor:
//   scan_agg             lineitem scan -> filter (l_quantity < 24) ->
//                        derived revenue column -> projection -> group-by
//                        aggregation -> tiny loader. Scan-dominated with a
//                        3-row output.
//   filter_project_load  same scan + filter + projection but loading every
//                        surviving row. The loader's row-at-a-time merge is
//                        the same at every chunk size, so this bounds how
//                        much of the pipeline chunking can accelerate when
//                        the sink is write-heavy.
//
// Flags:
//   --smoke      one small scale factor, one iteration, hard-assert that
//                every run matches the golden corpus and that the chunk
//                kernels really ran (exit 1 otherwise) — wired into
//                tools/run_all_checks.sh
//   --sf=CSV     comma-separated scale factors out of 0.005, 0.01, 0.02
//                (the ones the golden corpus records; default all three)
//   --iters=N    timed iterations per chunk size, best-of (default 5;
//                smoke 1)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "etl/exec/executor.h"
#include "golden_corpus.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace quarry {
namespace {

struct Options {
  bool smoke = false;
  std::vector<double> scale_factors = {0.005, 0.01, 0.02};
  int iters = 5;
};

Options ParseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      opts.scale_factors = {0.005};
      opts.iters = 1;
    } else if (arg.rfind("--sf=", 0) == 0) {
      opts.scale_factors.clear();
      std::string list = arg.substr(5);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        opts.scale_factors.push_back(
            std::strtod(list.substr(pos, comma - pos).c_str(), nullptr));
        pos = comma + 1;
      }
    } else if (arg.rfind("--iters=", 0) == 0) {
      opts.iters = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

struct ArmResult {
  double best_ms = 1e30;
  int mismatches = 0;  ///< Runs whose records differ from the golden file.
};

/// Best-of-`iters` wall time of `c` at `chunk_size`, every run checked
/// against the golden corpus.
ArmResult RunArm(const etl::testutil::CorpusCase& c, int64_t chunk_size,
                 int iters) {
  ArmResult result;
  for (int i = 0; i < iters; ++i) {
    storage::Database target("dw");
    etl::Executor executor(c.source.get(), &target);
    etl::ExecOptions options;
    options.chunk_size = chunk_size;
    const auto start = std::chrono::steady_clock::now();
    auto report = executor.Run(c.flow, options, etl::RetryPolicy{}, nullptr);
    const auto end = std::chrono::steady_clock::now();
    result.best_ms = std::min(
        result.best_ms,
        std::chrono::duration<double, std::milli>(end - start).count());
    etl::testutil::CaseRun run;
    run.outcome.status = report.status();
    if (report.ok()) run.outcome.report = std::move(*report);
    run.outcome.fingerprint = target.Fingerprint();
    const std::string diff = etl::testutil::GoldenMismatch(
        c, run, "chunk_size=" + std::to_string(chunk_size));
    if (!diff.empty()) {
      std::fprintf(stderr, "DIVERGENCE: %s\n", diff.c_str());
      ++result.mismatches;
    }
  }
  return result;
}

double LoadAverage1Min() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!in || !(in >> load)) return -1.0;
  return load;
}

int Main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  int failures = 0;

  std::printf("{\n  \"bench\": \"bench_etl_vectorized\",\n");
  std::printf("  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
  std::printf("  \"iters_per_chunk_size\": %d,\n", opts.iters);
  std::printf("  \"host_hw_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"host_load_avg_1min\": %.2f,\n", LoadAverage1Min());
  std::printf("  \"scenarios\": [\n");

  bool first = true;
  const int64_t chunk_rows_before = obs::MetricsRegistry::Instance()
                                        .counter("quarry_etl_chunk_rows_total")
                                        .value();
  for (double sf : opts.scale_factors) {
    for (const etl::testutil::CorpusCase& c :
         etl::testutil::BenchCases(sf)) {
      const int64_t lineitem_rows = static_cast<int64_t>(
          (*c.source->GetTable("lineitem"))->num_rows());
      ArmResult row = RunArm(c, /*chunk_size=*/1, opts.iters);
      ArmResult chunked = RunArm(c, /*chunk_size=*/1024, opts.iters);
      const double speedup =
          chunked.best_ms > 0.0 ? row.best_ms / chunked.best_ms : 0.0;
      const bool golden = row.mismatches == 0 && chunked.mismatches == 0;
      if (!golden) ++failures;
      if (!first) std::printf(",\n");
      first = false;
      std::printf(
          "    {\"flow\": \"%s\", \"scale_factor\": %g, "
          "\"lineitem_rows\": %lld, \"chunk1_ms\": %.2f, "
          "\"chunk1024_ms\": %.2f, \"speedup\": %.2f, "
          "\"golden_match\": %s}",
          c.flow.name().c_str(), sf, static_cast<long long>(lineitem_rows),
          row.best_ms, chunked.best_ms, speedup, golden ? "true" : "false");
    }
  }
  std::printf("\n  ]\n}\n");

  // Every run must have gone through the chunk kernels.
  const int64_t chunk_rows = obs::MetricsRegistry::Instance()
                                 .counter("quarry_etl_chunk_rows_total")
                                 .value() -
                             chunk_rows_before;
  if (chunk_rows <= 0) {
    std::fprintf(stderr, "chunk kernels never ran\n");
    ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d invariant(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr,
               "etl chunk bench: every run matched the golden corpus\n");
  return 0;
}

}  // namespace
}  // namespace quarry

int main(int argc, char** argv) { return quarry::Main(argc, argv); }
