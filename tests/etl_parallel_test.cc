// Differential tests for the wavefront scheduler (docs/ROBUSTNESS.md §8):
// every flow must produce byte-identical target tables and equivalent
// execution reports no matter how many workers run it, and the lifecycle /
// fault-injection contracts of the serial executor must carry over. The
// GoldenCorpusTest suite holds every run to the frozen row-at-a-time
// records of tests/golden_corpus.h at every chunk size (DESIGN.md §8).
// Runs under TSan via tools/run_tsan.sh (ctest label `tsan`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "common/fault_injection.h"
#include "common/timer.h"
#include "datagen/tpch.h"
#include "etl_test_util.h"
#include "golden_corpus.h"
#include "interpreter/interpreter.h"
#include "obs/metrics.h"
#include "ontology/tpch_ontology.h"
#include "storage/database.h"

namespace quarry::etl {
namespace {

using testutil::BuildRandomFlow;
using testutil::BuildRandomSource;
using testutil::MakeNode;
using testutil::RunFlow;
using testutil::RunFlowOpts;
using testutil::RunOutcome;
using testutil::StatsById;

const int kWorkerCounts[] = {2, 4, 8};

/// Differential equivalence against the serial reference: byte-identical
/// target fingerprint and order-free identical report (row counts per node,
/// loaded tables, total attempts). Also asserts exactly-once execution: one
/// NodeStats entry per flow node. `label` names the non-reference arm in
/// failure messages.
void ExpectEquivalent(const Flow& flow, const RunOutcome& serial,
                      const RunOutcome& other, const std::string& label) {
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  ASSERT_TRUE(other.status.ok()) << label << ": " << other.status;
  EXPECT_EQ(other.fingerprint, serial.fingerprint)
      << "flow '" << flow.name() << "' diverged at " << label;
  EXPECT_EQ(other.report.rows_processed, serial.report.rows_processed)
      << label;
  EXPECT_EQ(other.report.attempts, serial.report.attempts) << label;
  EXPECT_EQ(other.report.loaded, serial.report.loaded) << label;
  EXPECT_EQ(other.report.recovered, serial.report.recovered) << label;
  auto serial_stats = StatsById(serial.report);
  auto other_stats = StatsById(other.report);
  ASSERT_EQ(serial_stats.size(), flow.num_nodes());
  ASSERT_EQ(other_stats.size(), flow.num_nodes());  // exactly once
  EXPECT_EQ(other.report.nodes.size(), flow.num_nodes());
  for (const auto& [id, want] : serial_stats) {
    auto it = other_stats.find(id);
    ASSERT_NE(it, other_stats.end())
        << "node " << id << " never ran (" << label << ")";
    EXPECT_EQ(it->second.rows_in, want.rows_in)
        << "node " << id << " (" << label << ")";
    EXPECT_EQ(it->second.rows_out, want.rows_out)
        << "node " << id << " (" << label << ")";
    EXPECT_EQ(it->second.attempts, want.attempts)
        << "node " << id << " (" << label << ")";
  }
}

void ExpectEquivalent(const Flow& flow, const RunOutcome& serial,
                      const RunOutcome& parallel, int workers) {
  ExpectEquivalent(flow, serial, parallel,
                   "workers=" + std::to_string(workers));
}

TEST(EtlParallelTest, RandomizedFlowsMatchSerialAtEveryWorkerCount) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed);
    ASSERT_TRUE(flow.Validate().ok()) << "seed " << seed;
    RunOutcome serial = RunFlow(*source, flow, 1);
    ASSERT_TRUE(serial.status.ok()) << "seed " << seed << ": "
                                    << serial.status;
    for (int workers : kWorkerCounts) {
      RunOutcome parallel = RunFlow(*source, flow, workers);
      ExpectEquivalent(flow, serial, parallel, workers);
    }
  }
}

TEST(EtlParallelTest, TpchRevenueFlowMatchesSerial) {
  storage::Database src;
  ASSERT_TRUE(datagen::PopulateTpch(&src, {0.005, 23}).ok());
  ontology::Ontology onto = ontology::BuildTpchOntology();
  ontology::SourceMapping mapping = ontology::BuildTpchMappings();
  interpreter::Interpreter interp(&onto, &mapping);
  req::InformationRequirement ir;
  ir.id = "ir_revenue";
  ir.name = "revenue";
  ir.focus_concept = "Lineitem";
  ir.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       md::AggFunc::kSum});
  ir.dimensions.push_back({"Part.p_name"});
  ir.dimensions.push_back({"Supplier.s_name"});
  auto design = interp.Interpret(ir);
  ASSERT_TRUE(design.ok()) << design.status();

  RunOutcome serial = RunFlow(src, design->flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  for (int workers : kWorkerCounts) {
    RunOutcome parallel = RunFlow(src, design->flow, workers);
    ExpectEquivalent(design->flow, serial, parallel, workers);
  }
  // The run went through the scheduler, not a silent serial fallback.
  EXPECT_GT(obs::MetricsRegistry::Instance()
                .counter("quarry_etl_scheduler_parallel_runs_total")
                .value(),
            0);
}

/// Wide multi-branch flow: `branches` independent extract→select→load
/// chains over the random source tables, all loading distinct targets.
Flow BuildWideFlow(int branches) {
  Flow flow("wide");
  for (int b = 0; b < branches; ++b) {
    std::string n = std::to_string(b);
    std::string table = "src" + std::to_string(b % 3);
    (void)flow.AddNode(
        MakeNode("ds" + n, OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(
        MakeNode("ex" + n, OpType::kExtraction, {{"table", table}}));
    (void)flow.AddNode(MakeNode(
        "sel" + n, OpType::kSelection,
        {{"predicate", "v >= " + std::to_string(b % 7)}}));
    (void)flow.AddNode(MakeNode("load" + n, OpType::kLoader,
                                {{"table", "out" + n}}));
    (void)flow.AddEdge("ds" + n, "ex" + n);
    (void)flow.AddEdge("ex" + n, "sel" + n);
    (void)flow.AddEdge("sel" + n, "load" + n);
  }
  return flow;
}

TEST(EtlParallelTest, WideMultiBranchFlowMatchesSerial) {
  auto source = BuildRandomSource(/*seed=*/7);
  Flow flow = BuildWideFlow(6);
  ASSERT_TRUE(flow.Validate().ok());
  RunOutcome serial = RunFlow(*source, flow, 1);
  for (int workers : kWorkerCounts) {
    RunOutcome parallel = RunFlow(*source, flow, workers);
    ExpectEquivalent(flow, serial, parallel, workers);
    EXPECT_EQ(parallel.report.loaded.size(), 6u);
  }
}

TEST(EtlParallelTest, WorkerCountBeyondNodeCountIsHarmless) {
  auto source = BuildRandomSource(/*seed=*/3);
  Flow flow = BuildWideFlow(2);
  RunOutcome serial = RunFlow(*source, flow, 1);
  RunOutcome parallel = RunFlow(*source, flow, 64);
  ExpectEquivalent(flow, serial, parallel, 64);
}

TEST(EtlParallelTest, CompletionOrderRespectsDependencies) {
  for (uint64_t seed = 30; seed <= 36; ++seed) {
    auto source = BuildRandomSource(seed);
    Flow flow = BuildRandomFlow(seed);
    Checkpoint checkpoint;
    storage::Database target("dw");
    Executor executor(&(*source), &target);
    ExecOptions options;
    options.max_workers = 4;
    auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.status();
    // The recorded completion order must be a topological order: every
    // predecessor appears before its consumer.
    std::set<std::string> seen;
    for (const std::string& id : checkpoint.completed) {
      EXPECT_TRUE(seen.insert(id).second) << id << " completed twice";
      for (const std::string& pred : flow.Predecessors(id)) {
        EXPECT_TRUE(seen.count(pred) > 0)
            << "seed " << seed << ": node " << id
            << " completed before its input " << pred;
      }
    }
    EXPECT_EQ(seen.size(), flow.num_nodes());
  }
}

TEST(EtlParallelTest, ExpiredDeadlineAbortsWithoutDeadlock) {
  auto source = BuildRandomSource(/*seed=*/5);
  Flow flow = BuildWideFlow(6);
  ExecContext ctx(Deadline::After(0.0));
  RunOutcome outcome = RunFlow(*source, flow, 4, RetryPolicy{}, nullptr,
                               &ctx);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsDeadlineExceeded()) << outcome.status;
}

TEST(EtlParallelTest, ConcurrentCancellationNeverDeadlocks) {
  auto source = BuildRandomSource(/*seed=*/11, /*tables=*/3,
                                  /*max_rows=*/120);
  Flow flow = BuildWideFlow(8);
  CancellationToken token;
  ExecContext ctx(token, Deadline::Infinite());
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.Cancel("test cancel");
  });
  RunOutcome outcome =
      RunFlow(*source, flow, 4, RetryPolicy{}, nullptr, &ctx);
  canceller.join();
  // The run either finished before the cancel landed or aborted with
  // kCancelled — both are fine; the property under test is termination.
  if (!outcome.status.ok()) {
    EXPECT_TRUE(outcome.status.IsCancelled()) << outcome.status;
  }
}

TEST(EtlParallelTest, BudgetTripAbortsAndChargesAtomically) {
  auto source = BuildRandomSource(/*seed=*/13);
  Flow flow = BuildWideFlow(6);
  ResourceBudget budget;
  budget.max_rows_materialized = 10;  // Trips almost immediately.
  ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
  Checkpoint checkpoint;
  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted()) << report.status();
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());

  // Resume with a fresh allowance completes and converges on the serial
  // result.
  ctx.ResetCharges();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  RunOutcome serial = RunFlow(*source, flow, 1);
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

class EtlParallelFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Injector::Instance().Disable();
    fault::Injector::Instance().ClearConfigs();
  }
};

TEST_F(EtlParallelFaultTest, TransientFaultIsRetriedOnWhateverWorkerHitsIt) {
  auto source = BuildRandomSource(/*seed=*/17);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure(
      "etl.exec.Selection", {.trigger_on_hit = 1, .max_failures = 1});
  fault::Injector::Instance().Enable(/*seed=*/9);
  RetryPolicy retry;
  retry.max_attempts = 3;
  RunOutcome parallel = RunFlow(*source, flow, 4, retry);
  fault::Injector::Instance().Disable();

  ASSERT_TRUE(parallel.status.ok()) << parallel.status;
  EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
  EXPECT_TRUE(parallel.report.recovered);
  EXPECT_EQ(parallel.report.retried_nodes.size(), 1u);
  EXPECT_EQ(fault::Injector::Instance().FailureCount("etl.exec.Selection"),
            1);
}

TEST_F(EtlParallelFaultTest, MidParallelFaultCheckpointsAntichainAndResumes) {
  auto source = BuildRandomSource(/*seed=*/19);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);

  // Permanently fail the third loader write: siblings already in flight
  // finish and are checkpointed; later nodes never start.
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {.fail_from_hit = 3});
  fault::Injector::Instance().Enable(/*seed=*/21);

  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  Checkpoint checkpoint;
  auto failed = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(checkpoint.valid);
  EXPECT_FALSE(checkpoint.failed_node.empty());

  // The completed set is the antichain's downward closure: unique ids, and
  // every predecessor of a completed node is itself completed.
  std::set<std::string> completed;
  for (const std::string& id : checkpoint.completed) {
    EXPECT_TRUE(completed.insert(id).second) << id << " completed twice";
  }
  for (const std::string& id : completed) {
    for (const std::string& pred : flow.Predecessors(id)) {
      EXPECT_TRUE(completed.count(pred) > 0)
          << "completed node " << id << " missing input " << pred;
    }
  }
  EXPECT_LT(completed.size(), flow.num_nodes());

  // The fault clears; a *parallel* resume of the parallel checkpoint
  // converges on the serial fingerprint.
  fault::Injector::Instance().Disable();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->recovered);
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

TEST_F(EtlParallelFaultTest, SerialResumeAcceptsParallelCheckpoint) {
  auto source = BuildRandomSource(/*seed=*/23);
  Flow flow = BuildWideFlow(5);
  RunOutcome serial = RunFlow(*source, flow, 1);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {.fail_from_hit = 2});
  fault::Injector::Instance().Enable(/*seed=*/25);

  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.max_workers = 4;
  Checkpoint checkpoint;
  auto failed = executor.Run(flow, options, RetryPolicy{}, &checkpoint);
  ASSERT_FALSE(failed.ok());
  fault::Injector::Instance().Disable();

  // Cross-mode: the serial executor resumes a checkpoint a parallel run
  // produced (the completed *set* is mode-agnostic).
  auto resumed = executor.Resume(flow, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

TEST(EtlParallelTest, AliasedSourceAndTargetDegradeToSerial) {
  // A loader writing the same database the datastores read from cannot be
  // overlapped; such runs silently run serially and still succeed.
  auto serial_db = BuildRandomSource(/*seed=*/29);
  auto parallel_db = BuildRandomSource(/*seed=*/29);
  Flow flow("alias");
  (void)flow.AddNode(
      MakeNode("ds", OpType::kDatastore, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("ex", OpType::kExtraction, {{"table", "src0"}}));
  (void)flow.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "copied"}}));
  (void)flow.AddEdge("ds", "ex");
  (void)flow.AddEdge("ex", "load");

  Executor serial_exec(serial_db.get(), serial_db.get());
  auto serial_report = serial_exec.Run(flow);
  ASSERT_TRUE(serial_report.ok()) << serial_report.status();

  Executor parallel_exec(parallel_db.get(), parallel_db.get());
  ExecOptions options;
  options.max_workers = 4;
  auto parallel_report = parallel_exec.Run(flow, options, RetryPolicy{});
  ASSERT_TRUE(parallel_report.ok()) << parallel_report.status();
  EXPECT_EQ(parallel_db->Fingerprint(), serial_db->Fingerprint());
}

TEST(EtlParallelTest, SchedulerMetricsAreRecorded) {
  auto source = BuildRandomSource(/*seed=*/31);
  Flow flow = BuildWideFlow(6);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const int64_t runs_before =
      reg.counter("quarry_etl_scheduler_parallel_runs_total").value();
  RunOutcome parallel = RunFlow(*source, flow, 4);
  ASSERT_TRUE(parallel.status.ok()) << parallel.status;
  EXPECT_EQ(reg.counter("quarry_etl_scheduler_parallel_runs_total").value(),
            runs_before + 1);
  EXPECT_GT(reg.histogram("quarry_etl_scheduler_wavefront_width", "",
                          {1, 2, 4, 8, 16, 32, 64})
                .count(),
            0);
  int64_t worker_nodes = 0;
  for (int w = 0; w < 4; ++w) {
    worker_nodes +=
        reg.counter("quarry_etl_scheduler_worker_nodes_total", "",
                    {{"worker", std::to_string(w)}})
            .value();
  }
  EXPECT_GE(worker_nodes, static_cast<int64_t>(flow.num_nodes()));
}

// ---------------------------------------------------------------------------
// Golden corpus (tests/golden_corpus.h): every case, at chunk sizes 1, 7,
// 1024 and rows+1 on 1 and 4 workers, must reproduce the frozen records of
// the row-at-a-time reference — target fingerprint, rows_processed, rows
// loaded per table, per-node rows_in/rows_out, and for the lifecycle cases
// the error, the failed node and the rolled-back target.

using testutil::CorpusCase;

void ExpectSweepMatchesGolden(const CorpusCase& c) {
  for (const std::string& mismatch : testutil::SweepMismatches(c)) {
    ADD_FAILURE() << mismatch;
  }
}

TEST(GoldenCorpusTest, RandomFlowsMatchAtEveryChunkSizeAndWorkerCount) {
  for (const CorpusCase& c : testutil::RandomCases(1, 20)) {
    ASSERT_TRUE(c.flow.Validate().ok()) << c.name;
    ExpectSweepMatchesGolden(c);
  }
}

TEST(GoldenCorpusTest, TpchRevenueFlowMatches) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const int64_t chunk_rows_before =
      reg.counter("quarry_etl_chunk_rows_total").value();
  CorpusCase c = testutil::TpchRevenueCase();
  ASSERT_TRUE(c.flow.Validate().ok());
  ExpectSweepMatchesGolden(c);
  EXPECT_GT(reg.counter("quarry_etl_chunk_rows_total").value(),
            chunk_rows_before);
}

// Typed keys (DESIGN.md §8): joins and aggregations keyed on INT, DATE or
// STRING columns — one column or two (INT + STRING) — hash the segment
// payloads; NULL keys, the zero payloads next to them, duplicate build keys
// and selection vectors must not move a byte. An INT key joined to a
// DOUBLE key (3 = 3.0) and a DOUBLE group key stay on the generic path.
// (The two-column flows keep their "generic_" names: case names key the
// frozen records.)
TEST(GoldenCorpusTest, TypedKeyFlowsMatch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  auto typed_runs = [&reg](const char* op) {
    return reg.counter("quarry_etl_chunk_typed_key_total", "", {{"op", op}})
        .value();
  };
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const CorpusCase& c : testutil::TypedKeyCases(1, 4)) {
    ASSERT_TRUE(c.flow.Validate().ok()) << c.name;
    const bool typed = c.flow.name().rfind("typed_", 0) == 0 ||
                       ends_with(c.flow.name(), "_two_columns");
    const bool has_join = c.flow.name().find("_join_") != std::string::npos;
    const int64_t joins_before = typed_runs("Join");
    const int64_t aggs_before = typed_runs("Aggregation");
    ExpectSweepMatchesGolden(c);
    const int64_t typed_joins = typed_runs("Join") - joins_before;
    const int64_t typed_aggs = typed_runs("Aggregation") - aggs_before;
    if (!typed) {
      EXPECT_EQ(typed_joins, 0) << c.name;
      if (!has_join) {
        EXPECT_EQ(typed_aggs, 0) << c.name;
      }
    } else if (has_join) {
      EXPECT_EQ(typed_joins, 8) << c.name;  // One per sweep arm.
    } else {
      EXPECT_EQ(typed_aggs, 8) << c.name;
    }
  }
}

// A selection that empties everything downstream (aggregation over
// nothing, a loader that must defer table creation), chained selections
// composing selection vectors on singleton, partial and oversized chunks,
// and a projection onto zero columns whose rows reach COUNT(*) and a
// Loader.
TEST(GoldenCorpusTest, StreamShapesMatch) {
  for (const CorpusCase& c : testutil::ShapeCases()) {
    ExpectSweepMatchesGolden(c);
  }
}

TEST(GoldenCorpusTest, SortUnionAndSurrogateKeyMatch) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const int64_t typed_before =
      reg.counter("quarry_etl_chunk_typed_key_total", "",
                  {{"op", "SurrogateKey"}})
          .value();
  for (const CorpusCase& c : testutil::OperatorCases(1, 4)) {
    ASSERT_TRUE(c.flow.Validate().ok()) << c.name;
    ExpectSweepMatchesGolden(c);
  }
  // skey_int/_date/_string, skey_two_columns (INT + STRING) and
  // union_three hash typed keys; skey_double stays generic: 5 flows x 4
  // seeds x 8 arms.
  EXPECT_EQ(reg.counter("quarry_etl_chunk_typed_key_total", "",
                        {{"op", "SurrogateKey"}})
                    .value() -
                typed_before,
            5 * 4 * 8);
}

// Cancellation and an expired deadline fail at the first node with the
// frozen message; row budgets trip at the same node whatever the chunk
// size, and a loader over budget rolls its table back.
TEST(GoldenCorpusTest, LifecycleErrorsMatch) {
  for (const CorpusCase& c : testutil::LifecycleCases()) {
    ExpectSweepMatchesGolden(c);
  }
}

// ---------------------------------------------------------------------------
// Chunk-runtime contracts outside the corpus.

// A flow that ends in an operator instead of a Loader (a cube query plan)
// hands its answer back through Run's `sink` out-parameter, with the same
// rows at every chunk size and worker count; flows with no or several
// non-loader sinks are refused before any work.
TEST(EtlChunkRuntimeTest, SinkDatasetIsHandedBackAtEveryChunkSize) {
  auto source = testutil::BuildTypedKeySource(/*seed=*/3);
  Flow flow("sink");
  (void)flow.AddNode(MakeNode("f", OpType::kDatastore, {{"table", "facts"}}));
  (void)flow.AddNode(MakeNode("d", OpType::kDatastore, {{"table", "dims"}}));
  (void)flow.AddNode(
      MakeNode("j", OpType::kJoin, {{"left", "k"}, {"right", "dk"}}));
  (void)flow.AddNode(MakeNode(
      "agg", OpType::kAggregation,
      {{"group", "label"}, {"aggs", "SUM(v) AS sv;COUNT(*) AS n"}}));
  (void)flow.AddEdge("f", "j");
  (void)flow.AddEdge("d", "j");
  (void)flow.AddEdge("j", "agg");

  Executor reference(source.get(), nullptr);
  Dataset want;
  auto serial = reference.Run(flow, ExecOptions{.chunk_size = 1},
                              RetryPolicy{}, nullptr, nullptr, &want);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(want.columns, (std::vector<std::string>{"label", "sv", "n"}));
  EXPECT_TRUE(want.rows.empty());  // The executor hands back chunks.
  EXPECT_GT(want.row_count(), 0);
  for (int64_t chunk_size : {7, 1024}) {
    for (int workers : {1, 4}) {
      Executor executor(source.get(), nullptr);
      Dataset got;
      auto run = executor.Run(
          flow, ExecOptions{.max_workers = workers, .chunk_size = chunk_size},
          RetryPolicy{}, nullptr, nullptr, &got);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(got.columns, want.columns);
      EXPECT_EQ(got.MaterializeRows(), want.MaterializeRows())
          << "chunk_size=" << chunk_size << " workers=" << workers;
    }
  }

  Flow two_sinks = flow;
  (void)two_sinks.AddNode(MakeNode("sel", OpType::kSelection,
                                   {{"predicate", "v > 0"}}));
  (void)two_sinks.AddEdge("f", "sel");
  Flow only_loaders("only_loaders");
  (void)only_loaders.AddNode(
      MakeNode("f", OpType::kDatastore, {{"table", "facts"}}));
  (void)only_loaders.AddNode(
      MakeNode("load", OpType::kLoader, {{"table", "out"}}));
  (void)only_loaders.AddEdge("f", "load");
  for (const Flow* bad : {&two_sinks, &only_loaders}) {
    storage::Database target("dw");
    Executor executor(source.get(), &target);
    Dataset sink;
    auto run = executor.Run(*bad, ExecOptions{}, RetryPolicy{}, nullptr,
                            nullptr, &sink);
    EXPECT_TRUE(run.status().IsInvalidArgument()) << bad->name();
    EXPECT_EQ(target.num_tables(), 0u) << bad->name();
  }
}

TEST(EtlChunkRuntimeTest, BudgetTripChargesAtChunkGranularity) {
  // The kernels charge the budget per chunk, so a row allowance trips
  // mid-node instead of after a whole materialization; the checkpoint is
  // still a resumable node-boundary antichain.
  auto source = BuildRandomSource(/*seed=*/43);
  Flow flow = BuildWideFlow(6);
  RunOutcome serial = RunFlow(*source, flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;

  ResourceBudget budget;
  budget.max_rows_materialized = 10;
  ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
  Checkpoint checkpoint;
  storage::Database target("dw");
  Executor executor(&(*source), &target);
  ExecOptions options;
  options.chunk_size = 4;  // several chunks per node at 10-row allowance
  auto report = executor.Run(flow, options, RetryPolicy{}, &checkpoint, &ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted()) << report.status();
  ASSERT_TRUE(checkpoint.valid);

  ctx.ResetCharges();
  auto resumed = executor.Resume(flow, options, &checkpoint, RetryPolicy{});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

TEST(EtlChunkRuntimeTest, CheckpointResumesAtAnotherChunkSizeAndWorkerCount) {
  // A checkpoint holds chunked datasets cut at the killed run's chunk size;
  // a resume at any other chunk size or worker count consumes them and
  // reaches the reference fingerprint.
  auto source = BuildRandomSource(/*seed=*/47);
  Flow flow = BuildWideFlow(5);
  RunOutcome reference =
      RunFlowOpts(*source, flow, ExecOptions{.chunk_size = 1});
  ASSERT_TRUE(reference.status.ok()) << reference.status;

  struct Arm {
    ExecOptions killed;
    ExecOptions resumed;
  };
  for (const Arm& arm :
       {Arm{{.max_workers = 1, .chunk_size = 8},
            {.max_workers = 4, .chunk_size = 1}},
        Arm{{.max_workers = 4, .chunk_size = 1},
            {.max_workers = 1, .chunk_size = 16}}}) {
    ResourceBudget budget;
    budget.max_rows_materialized = 10;
    ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
    Checkpoint checkpoint;
    storage::Database target("dw");
    Executor executor(&(*source), &target);
    auto killed =
        executor.Run(flow, arm.killed, RetryPolicy{}, &checkpoint, &ctx);
    ASSERT_FALSE(killed.ok());
    ASSERT_TRUE(checkpoint.valid);
    auto resumed =
        executor.Resume(flow, arm.resumed, &checkpoint, RetryPolicy{});
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(target.Fingerprint(), reference.fingerprint)
        << "killed at chunk_size=" << arm.killed.chunk_size
        << " workers=" << arm.killed.max_workers;
  }
}

// A scan cuts each chunk from its table only after that chunk's gate
// passed, so a scan stopped at its first gate has built at most one chunk
// and returns long before a full scan would (cutting the whole table into
// chunks before the first gate made both take the same time). The ratio of
// the best of three stopped runs to the best of three full ones is
// asserted, not a raw time.
TEST(EtlChunkRuntimeTest, ScanStoppedAtItsFirstGateBuildsAtMostOneChunk) {
  storage::Database source("src");
  storage::TableSchema schema("big");
  ASSERT_TRUE(schema.AddColumn({"id", storage::DataType::kInt64, false}).ok());
  ASSERT_TRUE(schema.AddColumn({"s", storage::DataType::kString, true}).ok());
  storage::Table* table = *source.CreateTable(std::move(schema));
  constexpr int64_t kRows = 100000;  // 1563 chunks of 64 rows.
  for (int64_t r = 0; r < kRows; ++r) {
    ASSERT_TRUE(table
                    ->Insert({storage::Value::Int(r),
                              storage::Value::String(
                                  "row" + std::to_string(r % 97))})
                    .ok());
  }
  Flow flow("scan");
  (void)flow.AddNode(MakeNode("scan", OpType::kDatastore, {{"table", "big"}}));
  (void)flow.AddNode(
      MakeNode("n", OpType::kAggregation, {{"aggs", "COUNT(*) AS n"}}));
  (void)flow.AddEdge("scan", "n");
  auto timed_run = [&](Status* status) {
    Executor executor(&source, nullptr);
    Dataset sink;
    Timer timer;
    *status = executor
                  .Run(flow, ExecOptions{.chunk_size = 64}, RetryPolicy{},
                       nullptr, nullptr, &sink)
                  .status();
    return timer.ElapsedMicros();
  };
  fault::Injector& injector = fault::Injector::Instance();
  double full_us = std::numeric_limits<double>::infinity();
  double stopped_us = full_us;
  for (int attempt = 0; attempt < 3; ++attempt) {
    Status status;
    full_us = std::min<double>(full_us, timed_run(&status));
    ASSERT_TRUE(status.ok()) << status;
    injector.ClearConfigs();
    injector.Configure("etl.exec.vec.chunk", {.fail_from_hit = 1});
    injector.Enable(/*seed=*/1);
    stopped_us = std::min<double>(stopped_us, timed_run(&status));
    const int64_t gates = injector.HitCount("etl.exec.vec.chunk");
    injector.Disable();
    injector.ClearConfigs();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(gates, 1) << "the scan stops at its first gate";
  }
  EXPECT_LT(stopped_us * 20, full_us)
      << "stopped scan " << stopped_us << " us, full scan " << full_us
      << " us";
}

}  // namespace
}  // namespace quarry::etl
