// System-level property tests: invariants that must hold for *any*
// requirement stream, checked over a sweep of generated workloads
// (gtest TEST_P over seeds × overlap levels).
//
//  P1  every generated requirement interprets into a sound partial design
//      whose flow validates;
//  P2  after integrating a whole stream, the unified design is sound and
//      satisfies every requirement;
//  P3  removing any one requirement keeps the remaining ones satisfied
//      and the design sound;
//  P4  the unified flow loads exactly the same warehouse contents as
//      running each partial flow separately;
//  P5  integration order does not change what the unified design offers
//      (same fact count, same measure set, soundness, satisfiability).

//  P6  a parallel run of any generated flow executes every node exactly
//      once, in an order consistent with the DAG, and lands on the same
//      warehouse bytes as the serial run;
//  P7  a budget-killed parallel run checkpoints a resumable antichain:
//      resuming converges on the serial result, and resuming *again* is a
//      no-op (idempotence).
//
//  P8  the chunk runtime (DESIGN.md §8) lands on the golden corpus's
//      frozen row-at-a-time bytes and per-node row counts
//      (tests/golden_corpus.h) for ANY chunk size — 1 (every chunk a
//      singleton), 7 (partial last chunk everywhere), 1024 (the default),
//      and rows+1 (one oversized chunk) — with and without the wavefront
//      scheduler underneath.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/exec_context.h"
#include "datagen/tpch.h"
#include "etl/exec/executor.h"
#include "etl_test_util.h"
#include "golden_corpus.h"
#include "integrator/design_integrator.h"
#include "integrator/satisfiability.h"
#include "interpreter/interpreter.h"
#include "mdschema/validator.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace quarry {
namespace {

using integrator::DesignIntegrator;
using interpreter::Interpreter;
using interpreter::PartialDesign;
using req::InformationRequirement;

struct Params {
  uint64_t seed;
  double overlap;
  int n;
};

class WorkloadProperty : public ::testing::TestWithParam<Params> {
 protected:
  WorkloadProperty()
      : onto_(ontology::BuildTpchOntology()),
        mapping_(ontology::BuildTpchMappings()),
        interpreter_(&onto_, &mapping_) {}

  static storage::Database& SharedSource() {
    static storage::Database* db = [] {
      auto* d = new storage::Database("tpch");
      EXPECT_TRUE(datagen::PopulateTpch(d, {0.002, 1}).ok());
      return d;
    }();
    return *db;
  }

  std::vector<InformationRequirement> Workload() const {
    req::WorkloadConfig config;
    config.num_requirements = GetParam().n;
    config.overlap = GetParam().overlap;
    config.seed = GetParam().seed;
    return req::GenerateTpchWorkload(config);
  }

  etl::TableColumns Columns() const {
    etl::TableColumns out;
    for (const std::string& name : SharedSource().TableNames()) {
      std::vector<std::string> cols;
      for (const auto& c :
           (*SharedSource().GetTable(name))->schema().columns()) {
        cols.push_back(c.name);
      }
      out[name] = cols;
    }
    return out;
  }

  std::map<std::string, int64_t> Rows() const {
    std::map<std::string, int64_t> out;
    for (const std::string& name : SharedSource().TableNames()) {
      out[name] =
          static_cast<int64_t>((*SharedSource().GetTable(name))->num_rows());
    }
    return out;
  }

  ontology::Ontology onto_;
  ontology::SourceMapping mapping_;
  Interpreter interpreter_;
};

TEST_P(WorkloadProperty, P1_EveryRequirementInterpretsSound) {
  for (const InformationRequirement& ir : Workload()) {
    auto design = interpreter_.Interpret(ir);
    ASSERT_TRUE(design.ok()) << ir.id << ": " << design.status();
    EXPECT_TRUE(md::CheckSound(design->schema, &onto_).ok()) << ir.id;
    EXPECT_TRUE(design->flow.Validate().ok()) << ir.id;
    EXPECT_TRUE(
        integrator::CheckSatisfies(design->schema, design->flow, ir).ok())
        << ir.id;
  }
}

TEST_P(WorkloadProperty, P2_IntegratedDesignSatisfiesAll) {
  DesignIntegrator design(&onto_, Columns(), Rows());
  for (const InformationRequirement& ir : Workload()) {
    auto partial = interpreter_.Interpret(ir);
    ASSERT_TRUE(partial.ok()) << partial.status();
    auto outcome = design.AddRequirement(ir, *partial);
    ASSERT_TRUE(outcome.ok()) << ir.id << ": " << outcome.status();
  }
  EXPECT_TRUE(design.VerifyAll().ok());
  EXPECT_TRUE(md::CheckSound(design.schema(), &onto_).ok());
}

TEST_P(WorkloadProperty, P3_RemovalKeepsOthersSatisfied) {
  std::vector<InformationRequirement> workload = Workload();
  for (size_t victim = 0; victim < workload.size(); ++victim) {
    DesignIntegrator design(&onto_, Columns(), Rows());
    for (const InformationRequirement& ir : workload) {
      auto partial = interpreter_.Interpret(ir);
      ASSERT_TRUE(partial.ok());
      ASSERT_TRUE(design.AddRequirement(ir, *partial).ok());
    }
    ASSERT_TRUE(design.RemoveRequirement(workload[victim].id).ok())
        << workload[victim].id;
    EXPECT_TRUE(design.VerifyAll().ok()) << "after removing "
                                         << workload[victim].id;
  }
}

TEST_P(WorkloadProperty, P4_UnifiedFlowEqualsSeparateRuns) {
  std::vector<InformationRequirement> workload = Workload();
  DesignIntegrator design(&onto_, Columns(), Rows());
  std::vector<PartialDesign> partials;
  // Where each partial's fact ended up in the unified schema (facts with
  // equal grain merge under the first one's name).
  std::map<std::string, std::string> fact_mapping;
  for (const InformationRequirement& ir : workload) {
    auto partial = interpreter_.Interpret(ir);
    ASSERT_TRUE(partial.ok());
    partials.push_back(*partial);
    auto outcome = design.AddRequirement(ir, partials.back());
    ASSERT_TRUE(outcome.ok()) << ir.id << ": " << outcome.status();
    for (const auto& [from, to] : outcome->md.fact_mapping) {
      fact_mapping[from] = to;
    }
  }
  storage::Database separate("s"), unified("u");
  for (const PartialDesign& partial : partials) {
    ASSERT_TRUE(
        etl::Executor(&SharedSource(), &separate).Run(partial.flow).ok());
  }
  ASSERT_TRUE(
      etl::Executor(&SharedSource(), &unified).Run(design.flow()).ok());

  // Sorted projection of a table onto the given columns.
  auto dump = [](const storage::Table& t,
                 const std::vector<std::string>& columns) {
    std::vector<size_t> idx;
    for (const std::string& c : columns) {
      auto i = t.schema().ColumnIndex(c);
      EXPECT_TRUE(i.has_value()) << c;
      idx.push_back(*i);
    }
    std::vector<std::string> out;
    for (const storage::Row& row : t.rows()) {
      std::string line;
      for (size_t i : idx) line += row[i].ToString() + "|";
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto column_names = [](const storage::Table& t) {
    std::vector<std::string> out;
    for (const auto& c : t.schema().columns()) out.push_back(c.name);
    return out;
  };

  for (const std::string& name : separate.TableNames()) {
    const storage::Table& a = **separate.GetTable(name);
    if (name.rfind("dim_", 0) == 0) {
      // Dimension tables must match exactly (modulo later-filled columns:
      // the unified dim may carry extra attributes from other IRs).
      auto b = unified.GetTable(name);
      ASSERT_TRUE(b.ok()) << name;
      ASSERT_EQ(a.num_rows(), (*b)->num_rows()) << name;
      EXPECT_EQ(dump(a, column_names(a)), dump(**b, column_names(a)))
          << name;
      continue;
    }
    // Fact tables: compare against the merged counterpart, projected onto
    // this partial fact's columns. Same-grain facts with different slicers
    // merge into a NULL-padded union, so unified rows where every one of
    // this partial's measure columns is NULL stem from *other*
    // requirements and are excluded from the comparison.
    auto mapped = fact_mapping.find(name);
    ASSERT_NE(mapped, fact_mapping.end()) << name;
    auto b = unified.GetTable(mapped->second);
    ASSERT_TRUE(b.ok()) << mapped->second;
    std::set<std::string> measure_columns;
    for (const auto& c : a.schema().columns()) {
      if (c.name.rfind("m_", 0) == 0) measure_columns.insert(c.name);
    }
    auto dump_present = [&](const storage::Table& t) {
      std::vector<size_t> idx;
      std::vector<bool> is_measure;
      for (const std::string& c : column_names(a)) {
        auto i = t.schema().ColumnIndex(c);
        EXPECT_TRUE(i.has_value()) << c;
        idx.push_back(*i);
        is_measure.push_back(measure_columns.count(c) > 0);
      }
      std::vector<std::string> out;
      for (const storage::Row& row : t.rows()) {
        bool any_measure_present = false;
        std::string line;
        for (size_t k = 0; k < idx.size(); ++k) {
          if (is_measure[k] && !row[idx[k]].is_null()) {
            any_measure_present = true;
          }
          line += row[idx[k]].ToString() + "|";
        }
        if (any_measure_present) out.push_back(std::move(line));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(dump_present(a), dump_present(**b))
        << name << " vs " << mapped->second;
  }
}

TEST_P(WorkloadProperty, P5_OrderIndependentOffering) {
  std::vector<InformationRequirement> workload = Workload();
  auto build = [&](const std::vector<InformationRequirement>& stream) {
    auto design =
        std::make_unique<DesignIntegrator>(&onto_, Columns(), Rows());
    for (const InformationRequirement& ir : stream) {
      auto partial = interpreter_.Interpret(ir);
      EXPECT_TRUE(partial.ok());
      EXPECT_TRUE(design->AddRequirement(ir, *partial).ok()) << ir.id;
    }
    return design;
  };
  auto forward = build(workload);
  std::vector<InformationRequirement> reversed(workload.rbegin(),
                                               workload.rend());
  auto backward = build(reversed);
  EXPECT_TRUE(forward->VerifyAll().ok());
  EXPECT_TRUE(backward->VerifyAll().ok());
  EXPECT_EQ(forward->schema().facts().size(),
            backward->schema().facts().size());
  auto measure_set = [](const md::MdSchema& schema) {
    std::set<std::string> out;
    for (const md::Fact& fact : schema.facts()) {
      for (const md::Measure& m : fact.measures) out.insert(m.name);
    }
    return out;
  };
  EXPECT_EQ(measure_set(forward->schema()), measure_set(backward->schema()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadProperty,
    ::testing::Values(Params{1, 0.2, 4}, Params{2, 0.5, 4},
                      Params{3, 0.8, 4}, Params{4, 0.2, 7},
                      Params{5, 0.5, 7}, Params{6, 0.8, 7},
                      Params{7, 1.0, 5}, Params{8, 0.0, 5}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "seed" + std::to_string(info.param.seed) + "_ov" +
             std::to_string(static_cast<int>(info.param.overlap * 10)) +
             "_n" + std::to_string(info.param.n);
    });

// ---------------------------------------------------------------------------
// Wavefront-scheduler properties (docs/ROBUSTNESS.md §8) over seeded random
// DAGs: structure varies per seed, the invariants never do.

class SchedulerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerProperty, P6_ParallelRunsAreTopologicalAndExactlyOnce) {
  const uint64_t seed = GetParam();
  auto source = etl::testutil::BuildRandomSource(seed);
  etl::Flow flow = etl::testutil::BuildRandomFlow(seed);
  ASSERT_TRUE(flow.Validate().ok());
  etl::testutil::RunOutcome serial = etl::testutil::RunFlow(*source, flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;

  for (int workers : {2, 4, 8}) {
    storage::Database target("dw");
    etl::Executor executor(&(*source), &target);
    etl::ExecOptions options;
    options.max_workers = workers;
    etl::Checkpoint checkpoint;
    auto report =
        executor.Run(flow, options, etl::RetryPolicy{}, &checkpoint);
    ASSERT_TRUE(report.ok()) << report.status();

    // Exactly once: one stats entry per node, no repeats.
    std::set<std::string> ran;
    for (const etl::NodeStats& stats : report->nodes) {
      EXPECT_TRUE(ran.insert(stats.node_id).second)
          << stats.node_id << " ran twice (workers=" << workers << ")";
    }
    EXPECT_EQ(ran.size(), flow.num_nodes());

    // Dependencies respected: the checkpointed completion order is a
    // topological order of the flow DAG.
    std::set<std::string> seen;
    for (const std::string& id : checkpoint.completed) {
      for (const std::string& pred : flow.Predecessors(id)) {
        EXPECT_TRUE(seen.count(pred) > 0)
            << id << " completed before its input " << pred;
      }
      seen.insert(id);
    }

    // Same bytes as serial.
    EXPECT_EQ(target.Fingerprint(), serial.fingerprint)
        << "seed " << seed << " workers " << workers;
  }
}

TEST_P(SchedulerProperty, P7_AntichainCheckpointResumeIsIdempotent) {
  const uint64_t seed = GetParam();
  auto source = etl::testutil::BuildRandomSource(seed);
  etl::Flow flow = etl::testutil::BuildRandomFlow(seed);
  etl::testutil::RunOutcome serial = etl::testutil::RunFlow(*source, flow, 1);
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  if (serial.report.rows_processed < 4) GTEST_SKIP() << "flow too small";

  // Kill a 4-worker run mid-flight with a row budget that a full run must
  // exceed. Where it trips is nondeterministic; the contract is not.
  ResourceBudget budget;
  budget.max_rows_materialized = serial.report.rows_processed / 2;
  ExecContext ctx(CancellationToken{}, Deadline::Infinite(), budget);
  storage::Database target("dw");
  etl::Executor executor(&(*source), &target);
  etl::ExecOptions options;
  options.max_workers = 4;
  etl::Checkpoint checkpoint;
  auto killed =
      executor.Run(flow, options, etl::RetryPolicy{}, &checkpoint, &ctx);
  ASSERT_FALSE(killed.ok());
  EXPECT_TRUE(killed.status().IsResourceExhausted()) << killed.status();
  ASSERT_TRUE(checkpoint.valid);

  // The completed set is downward-closed, so resuming is well-defined.
  std::set<std::string> completed(checkpoint.completed.begin(),
                                  checkpoint.completed.end());
  for (const std::string& id : completed) {
    for (const std::string& pred : flow.Predecessors(id)) {
      EXPECT_TRUE(completed.count(pred) > 0)
          << id << " checkpointed without its input " << pred;
    }
  }

  // Resume (parallel, no budget) converges on the serial bytes.
  auto resumed = executor.Resume(flow, options, &checkpoint, {});
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint) << "seed " << seed;

  // Resuming the now-complete checkpoint again runs nothing and changes
  // nothing.
  auto again = executor.Resume(flow, options, &checkpoint, {});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->nodes.empty());
  EXPECT_EQ(target.Fingerprint(), serial.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(DagSweep, SchedulerProperty,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Chunk-runtime properties (DESIGN.md §8) over the same seeded random DAGs
// and over the typed-key flows: chunking is an execution detail, so no
// chunk size may ever change the bytes. The sweep deliberately includes
// chunk_size 1 (selection-vector carry-over on singleton chunks), 7 (a
// partial last chunk on nearly every node) and rows+1 (the whole input in
// one oversized chunk); empty intermediate streams arise naturally from
// the generated selections. Every arm is compared with the golden records.

class GoldenCorpusProperty : public ::testing::TestWithParam<uint64_t> {};

void ExpectSweepMatchesGolden(const etl::testutil::CorpusCase& c) {
  for (const std::string& mismatch : etl::testutil::SweepMismatches(c)) {
    ADD_FAILURE() << mismatch;
  }
}

TEST_P(GoldenCorpusProperty, P8_ChunkSizeNeverChangesBytes) {
  const uint64_t seed = GetParam();
  for (const etl::testutil::CorpusCase& c :
       etl::testutil::RandomCases(seed, seed)) {
    ASSERT_TRUE(c.flow.Validate().ok());
    ExpectSweepMatchesGolden(c);
  }
}

// The same sweep over the typed-key flows: single-column INT/DATE/STRING
// join and group keys with NULLs, zero payloads and duplicate build keys,
// plus the INT-vs-DOUBLE join and multi-column keys that stay generic.
TEST_P(GoldenCorpusProperty, P8_TypedKeysNeverChangeBytes) {
  const uint64_t seed = GetParam();
  for (const etl::testutil::CorpusCase& c :
       etl::testutil::TypedKeyCases(seed, seed)) {
    ExpectSweepMatchesGolden(c);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSweep, GoldenCorpusProperty,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace quarry
