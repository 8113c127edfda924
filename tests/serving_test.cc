// Snapshot-isolated serving (docs/ROBUSTNESS.md §9): GenerationStore
// semantics, serve-while-refresh through core::Quarry, publish/retire fault
// handling, the admission gap regression, and request-lifecycle plumbing
// through the cube-query path. The multi-threaded chaos soak lives in
// serving_soak_test.cc.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "common/fault_injection.h"
#include "core/quarry.h"
#include "core/session.h"
#include "datagen/tpch.h"
#include "obs/metrics.h"
#include "ontology/tpch_ontology.h"
#include "storage/generation_store.h"

namespace quarry::core {
namespace {

using req::InformationRequirement;
using storage::GenerationStore;
using storage::GenerationStoreStats;
using storage::Value;

int64_t CounterValue(const std::string& family, const obs::Labels& labels) {
  return obs::MetricsRegistry::Instance().counter(family, "", labels).value();
}

// --- GenerationStore ------------------------------------------------------

std::unique_ptr<storage::Database> TinyDb(int64_t marker) {
  auto db = std::make_unique<storage::Database>("w");
  storage::TableSchema schema("t");
  EXPECT_TRUE(schema.AddColumn({"k", storage::DataType::kInt64, false}).ok());
  auto table = db->CreateTable(std::move(schema));
  EXPECT_TRUE(table.ok());
  EXPECT_TRUE((*table)->Insert({Value::Int(marker)}).ok());
  return db;
}

int64_t Marker(const storage::Database& db) {
  return (*db.GetTable("t"))->rows()[0][0].as_int();
}

TEST(GenerationStoreTest, EmptyStoreHasNothingToPin) {
  GenerationStore store("w");
  EXPECT_EQ(store.current_generation(), 0u);
  EXPECT_FALSE(store.has_generation());
  EXPECT_TRUE(store.Acquire().status().IsNotFound());
  EXPECT_TRUE(store.AcquirePrevious().status().IsNotFound());
  EXPECT_TRUE(store.PublishedFingerprint(1).status().IsNotFound());
  // An empty-store build is a fresh database named after the store.
  EXPECT_EQ(store.BeginBuild()->num_tables(), 0u);
}

TEST(GenerationStoreTest, PublishRetainsCurrentAndPreviousOnly) {
  GenerationStore store("w");
  for (int64_t i = 1; i <= 3; ++i) {
    auto gen = store.Publish(TinyDb(i));
    ASSERT_TRUE(gen.ok()) << gen.status();
    EXPECT_EQ(*gen, static_cast<uint64_t>(i));
  }
  auto current = store.Acquire();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->generation(), 3u);
  EXPECT_EQ(Marker(current->db()), 3);
  auto previous = store.AcquirePrevious();
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->generation(), 2u);
  EXPECT_EQ(Marker(previous->db()), 2);
  // Every published generation keeps its fingerprint on record.
  for (uint64_t g = 1; g <= 3; ++g) {
    EXPECT_TRUE(store.PublishedFingerprint(g).ok()) << g;
  }
  GenerationStoreStats stats = store.stats();
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.retired, 1u);  // gen 1 fell off the current+previous window
  EXPECT_EQ(stats.live_generations, 2);
}

TEST(GenerationStoreTest, PinOutlivesRetirementOfItsGeneration) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  auto pin = store.Acquire();
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(store.Publish(TinyDb(2)).ok());
  ASSERT_TRUE(store.Publish(TinyDb(3)).ok());  // retires generation 1
  // The pinned snapshot is still alive and still reads its exact state.
  EXPECT_TRUE(pin->valid());
  EXPECT_EQ(pin->generation(), 1u);
  EXPECT_EQ(Marker(pin->db()), 1);
  EXPECT_EQ(store.stats().active_pins, 1);
  pin->Release();
  EXPECT_FALSE(pin->valid());
  EXPECT_EQ(store.stats().active_pins, 0);
}

TEST(GenerationStoreTest, BeginBuildClonesWithoutAffectingReaders) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  std::unique_ptr<storage::Database> scratch = store.BeginBuild();
  ASSERT_TRUE(
      (*scratch->GetTable("t"))->Insert({Value::Int(42)}).ok());
  // The scratch mutation is invisible until published.
  auto before = store.Acquire();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before->db().GetTable("t"))->num_rows(), 1u);
  ASSERT_TRUE(store.Publish(std::move(scratch)).ok());
  auto after = store.Acquire();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after->db().GetTable("t"))->num_rows(), 2u);
  // The old pin still reads the old snapshot.
  EXPECT_EQ((*before->db().GetTable("t"))->num_rows(), 1u);
}

TEST(GenerationStoreTest, PublishFaultIsAnO1Rollback) {
  GenerationStore store("w");
  ASSERT_TRUE(store.Publish(TinyDb(1)).ok());
  const uint64_t fp_before = store.Acquire()->db().Fingerprint();

  fault::Injector::Instance().Enable(11);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  auto failed = store.Publish(TinyDb(2));
  EXPECT_FALSE(failed.ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  // Nothing changed: same generation, bit-identical content, no leak.
  EXPECT_EQ(store.current_generation(), 1u);
  EXPECT_EQ(store.Acquire()->db().Fingerprint(), fp_before);
  GenerationStoreStats stats = store.stats();
  EXPECT_EQ(stats.publish_failures, 1u);
  EXPECT_EQ(stats.live_generations, 1);
  // The store is healthy afterwards; ids keep increasing.
  auto next = store.Publish(TinyDb(2));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

TEST(GenerationStoreTest, RetireFaultsDeferButNeverLeak) {
  GenerationStore store("w");
  fault::Injector::Instance().Enable(13);
  fault::Injector::Instance().Configure("storage.generation.retire",
                                        {0.0, 0, /*fail_from_hit=*/1, -1});
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.Publish(TinyDb(i)).ok());
  }
  GenerationStoreStats during = store.stats();
  EXPECT_EQ(during.retired, 0u);
  EXPECT_GE(during.retires_deferred, 3u);
  // Deferred generations are still accounted live — parked, not leaked.
  EXPECT_EQ(during.live_generations, 2 + 3);

  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();
  EXPECT_EQ(store.DrainDeferredRetires(), 3);
  GenerationStoreStats after = store.stats();
  EXPECT_EQ(after.retired, 3u);
  EXPECT_EQ(after.live_generations, 2);
  EXPECT_EQ(after.active_pins, 0);
}

// --- the serving path through core::Quarry --------------------------------

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 29}).ok());
    quarry_ = MakeQuarry({});
  }

  void TearDown() override {
    fault::Injector::Instance().ClearConfigs();
    fault::Injector::Instance().Disable();
  }

  /// A Quarry over `source` (default: the fixture's small TPC-H source)
  /// holding the revenue requirement.
  std::unique_ptr<Quarry> MakeQuarry(QuarryConfig config,
                                     storage::Database* source = nullptr) {
    auto quarry = Quarry::Create(ontology::BuildTpchOntology(),
                                 ontology::BuildTpchMappings(),
                                 source != nullptr ? source : &src_,
                                 std::move(config));
    EXPECT_TRUE(quarry.ok()) << quarry.status();
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_type"});
    ir.dimensions.push_back({"Supplier.s_name"});
    EXPECT_TRUE((*quarry)->AddRequirement(ir).ok());
    return std::move(*quarry);
  }

  static olap::CubeQuery RevenueByType() {
    olap::CubeQuery query;
    query.fact = "fact_table_revenue";
    query.group_by = {"p_type"};
    query.measures = {{"revenue", md::AggFunc::kSum, "total"}};
    return query;
  }

  /// Grand total over a query result (sums the aggregate column).
  static double Total(const etl::Dataset& data) {
    double total = 0;
    for (const storage::Row& row : data.rows) {
      total += row[1].as_double();
    }
    return total;
  }

  /// New part + a lineitem selling it appear in the operational source.
  void GrowSource(int salt) {
    storage::Table* part = *src_.GetTable("part");
    int64_t new_partkey = static_cast<int64_t>(part->num_rows()) + 1;
    ASSERT_TRUE(part->Insert({Value::Int(new_partkey),
                              Value::String("part " + std::to_string(salt)),
                              Value::String("Brand#99"),
                              Value::String("SMALL"),
                              Value::Double(1234.5)})
                    .ok());
    storage::Table* lineitem = *src_.GetTable("lineitem");
    // (l_orderkey, l_linenumber) is the PK: salt the line number so repeated
    // growth rounds stay unique. Each round adds revenue of exactly
    // 100.0 * (1 - 0.0) = 100.0.
    ASSERT_TRUE(lineitem
                    ->Insert({Value::Int(1), Value::Int(1000 + salt),
                              Value::Int(new_partkey), Value::Int(1),
                              Value::Int(3), Value::Double(100.0),
                              Value::Double(0.0), Value::Double(0.0),
                              Value::DateYmd(1995, 6, 1), Value::String("N")})
                    .ok());
  }

  storage::Database src_;
  std::unique_ptr<Quarry> quarry_;
};

TEST_F(ServingTest, DeployServingPublishesTheFirstGeneration) {
  auto outcome = quarry_->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->success);
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
  EXPECT_TRUE(quarry_->warehouse().PublishedFingerprint(1).ok());

  auto result = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->generation, 1u);
  EXPECT_FALSE(result->stale);
  EXPECT_GT(result->data.rows.size(), 0u);
  EXPECT_GT(Total(result->data), 0.0);
}

TEST_F(ServingTest, QueriesKeepTheirSnapshotAcrossRefresh) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  const uint64_t fp_gen1 = pin->db().Fingerprint();

  auto before = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(before.ok());
  GrowSource(1);
  auto refresh = quarry_->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);

  // New queries see the new generation; the inserted lineitem adds revenue.
  auto after = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->generation, 2u);
  EXPECT_NEAR(Total(after->data), Total(before->data) + 100.0, 1e-6);

  // The pre-refresh pin still reads generation 1, bit-identical.
  EXPECT_EQ(pin->db().Fingerprint(), fp_gen1);
  EXPECT_EQ(*quarry_->warehouse().PublishedFingerprint(1), fp_gen1);
}

TEST_F(ServingTest, RefreshServingRequiresADeployedGeneration) {
  EXPECT_TRUE(quarry_->RefreshServing().status().IsNotFound());
}

TEST_F(ServingTest, PublishFaultDuringRefreshKeepsServingTheOldGeneration) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  const uint64_t fp_before = quarry_->warehouse().Acquire()->db().Fingerprint();
  GrowSource(1);

  fault::Injector::Instance().Enable(17);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  EXPECT_FALSE(quarry_->RefreshServing().ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  // O(1) rollback: the half-built scratch was discarded, the served
  // generation is byte-identical, and a later refresh succeeds.
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
  EXPECT_EQ(quarry_->warehouse().Acquire()->db().Fingerprint(), fp_before);
  auto retry = quarry_->RefreshServing();
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);
}

TEST_F(ServingTest, PublishFaultDuringDeployReportsThePublishStage) {
  const uint64_t metadata_before = quarry_->repository().store().Fingerprint();
  fault::Injector::Instance().Enable(19);
  fault::Injector::Instance().Configure("storage.generation.publish",
                                        {0.0, /*trigger_on_hit=*/1, 0, -1});
  auto outcome = quarry_->DeployServing();
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();

  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->success);
  ASSERT_TRUE(outcome->failure.has_value());
  EXPECT_EQ(outcome->failure->stage, "publish");
  EXPECT_TRUE(outcome->failure->rolled_back);
  EXPECT_FALSE(quarry_->warehouse().has_generation());
  // No deployment record claims a deployment that never went live.
  EXPECT_EQ(quarry_->repository().store().Fingerprint(), metadata_before);
  auto deployments = quarry_->repository().store().Get("deployments");
  EXPECT_TRUE(!deployments.ok() || !(*deployments)->Contains("deployment"));

  // The instance recovers without any restore step.
  auto retry = quarry_->DeployServing();
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->success);
  EXPECT_EQ(quarry_->warehouse().current_generation(), 1u);
}

// A refresh that dies mid-flow, after some loaders already merged their
// delta into the build, never exposes that half-refreshed state: the
// published generation does not move, byte for byte.
TEST_F(ServingTest, MidRefreshLoaderFaultNeverMovesTheServedGeneration) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  // Dry run: count the loader executions of one refresh.
  GrowSource(1);
  fault::Injector::Instance().Enable(23);
  ASSERT_TRUE(quarry_->RefreshServing().ok());
  const int64_t loader_runs =
      fault::Injector::Instance().HitCount("etl.exec.Loader.write");
  ASSERT_GE(loader_runs, 2) << "need >= 2 loaders for a torn state";
  const uint64_t fp_served =
      quarry_->warehouse().Acquire()->db().Fingerprint();

  // Fail the LAST loader: every other table has merged its delta by then.
  GrowSource(2);
  fault::Injector::Instance().Enable(23);  // reset counters
  fault::Injector::Instance().Configure("etl.exec.Loader.write",
                                        {0.0, loader_runs, 0, -1});
  EXPECT_FALSE(quarry_->RefreshServing().ok());
  fault::Injector::Instance().ClearConfigs();
  fault::Injector::Instance().Disable();
  EXPECT_EQ(quarry_->warehouse().current_generation(), 2u);
  EXPECT_EQ(quarry_->warehouse().Acquire()->db().Fingerprint(), fp_served);
}

// Regression for the admission gap: the deploy and refresh entry points
// pass the same controller that gates Submit*.
TEST_F(ServingTest, DeployAndRefreshPassTheAdmissionGate) {
  QuarryConfig config;
  config.admission = {/*max_in_flight=*/1, /*max_queue_depth=*/0,
                      /*queue_timeout_millis=*/-1.0, /*lane=*/""};
  std::unique_ptr<Quarry> quarry = MakeQuarry(config);

  auto slot = quarry->admission().Admit();
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(quarry->DeployServing().status().IsOverloaded());
  EXPECT_TRUE(quarry->RefreshServing().status().IsOverloaded());
  slot->Release();

  auto outcome = quarry->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->success);
}

TEST_F(ServingTest, SubmitQueryHonoursTheRequestLifecycle) {
  ASSERT_TRUE(quarry_->DeployServing().ok());

  CancellationToken token;
  token.Cancel("caller went away");
  ExecContext cancelled(token, Deadline::Infinite());
  EXPECT_TRUE(
      quarry_->SubmitQuery(RevenueByType(), {}, &cancelled).status()
          .IsCancelled());

  ExecContext expired(Deadline::After(0));
  EXPECT_TRUE(
      quarry_->SubmitQuery(RevenueByType(), {}, &expired).status()
          .IsDeadlineExceeded());

  // The same plumbing reaches a standalone engine over a pinned generation
  // (the ExecContext parameter of CubeQueryEngine::Execute).
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  auto schema =
      std::static_pointer_cast<const md::MdSchema>(pin->annex());
  ASSERT_NE(schema, nullptr);
  olap::CubeQueryEngine engine(schema.get(), &quarry_->mapping(), &pin->db());
  EXPECT_TRUE(engine.Execute(RevenueByType(), &cancelled).status()
                  .IsCancelled());
  EXPECT_TRUE(engine.Execute(RevenueByType(), &expired).status()
                  .IsDeadlineExceeded());
  EXPECT_TRUE(engine.Execute(RevenueByType(), nullptr).ok());
}

// --- the query path on the chunk kernels -----------------------------------
// SubmitQuery runs its plan serially at the default chunk size whatever
// etl_exec says, so the chunk-level fault site, the per-chunk lifecycle
// checks and the per-chunk budget charges are what a query meets.

TEST_F(ServingTest, QueryChunkFaultSurfacesWithNodeContextAndChangesNothing) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  const uint64_t generation = quarry_->warehouse().current_generation();
  const uint64_t pinned_fp = pin->db().Fingerprint();
  const uint64_t published_fp =
      *quarry_->warehouse().PublishedFingerprint(generation);
  auto answer = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(answer.ok()) << answer.status();

  struct Case {
    const char* name;
    fault::SiteConfig config;
  };
  const Case cases[] = {
      {"transient", {0.0, /*trigger_on_hit=*/3, 0, /*max_failures=*/1}},
      {"permanent", {0.0, 0, /*fail_from_hit=*/1, -1}},
  };
  for (const Case& c : cases) {
    const int64_t failures_before =
        CounterValue("quarry_request_failures_total", {{"kind", "query"}});
    fault::Injector::Instance().Enable(23);
    fault::Injector::Instance().Configure("etl.exec.vec.chunk", c.config);
    auto failed = quarry_->SubmitQuery(RevenueByType());
    ASSERT_FALSE(failed.ok()) << c.name;
    EXPECT_EQ(fault::Injector::Instance().FailureCount("etl.exec.vec.chunk"),
              1)
        << c.name;
    fault::Injector::Instance().ClearConfigs();
    fault::Injector::Instance().Disable();

    // The error names the plan node and its operator, like an ETL fault.
    const std::string message = failed.status().ToString();
    EXPECT_NE(message.find("node 'q_"), std::string::npos)
        << c.name << ": " << message;
    EXPECT_NE(message.find("etl.exec.vec.chunk"), std::string::npos)
        << c.name << ": " << message;
    EXPECT_EQ(
        CounterValue("quarry_request_failures_total", {{"kind", "query"}}),
        failures_before + 1)
        << c.name;
    // A failed read moves nothing: same generation, same bytes.
    EXPECT_EQ(quarry_->warehouse().current_generation(), generation);
    EXPECT_EQ(pin->db().Fingerprint(), pinned_fp);
    EXPECT_EQ(*quarry_->warehouse().PublishedFingerprint(generation),
              published_fp);
    auto again = quarry_->SubmitQuery(RevenueByType());
    ASSERT_TRUE(again.ok()) << c.name << ": " << again.status();
    EXPECT_EQ(again->data.rows, answer->data.rows) << c.name;
  }
}

// A deadline that expires while a fact-local roll-up scans a larger
// warehouse stops the run at the next chunk gate — inside a node, not at
// the node's end. The plan is a chain (q_fact -> q_project -> q_agg) whose
// nodes pass one gate per fact chunk each, so fault injection (no failing
// sites) counting the gates passed tells which node stopped and where. The
// deadline is swept from short to long: too short trips before the plan
// starts (at compile), too long lets the query finish.
TEST_F(ServingTest, QueryDeadlineTripsAtChunkGranularity) {
  storage::Database large;
  ASSERT_TRUE(datagen::PopulateTpch(&large, {0.02, 29}).ok());
  std::unique_ptr<Quarry> quarry = MakeQuarry({}, &large);
  ASSERT_TRUE(quarry->DeployServing().ok());
  olap::CubeQuery scan;
  scan.fact = "fact_table_revenue";
  scan.group_by = {"p_partkey"};
  scan.measures = {{"revenue", md::AggFunc::kSum, ""}};
  const std::string chain[] = {"q_fact", "q_project", "q_agg"};
  fault::Injector& injector = fault::Injector::Instance();

  injector.Enable(5);
  ASSERT_TRUE(quarry->SubmitQuery(scan).ok());
  const int64_t gates_per_node = injector.HitCount("etl.exec.vec.chunk") / 3;
  ASSERT_GE(gates_per_node, 4) << "the scan must span several chunks";

  bool tripped_mid_node = false;
  for (int round = 0; round < 20 && !tripped_mid_node; ++round) {
    for (double millis = 0.005; millis < 100 && !tripped_mid_node;
         millis *= 1.15) {
      injector.Enable(5);  // Resets the hit counters.
      ExecContext ctx(Deadline::After(millis));
      auto result = quarry->SubmitQuery(scan, {}, &ctx);
      if (result.ok()) break;  // Longer deadlines finish too.
      ASSERT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
      const int64_t gates = injector.HitCount("etl.exec.vec.chunk");
      if (gates % gates_per_node == 0) continue;  // At a node boundary.
      const std::string& node = chain[gates / gates_per_node];
      EXPECT_NE(result.status().message().find("node '" + node + "'"),
                std::string::npos)
          << gates << " gates: " << result.status();
      tripped_mid_node = true;
    }
  }
  injector.Disable();
  EXPECT_TRUE(tripped_mid_node);
}

// Row budgets: the kernels charge chunk by chunk and the totals do not
// depend on the chunk size — so a budget trips at the same plan node as
// when the compiled plan runs row at a time (chunk size 1).
TEST_F(ServingTest, QueryRowBudgetTripsAtTheSameNodeAsRowAtATime) {
  ASSERT_TRUE(quarry_->DeployServing().ok());
  auto pin = quarry_->warehouse().Acquire();
  ASSERT_TRUE(pin.ok());
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin->annex());
  olap::CubeQueryEngine engine(schema.get(), &quarry_->mapping(), &pin->db());
  olap::CubeQuery query = RevenueByType();
  query.filters = {"p_type <> 'SMALL'"};
  auto flow = engine.Compile(query);
  ASSERT_TRUE(flow.ok()) << flow.status();
  etl::Executor row_executor(&pin->db(), nullptr);
  const etl::ExecOptions row_at_a_time{.chunk_size = 1};
  auto unbounded = row_executor.Run(*flow, row_at_a_time, etl::RetryPolicy{});
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();

  auto node_of = [](const Status& status) {
    const std::string& m = status.message();
    const size_t at = m.find("node '");
    return at == std::string::npos ? std::string()
                                   : m.substr(at, m.find('\'', at + 6) - at);
  };
  // One budget just inside each node's output: the cumulative row count of
  // the nodes before it plus one.
  int64_t cumulative = 0;
  int trips = 0;
  for (const etl::NodeStats& node : unbounded->nodes) {
    ResourceBudget budget;
    budget.max_rows_materialized = cumulative + 1;
    cumulative += node.rows_out;
    if (node.rows_out == 0) continue;
    ExecContext row_ctx(CancellationToken(), Deadline::Infinite(), budget);
    auto row_run = row_executor.Run(*flow, row_at_a_time, etl::RetryPolicy{},
                                    nullptr, &row_ctx);
    ASSERT_FALSE(row_run.ok()) << node.node_id;
    ASSERT_TRUE(row_run.status().IsResourceExhausted()) << row_run.status();
    ExecContext query_ctx(CancellationToken(), Deadline::Infinite(), budget);
    auto served = quarry_->SubmitQuery(query, {}, &query_ctx);
    ASSERT_FALSE(served.ok()) << node.node_id;
    ASSERT_TRUE(served.status().IsResourceExhausted()) << served.status();
    EXPECT_EQ(node_of(served.status()), node_of(row_run.status()))
        << "budget " << budget.max_rows_materialized << ": "
        << served.status() << " vs " << row_run.status();
    EXPECT_EQ(node_of(served.status()), "node '" + node.node_id)
        << served.status();
    ++trips;
  }
  EXPECT_GE(trips, 4);
}

TEST_F(ServingTest, QueryLaneShedsWithLabelledMetricsWhenSaturated) {
  QuarryConfig config;
  config.serving.query_admission = {/*max_in_flight=*/0, /*max_queue_depth=*/0,
                                    /*queue_timeout_millis=*/-1.0,
                                    /*lane=*/""};
  std::unique_ptr<Quarry> quarry = MakeQuarry(config);
  ASSERT_TRUE(quarry->DeployServing().ok());

  const obs::Labels shed_labels{{"lane", "query"}, {"reason", "queue_full"}};
  const int64_t shed_before =
      CounterValue("quarry_admission_shed_total", shed_labels);
  // Without allow_stale there is no degradation path: kOverloaded.
  EXPECT_TRUE(quarry->SubmitQuery(RevenueByType()).status().IsOverloaded());
  // With allow_stale but NO build in flight the result must still be
  // kOverloaded — stale reads are only for the serve-while-refresh window.
  EXPECT_TRUE(quarry->SubmitQuery(RevenueByType(), {/*allow_stale=*/true})
                  .status()
                  .IsOverloaded());
  EXPECT_EQ(CounterValue("quarry_admission_shed_total", shed_labels),
            shed_before + 2);
}

TEST_F(ServingTest, ColdStartRecoveryServesWithoutRebuildingTheWarehouse) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "quarry_serving_coldstart").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // First process lifetime: durable serving session, deploy, one answer.
  ASSERT_TRUE(
      quarry_->EnableServingDurability(dir + "/" + kWarehouseSubdir).ok());
  auto outcome = quarry_->DeployServing();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->success);
  EXPECT_EQ(outcome->published_generation, 1u);
  ASSERT_TRUE(SaveSession(*quarry_, dir).ok());
  auto before = quarry_->SubmitQuery(RevenueByType());
  ASSERT_TRUE(before.ok()) << before.status();
  const uint64_t fp = quarry_->warehouse().Acquire()->db().Fingerprint();
  quarry_.reset();  // "process exit"

  // Cold start: both substrates recover; no ETL runs before first answer.
  RecoveryReport report;
  auto restarted = OpenDurableServingSession(dir, &src_, {}, &report);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_EQ(report.warehouse.recovered_generation, 1u);
  EXPECT_EQ(report.warehouse.recovered_fingerprint, fp);
  EXPECT_TRUE(report.warehouse.annex_recovered);
  EXPECT_TRUE(report.warehouse.quarantined.empty());
  EXPECT_EQ((*restarted)->recovery_report().warehouse.recovered_generation,
            1u);
  EXPECT_EQ((*restarted)->warehouse().current_generation(), 1u);
  EXPECT_EQ((*restarted)->warehouse().Acquire()->db().Fingerprint(), fp);

  // The recovered generation answers byte-identically, same generation id.
  auto after = (*restarted)->SubmitQuery(RevenueByType());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->generation, before->generation);
  EXPECT_NEAR(Total(after->data), Total(before->data), 1e-9);

  // The annex (the deployed xMD document) survived too: a refresh runs
  // against the recovered schema and commits generation 2 durably.
  GrowSource(7);
  auto refresh = (*restarted)->RefreshServing();
  ASSERT_TRUE(refresh.ok()) << refresh.status();
  EXPECT_EQ((*restarted)->warehouse().current_generation(), 2u);
  auto grown = (*restarted)->SubmitQuery(RevenueByType());
  ASSERT_TRUE(grown.ok());
  EXPECT_NEAR(Total(grown->data), Total(before->data) + 100.0, 1e-6);
  EXPECT_TRUE(
      fs::exists(dir + "/" + kWarehouseSubdir + "/gen-2/MANIFEST.json"));
}

}  // namespace
}  // namespace quarry::core
