#include "olap/cube_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "common/str_util.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "obs/metrics.h"
#include "ontology/tpch_ontology.h"
#include "requirements/workload.h"

namespace quarry::olap {
namespace {

using req::InformationRequirement;
using storage::Value;

class CubeQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 31}).ok());
    auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                       ontology::BuildTpchMappings(), &src_);
    ASSERT_TRUE(quarry.ok()) << quarry.status();
    quarry_ = std::move(*quarry);
    InformationRequirement ir;
    ir.id = "ir_revenue";
    ir.name = "revenue";
    ir.focus_concept = "Lineitem";
    ir.measures.push_back(
        {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
         md::AggFunc::kSum});
    ir.dimensions.push_back({"Part.p_type"});
    ir.dimensions.push_back({"Supplier.s_name"});
    ASSERT_TRUE(quarry_->AddRequirement(ir).ok());
    auto deployment = quarry_->DeployServing();
    ASSERT_TRUE(deployment.ok() && deployment->success);
    auto pin = quarry_->warehouse().Acquire();
    ASSERT_TRUE(pin.ok()) << pin.status();
    warehouse_ = std::move(*pin);
    engine_ = std::make_unique<CubeQueryEngine>(
        &quarry_->schema(), &quarry_->mapping(), &warehouse_.db());
  }

  storage::Database src_;
  std::unique_ptr<core::Quarry> quarry_;
  storage::GenerationStore::Pin warehouse_;
  std::unique_ptr<CubeQueryEngine> engine_;
};

TEST_F(CubeQueryTest, RollUpByDimensionAttribute) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "total_revenue"}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"p_type", "total_revenue"}));
  // TPC-H part types: 5 distinct values.
  EXPECT_LE(result->rows.size(), 5u);
  EXPECT_GT(result->rows.size(), 0u);
  // The roll-up preserves the grand total.
  double rolled_up = 0;
  for (const storage::Row& row : result->rows) {
    rolled_up += row[1].as_double();
  }
  double fact_total = 0;
  const storage::Table& fact = **warehouse_.db().GetTable("fact_table_revenue");
  auto rev = *fact.schema().ColumnIndex("revenue");
  for (const storage::Row& row : fact.rows()) {
    fact_total += row[rev].as_double();
  }
  EXPECT_NEAR(rolled_up, fact_total, 1e-6 * std::abs(fact_total));
}

TEST_F(CubeQueryTest, GroupByFactColumnNeedsNoJoin) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_partkey"};  // fact-local (grain column)
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto flow = engine_->Compile(query);
  ASSERT_TRUE(flow.ok()) << flow.status();
  for (const auto& [id, node] : flow->nodes()) {
    EXPECT_NE(node.type, etl::OpType::kJoin) << id;
  }
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->rows.size(), 0u);
}

TEST_F(CubeQueryTest, SliceWithDimensionFilter) {
  CubeQuery all;
  all.fact = "fact_table_revenue";
  all.group_by = {"p_type"};
  all.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto unsliced = engine_->Execute(all);
  ASSERT_TRUE(unsliced.ok());

  CubeQuery sliced = all;
  sliced.filters = {"p_type = 'SMALL'"};
  auto result = engine_->Execute(sliced);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].as_string(), "SMALL");
  EXPECT_LT(result->rows.size(), unsliced->rows.size());
}

TEST_F(CubeQueryTest, EmptyAnswerHasColumnsAndNoRows) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "total"},
                    {"revenue", md::AggFunc::kCount, ""}};
  query.filters = {"p_type = 'NO SUCH TYPE'"};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns,
            (std::vector<std::string>{"p_type", "total", "revenue"}));
  EXPECT_TRUE(result->rows.empty());

  // The serving path answers the same empty slice.
  auto served = quarry_->SubmitQuery(query);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->data.columns, result->columns);
  EXPECT_TRUE(served->data.rows.empty());
}

TEST_F(CubeQueryTest, RollUpToALevelTheFactCannotReachFailsAtCompile) {
  // A second requirement rolls the shared Supplier dimension up through
  // Nation to Region, but fact_table_revenue carries only the supplier key
  // and dim tables hold no parent keys to join through.
  auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                     ontology::BuildTpchMappings(), &src_);
  ASSERT_TRUE(quarry.ok()) << quarry.status();
  InformationRequirement revenue;
  revenue.id = "ir_revenue";
  revenue.name = "revenue";
  revenue.focus_concept = "Lineitem";
  revenue.measures.push_back(
      {"revenue", "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)",
       md::AggFunc::kSum});
  revenue.dimensions.push_back({"Supplier.s_name"});
  ASSERT_TRUE((*quarry)->AddRequirement(revenue).ok());
  InformationRequirement cost;
  cost.id = "ir_cost";
  cost.name = "supplycost";
  cost.focus_concept = "Partsupp";
  cost.measures.push_back(
      {"supplycost", "Partsupp.ps_supplycost", md::AggFunc::kSum});
  cost.dimensions.push_back({"Supplier.s_name"});
  cost.dimensions.push_back({"Region.r_name"});
  ASSERT_TRUE((*quarry)->AddRequirement(cost).ok());
  const md::Dimension& supplier =
      **(*quarry)->schema().GetDimension("Supplier");
  ASSERT_TRUE(std::any_of(
      supplier.levels.begin(), supplier.levels.end(),
      [](const md::Level& level) { return level.concept_id == "Region"; }));
  auto deployment = (*quarry)->DeployServing();
  ASSERT_TRUE(deployment.ok() && deployment->success);
  auto warehouse = (*quarry)->warehouse().Acquire();
  ASSERT_TRUE(warehouse.ok()) << warehouse.status();
  const storage::Table& fact =
      **warehouse->db().GetTable("fact_table_revenue");
  ASSERT_FALSE(fact.schema().ColumnIndex("r_regionkey").has_value());
  CubeQueryEngine engine(&(*quarry)->schema(), &(*quarry)->mapping(),
                         &warehouse->db());

  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"r_name"};
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto flow = engine.Compile(query);
  ASSERT_FALSE(flow.ok());
  EXPECT_TRUE(flow.status().IsInvalidArgument()) << flow.status();
  const std::string message = flow.status().ToString();
  EXPECT_NE(message.find("'r_name'"), std::string::npos) << message;
  EXPECT_NE(message.find("'Region'"), std::string::npos) << message;
  EXPECT_NE(message.find("'fact_table_revenue'"), std::string::npos)
      << message;
  EXPECT_TRUE(engine.Execute(query).status().IsInvalidArgument());

  // The supplier level itself stays reachable.
  query.group_by = {"s_name"};
  EXPECT_TRUE(engine.Execute(query).ok());
}

TEST_F(CubeQueryTest, MultipleMeasuresAndFunctions) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, "sum_rev"},
                    {"revenue", md::AggFunc::kAvg, "avg_rev"},
                    {"revenue", md::AggFunc::kMax, "max_rev"},
                    {"revenue", md::AggFunc::kCount, "n"}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->columns.size(), 5u);
  for (const storage::Row& row : result->rows) {
    double sum = row[1].as_double();
    double avg = row[2].as_double();
    double max = row[3].as_double();
    int64_t n = row[4].as_int();
    EXPECT_GT(n, 0);
    EXPECT_NEAR(avg, sum / static_cast<double>(n), 1e-9 * std::abs(sum));
    EXPECT_LE(avg, max + 1e-9);
  }
}

TEST_F(CubeQueryTest, TwoDimensionGroupBy) {
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type", "s_name"};
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->columns.size(), 3u);
  // Finer grain -> at least as many rows as the single-dim roll-up.
  CubeQuery coarse = query;
  coarse.group_by = {"p_type"};
  auto coarse_result = engine_->Execute(coarse);
  ASSERT_TRUE(coarse_result.ok());
  EXPECT_GE(result->rows.size(), coarse_result->rows.size());
}

TEST_F(CubeQueryTest, ErrorsAreDescriptive) {
  CubeQuery bad_fact;
  bad_fact.fact = "fact_ghost";
  bad_fact.measures = {{"revenue", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_fact).status().IsNotFound());

  CubeQuery bad_measure;
  bad_measure.fact = "fact_table_revenue";
  bad_measure.measures = {{"ghost", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_measure).status().IsNotFound());

  CubeQuery bad_column;
  bad_column.fact = "fact_table_revenue";
  bad_column.group_by = {"no_such_attribute"};
  bad_column.measures = {{"revenue", md::AggFunc::kSum, ""}};
  EXPECT_TRUE(engine_->Execute(bad_column).status().IsNotFound());

  CubeQuery no_measures;
  no_measures.fact = "fact_table_revenue";
  EXPECT_TRUE(engine_->Execute(no_measures).status().IsInvalidArgument());
}

TEST_F(CubeQueryTest, ResultMatchesDirectSourceComputation) {
  // Cross-check the whole pipeline: cube result == aggregating the source
  // tables directly (lineitem joined part on the fly).
  CubeQuery query;
  query.fact = "fact_table_revenue";
  query.group_by = {"p_type"};
  query.measures = {{"revenue", md::AggFunc::kSum, ""}};
  auto result = engine_->Execute(query);
  ASSERT_TRUE(result.ok());

  std::map<std::string, double> expected;
  const storage::Table& lineitem = **src_.GetTable("lineitem");
  const storage::Table& part = **src_.GetTable("part");
  std::map<int64_t, std::string> part_type;
  for (const storage::Row& row : part.rows()) {
    part_type[row[0].as_int()] = row[3].as_string();
  }
  auto li_part = *lineitem.schema().ColumnIndex("l_partkey");
  auto li_price = *lineitem.schema().ColumnIndex("l_extendedprice");
  auto li_disc = *lineitem.schema().ColumnIndex("l_discount");
  for (const storage::Row& row : lineitem.rows()) {
    expected[part_type.at(row[li_part].as_int())] +=
        row[li_price].as_double() * (1.0 - row[li_disc].as_double());
  }
  ASSERT_EQ(result->rows.size(), expected.size());
  for (const storage::Row& row : result->rows) {
    double want = expected.at(row[0].as_string());
    EXPECT_NEAR(row[1].as_double(), want, 1e-6 * std::abs(want))
        << row[0].as_string();
  }
}

// ---------------------------------------------------------------------------
// Serving-path differential: Execute — chunk kernels, the answer handed back
// by the executor — against the path it replaced, rebuilt here: the
// compiled plan plus a "__result" Loader, run by the row executor into a
// scratch Database, the rows read back out. Answers must be byte-identical
// (column names, row order, Value types and values) and every node both
// plans share must report the same rows_in/rows_out.

struct LoaderAnswer {
  Status status = Status::OK();
  etl::Dataset data;
  etl::ExecutionReport report;
};

LoaderAnswer RunThroughLoader(const CubeQueryEngine& engine,
                              const storage::Database& db,
                              const CubeQuery& query) {
  LoaderAnswer out;
  auto flow = engine.Compile(query);
  if (!flow.ok()) {
    out.status = flow.status();
    return out;
  }
  etl::Node loader;
  loader.id = "q_result";
  loader.type = etl::OpType::kLoader;
  loader.params = {{"table", "__result"}};
  EXPECT_TRUE(flow->AddNode(loader).ok());
  EXPECT_TRUE(flow->AddEdge("q_agg", "q_result").ok());
  storage::Database scratch("__query");
  etl::Executor executor(&db, &scratch);
  auto run = executor.Run(*flow, etl::RetryPolicy{}, nullptr, nullptr);
  if (!run.ok()) {
    out.status = run.status();
    return out;
  }
  out.report = std::move(*run);
  if (!scratch.HasTable("__result")) {
    // No row reached the loader: the empty answer keeps the columns.
    out.data.columns = query.group_by;
    for (const QueryMeasure& m : query.measures) {
      out.data.columns.push_back(m.alias.empty() ? m.measure : m.alias);
    }
    return out;
  }
  const storage::Table& result = **scratch.GetTable("__result");
  for (const storage::Column& c : result.schema().columns()) {
    out.data.columns.push_back(c.name);
  }
  out.data.rows = result.rows();
  return out;
}

/// Same runtime type and the same payload (doubles bit for bit).
bool Identical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_bool() != b.is_bool() || a.is_int() != b.is_int() ||
      a.is_double() != b.is_double() || a.is_string() != b.is_string() ||
      a.is_date() != b.is_date()) {
    return false;
  }
  if (a.is_double()) {
    const double x = a.as_double();
    const double y = b.as_double();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.SameAs(b);
}

std::string Describe(const CubeQuery& query) {
  std::string out = query.fact + " BY " + Join(query.group_by, ",");
  for (const QueryMeasure& m : query.measures) {
    out += " " + std::string(md::AggFuncToEtlName(m.function)) + "(" +
           m.measure + ")";
  }
  if (!query.filters.empty()) out += " WHERE " + Join(query.filters, " AND ");
  return out;
}

/// `value` as a filter literal; nullopt for types the test does not slice
/// on (doubles would need an exact decimal rendering).
std::optional<std::string> Literal(const Value& value) {
  if (value.is_int()) return value.ToString();
  if (value.is_date()) return "DATE '" + value.ToString() + "'";
  if (value.is_string() && value.as_string().find('\'') == std::string::npos) {
    return "'" + value.as_string() + "'";
  }
  return std::nullopt;
}

class CubeQueryFastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datagen::PopulateTpch(&src_, {0.005, 17}).ok());
    auto quarry = core::Quarry::Create(ontology::BuildTpchOntology(),
                                       ontology::BuildTpchMappings(), &src_);
    ASSERT_TRUE(quarry.ok()) << quarry.status();
    quarry_ = std::move(*quarry);
    // The benchmark's design: six overlapping TPC-H requirements, five
    // facts with roll-ups, slicers and fact-local grain columns.
    req::WorkloadConfig config;
    config.num_requirements = 6;
    config.overlap = 0.6;
    config.seed = 39;
    for (const InformationRequirement& ir : req::GenerateTpchWorkload(config)) {
      ASSERT_TRUE(quarry_->AddRequirement(ir).ok()) << ir.id;
    }
    auto deployment = quarry_->DeployServing();
    ASSERT_TRUE(deployment.ok() && deployment->success);
    auto pin = quarry_->warehouse().Acquire();
    ASSERT_TRUE(pin.ok()) << pin.status();
    warehouse_ = std::move(*pin);
  }

  /// Runs `query` both ways over `db`; returns the fast path's answer.
  etl::Dataset ExpectSameAnswer(const storage::Database& db,
                                const CubeQuery& query) {
    CubeQueryEngine engine(&quarry_->schema(), &quarry_->mapping(), &db);
    const std::string what = Describe(query);
    LoaderAnswer want = RunThroughLoader(engine, db, query);
    QueryProfile profile;
    auto got = engine.Execute(query, nullptr, &profile);
    EXPECT_TRUE(want.status.ok()) << what << ": " << want.status;
    EXPECT_TRUE(got.ok()) << what << ": " << got.status();
    if (!want.status.ok() || !got.ok()) return {};
    ++queries_run_;

    EXPECT_TRUE(got->chunks.empty()) << what;
    EXPECT_EQ(got->columns, want.data.columns) << what;
    EXPECT_EQ(got->rows.size(), want.data.rows.size()) << what;
    for (size_t r = 0; r < std::min(got->rows.size(), want.data.rows.size());
         ++r) {
      const storage::Row& g = got->rows[r];
      const storage::Row& w = want.data.rows[r];
      EXPECT_EQ(g.size(), w.size()) << what << " row " << r;
      for (size_t c = 0; c < std::min(g.size(), w.size()); ++c) {
        EXPECT_TRUE(Identical(g[c], w[c]))
            << what << " row " << r << " column " << want.data.columns[c]
            << ": got " << g[c].ToString() << ", want " << w[c].ToString();
      }
    }

    std::map<std::string, etl::NodeStats> want_nodes;
    for (const etl::NodeStats& n : want.report.nodes) want_nodes[n.node_id] = n;
    EXPECT_EQ(profile.report.nodes.size() + 1, want.report.nodes.size())
        << what << ": the fast plan is the loader plan minus q_result";
    for (const etl::NodeStats& n : profile.report.nodes) {
      auto it = want_nodes.find(n.node_id);
      if (it == want_nodes.end()) {
        ADD_FAILURE() << what << ": node " << n.node_id << " not shared";
        continue;
      }
      EXPECT_EQ(n.rows_in, it->second.rows_in) << what << " " << n.node_id;
      EXPECT_EQ(n.rows_out, it->second.rows_out) << what << " " << n.node_id;
    }
    return std::move(*got);
  }

  /// Every level attribute of `fact`'s dimensions a roll-up can reach (the
  /// fact carries the level's key columns), in schema order.
  std::vector<std::string> RollUpAttributes(const md::Fact& fact) {
    CubeQueryEngine engine(&quarry_->schema(), &quarry_->mapping(),
                           &warehouse_.db());
    std::vector<std::string> out;
    for (const md::DimensionRef& ref : fact.dimension_refs) {
      const md::Dimension& dim = **quarry_->schema().GetDimension(ref.dimension);
      for (const md::Level& level : dim.levels) {
        for (const md::LevelAttribute& attr : level.attributes) {
          if (std::find(out.begin(), out.end(), attr.name) != out.end()) {
            continue;
          }
          CubeQuery probe;
          probe.fact = fact.name;
          probe.group_by = {attr.name};
          probe.measures = {{fact.measures[0].name, md::AggFunc::kSum, ""}};
          if (engine.Compile(probe).ok()) out.push_back(attr.name);
        }
      }
    }
    return out;
  }

  /// SUM of every measure plus COUNT/AVG/MIN/MAX of the first one.
  static std::vector<QueryMeasure> AllFunctions(const md::Fact& fact) {
    std::vector<QueryMeasure> out;
    for (const md::Measure& m : fact.measures) {
      out.push_back({m.name, md::AggFunc::kSum, ""});
    }
    const std::string& first = fact.measures[0].name;
    out.push_back({first, md::AggFunc::kCount, "n_" + first});
    out.push_back({first, md::AggFunc::kAvg, "avg_" + first});
    out.push_back({first, md::AggFunc::kMin, "min_" + first});
    out.push_back({first, md::AggFunc::kMax, "max_" + first});
    return out;
  }

  /// Every roll-up (one attribute, all functions), pair roll-up, slice (a
  /// roll-up filtered on its own first value and on each other attribute's
  /// first value) and fact-local group-by of every fact, over `db`.
  void RunCorpus(const storage::Database& db) {
    for (const md::Fact& fact : quarry_->schema().facts()) {
      const std::vector<std::string> attrs = RollUpAttributes(fact);
      std::map<std::string, std::string> first_value;  // attr -> literal
      for (const std::string& a : attrs) {
        CubeQuery q;
        q.fact = fact.name;
        q.group_by = {a};
        q.measures = AllFunctions(fact);
        etl::Dataset answer = ExpectSameAnswer(db, q);
        for (const storage::Row& row : answer.rows) {
          if (row[0].is_null()) continue;
          if (auto literal = Literal(row[0])) first_value[a] = *literal;
          break;
        }
      }
      for (size_t i = 0; i < attrs.size(); ++i) {
        for (size_t j = i + 1; j < attrs.size(); ++j) {
          CubeQuery q;
          q.fact = fact.name;
          q.group_by = {attrs[i], attrs[j]};
          q.measures = {{fact.measures[0].name, md::AggFunc::kSum, ""}};
          ExpectSameAnswer(db, q);
        }
      }
      for (const std::string& a : attrs) {
        for (const auto& [b, literal] : first_value) {
          CubeQuery q;
          q.fact = fact.name;
          q.group_by = {a};
          q.measures = {{fact.measures[0].name, md::AggFunc::kSum, ""},
                        {fact.measures[0].name, md::AggFunc::kCount, "n"}};
          q.filters = {b + " = " + literal};
          ExpectSameAnswer(db, q);
          ++slices_run_;
        }
      }
      const storage::Table& table = **db.GetTable(fact.name);
      for (const storage::Column& c : table.schema().columns()) {
        if (fact.FindMeasure(c.name) != nullptr) continue;
        CubeQuery q;
        q.fact = fact.name;
        q.group_by = {c.name};
        q.measures = AllFunctions(fact);
        ExpectSameAnswer(db, q);
        ++fact_local_run_;
      }
    }
  }

  storage::Database src_;
  std::unique_ptr<core::Quarry> quarry_;
  storage::GenerationStore::Pin warehouse_;
  int queries_run_ = 0;
  int slices_run_ = 0;
  int fact_local_run_ = 0;
};

int64_t TypedKeyRuns(const char* op) {
  return obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_typed_key_total", "", {{"op", op}})
      .value();
}

TEST_F(CubeQueryFastPathTest, EveryRollUpSliceAndFactLocalGroupByMatches) {
  ASSERT_GE(quarry_->schema().facts().size(), 2u);
  const int64_t typed_joins = TypedKeyRuns("Join");
  const int64_t typed_aggs = TypedKeyRuns("Aggregation");
  RunCorpus(warehouse_.db());
  EXPECT_GT(queries_run_, 50);
  EXPECT_GT(slices_run_, 0);
  EXPECT_GT(fact_local_run_, 0);
  // The corpus went through the typed key paths of both kernels.
  EXPECT_GT(TypedKeyRuns("Join"), typed_joins);
  EXPECT_GT(TypedKeyRuns("Aggregation"), typed_aggs);
}

TEST_F(CubeQueryFastPathTest, EmptyAnswerMatches) {
  const md::Fact& fact = quarry_->schema().facts()[0];
  const std::vector<std::string> attrs = RollUpAttributes(fact);
  ASSERT_FALSE(attrs.empty());
  CubeQuery q;
  q.fact = fact.name;
  q.group_by = {attrs[0]};
  q.measures = AllFunctions(fact);
  q.filters = {"1 = 0"};
  etl::Dataset answer = ExpectSameAnswer(warehouse_.db(), q);
  EXPECT_TRUE(answer.rows.empty());
  EXPECT_EQ(answer.columns.size(), 1 + q.measures.size());
}

// NULL measures (SUM/AVG/MIN/MAX skip them, COUNT counts values; an
// all-NULL group sums to NULL) and group keys where NULL sits next to the
// zero payload of its type (0, "", the epoch date): a typed key that hashed
// a NULL slot's payload would merge the two groups.
TEST_F(CubeQueryFastPathTest, NullMeasuresAndNullGroupKeysMatch) {
  std::unique_ptr<storage::Database> db = warehouse_.db().Clone();
  int measures_nulled = 0;
  int keys_nulled = 0;
  for (const md::Fact& fact : quarry_->schema().facts()) {
    storage::Table& table = **db->GetTable(fact.name);
    for (size_t m = 0; m < fact.measures.size(); ++m) {
      const size_t col = *table.schema().ColumnIndex(fact.measures[m].name);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        // The first measure loses every third value, the others all.
        if (m > 0 || r % 3 == 0) {
          ASSERT_TRUE(table.SetCell(r, col, Value::Null()).ok());
          ++measures_nulled;
        }
      }
    }
  }
  for (const std::string& name : db->TableNames()) {
    if (name.rfind("dim_", 0) != 0) continue;
    storage::Table& table = **db->GetTable(name);
    if (table.num_rows() < 4) continue;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      const storage::Column& column = table.schema().columns()[c];
      Value zero;
      switch (column.type) {
        case storage::DataType::kInt64: zero = Value::Int(0); break;
        case storage::DataType::kString: zero = Value::String(""); break;
        case storage::DataType::kDate: zero = Value::Date(0); break;
        default: continue;
      }
      // Key and indexed columns refuse updates; they stay as they are.
      if (!table.SetCell(0, c, Value::Null()).ok()) continue;
      ASSERT_TRUE(table.SetCell(1, c, zero).ok());
      ASSERT_TRUE(table.SetCell(2, c, Value::Null()).ok());
      ASSERT_TRUE(table.SetCell(3, c, zero).ok());
      ++keys_nulled;
    }
  }
  ASSERT_GT(measures_nulled, 0);
  ASSERT_GT(keys_nulled, 0);
  RunCorpus(*db);
  EXPECT_GT(queries_run_, 50);
}

TEST_F(CubeQueryFastPathTest, DuplicateOutputColumnsFailAtCompile) {
  const md::Fact& fact = quarry_->schema().facts()[0];
  CubeQueryEngine engine(&quarry_->schema(), &quarry_->mapping(),
                         &warehouse_.db());
  CubeQuery q;
  q.fact = fact.name;
  q.measures = {{fact.measures[0].name, md::AggFunc::kSum, "x"},
                {fact.measures[0].name, md::AggFunc::kCount, "x"}};
  EXPECT_TRUE(engine.Compile(q).status().IsInvalidArgument());
  EXPECT_TRUE(engine.Execute(q).status().IsInvalidArgument());
}

}  // namespace
}  // namespace quarry::olap
