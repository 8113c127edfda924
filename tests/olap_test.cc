#include "olap/cube_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/str_util.h"
#include "core/quarry.h"
#include "datagen/tpch.h"
#include "etl/expr.h"
#include "etl/schema_inference.h"
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

// ---------------------------------------------------------------------------
// Independent oracle: a naive group-by over materialized rows with SQL
// semantics. It shares no code with the cube-query compiler or the chunk
// kernels: groups are keyed through a std::map on Value::Compare, inputs are
// folded one Value at a time in row order, joins are nested loops and
// filters go through Expr::Eval (the row interpreter). Answers must match
// it byte for byte — the same groups in the same first-seen order, the same
// Value types, doubles bit for bit (the oracle adds in row order too).

/// Lexicographic Value::Compare: a std::map key order under which equal
/// keys are exactly SameAs-equal ones (NULL = NULL, 1 = 1.0).
struct RowLess {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      const int cmp = a[i].Compare(b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

struct OracleMeasure {
  std::string function;  ///< COUNT, SUM, AVG, MIN or MAX.
  std::string input;     ///< A column, or "*" (COUNT only).
  std::string output;
};

size_t ColumnOf(const std::vector<std::string>& columns,
                const std::string& name) {
  auto it = std::find(columns.begin(), columns.end(), name);
  EXPECT_NE(it, columns.end()) << name;
  return static_cast<size_t>(it - columns.begin());
}

/// SELECT group..., f(input)... FROM rows GROUP BY group, groups in
/// first-seen order. NULL inputs are skipped (COUNT(*) counts rows), an
/// empty group gives COUNT 0 and NULL otherwise; SUM is INT when no input
/// is DOUBLE and adds only numeric inputs; AVG is the numeric sum over the
/// non-NULL count; MIN/MAX keep the first value Value::Compare ranks
/// lowest/highest. No group columns over no rows is no group at all.
etl::Dataset NaiveGroupBy(const std::vector<std::string>& columns,
                          const std::vector<storage::Row>& rows,
                          const std::vector<std::string>& group,
                          const std::vector<OracleMeasure>& measures) {
  std::vector<size_t> group_pos;
  for (const std::string& g : group) group_pos.push_back(ColumnOf(columns, g));
  std::map<storage::Row, size_t, RowLess> index;
  std::vector<storage::Row> keys;
  // inputs[group][measure]: the folded values, in row order.
  std::vector<std::vector<std::vector<Value>>> inputs;
  for (const storage::Row& row : rows) {
    storage::Row key;
    for (size_t p : group_pos) key.push_back(row[p]);
    auto [it, inserted] = index.try_emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      inputs.emplace_back(measures.size());
    }
    for (size_t m = 0; m < measures.size(); ++m) {
      if (measures[m].input == "*") {
        inputs[it->second][m].push_back(Value::Int(1));
        continue;
      }
      const Value& v = row[ColumnOf(columns, measures[m].input)];
      if (!v.is_null()) inputs[it->second][m].push_back(v);
    }
  }
  etl::Dataset out;
  out.columns = group;
  for (const OracleMeasure& m : measures) out.columns.push_back(m.output);
  for (size_t g = 0; g < keys.size(); ++g) {
    storage::Row row = keys[g];
    for (size_t m = 0; m < measures.size(); ++m) {
      const std::vector<Value>& in = inputs[g][m];
      const std::string& f = measures[m].function;
      if (f == "COUNT") {
        row.push_back(Value::Int(static_cast<int64_t>(in.size())));
        continue;
      }
      if (in.empty()) {
        row.push_back(Value::Null());
        continue;
      }
      if (f == "MIN" || f == "MAX") {
        const Value* best = &in[0];
        for (const Value& v : in) {
          const int cmp = v.Compare(*best);
          if (f == "MIN" ? cmp < 0 : cmp > 0) best = &v;
        }
        row.push_back(*best);
        continue;
      }
      double sum = 0;
      int64_t int_sum = 0;
      bool any_double = false;
      for (const Value& v : in) {
        if (!v.is_numeric()) continue;
        sum += v.as_double();
        if (v.is_int()) int_sum += v.as_int();
        any_double = any_double || v.is_double();
      }
      if (f == "AVG") {
        row.push_back(Value::Double(sum / static_cast<double>(in.size())));
      } else {
        row.push_back(any_double ? Value::Double(sum) : Value::Int(int_sum));
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// Rows of `rows` for which `predicate` is true under Expr::Eval.
std::vector<storage::Row> NaiveFilter(const std::vector<std::string>& columns,
                                      const std::vector<storage::Row>& rows,
                                      const std::string& predicate) {
  auto expr = etl::ParseExpr(predicate);
  EXPECT_TRUE(expr.ok()) << predicate;
  std::vector<storage::Row> out;
  if (!expr.ok()) return out;
  for (const storage::Row& row : rows) {
    auto v = (*expr)->Eval(etl::RowView{&columns, &row});
    EXPECT_TRUE(v.ok()) << predicate << ": " << v.status();
    if (v.ok() && etl::ExprTruthy(*v)) out.push_back(row);
  }
  return out;
}

/// Runs `flow` — its one non-loader sink is the answer — over `db` at
/// `chunk_size` and returns the answer's rows.
etl::Dataset RunPlan(const etl::Flow& flow, const storage::Database& db,
                     int64_t chunk_size) {
  etl::Executor executor(&db, /*target=*/nullptr);
  etl::ExecOptions options;
  options.chunk_size = chunk_size;
  etl::Dataset sink;
  auto run = executor.Run(flow, options, etl::RetryPolicy{}, nullptr,
                          nullptr, &sink);
  EXPECT_TRUE(run.ok()) << flow.name() << ": " << run.status();
  etl::Dataset out;
  out.columns = sink.columns;
  out.rows = sink.MaterializeRows();
  return out;
}

constexpr int64_t kOracleChunkSizes[] = {1, 7, 1024};

/// Same columns, and rows equal value for value (Identical) in order.
void ExpectSameRows(const etl::Dataset& got, const etl::Dataset& want,
                    const std::string& what) {
  EXPECT_EQ(got.columns, want.columns) << what;
  ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
  for (size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << what;
    for (size_t c = 0; c < got.rows[r].size(); ++c) {
      EXPECT_TRUE(Identical(got.rows[r][c], want.rows[r][c]))
          << what << " row " << r << " column " << want.columns[c]
          << ": got " << got.rows[r][c].ToString() << ", want "
          << want.rows[r][c].ToString();
    }
  }
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

  /// The oracle's answer to `query` over `db`: every fact row, inner-joined
  /// (nested loops; a NULL key never matches) to the dim table of each
  /// level that provides a wanted non-fact column and whose key columns the
  /// fact carries, in concept-id order, filtered, then grouped naively. A
  /// column name resolves to the fact first, then to the first joined dim.
  etl::Dataset OracleAnswer(const storage::Database& db,
                            const CubeQuery& query) {
    const md::Fact& fact = **quarry_->schema().GetFact(query.fact);
    const storage::Table& fact_table = **db.GetTable(query.fact);
    std::set<std::string> wanted(query.group_by.begin(), query.group_by.end());
    for (const std::string& filter : query.filters) {
      auto predicate = etl::ParseExpr(filter);
      EXPECT_TRUE(predicate.ok()) << filter;
      if (!predicate.ok()) return {};
      for (const std::string& c : (*predicate)->ReferencedColumns()) {
        wanted.insert(c);
      }
    }
    std::vector<std::string> columns;
    for (const storage::Column& c : fact_table.schema().columns()) {
      columns.push_back(c.name);
    }
    struct DimJoin {
      const storage::Table* table = nullptr;
      std::vector<size_t> fact_keys, dim_keys;
      std::set<std::string> provides;
      // Dim rows by key; a key with a NULL part never matches, so it is
      // left out.
      std::map<storage::Row, std::vector<size_t>, RowLess> index;
    };
    std::map<std::string, DimJoin> joins;  // By concept id.
    for (const std::string& column : wanted) {
      if (fact_table.schema().ColumnIndex(column).has_value()) continue;
      for (const md::DimensionRef& ref : fact.dimension_refs) {
        const md::Dimension& dim =
            **quarry_->schema().GetDimension(ref.dimension);
        for (const md::Level& level : dim.levels) {
          if (std::none_of(level.attributes.begin(), level.attributes.end(),
                           [&](const md::LevelAttribute& a) {
                             return a.name == column;
                           })) {
            continue;
          }
          auto cm = *quarry_->mapping().ForConcept(level.concept_id);
          DimJoin join;
          join.table = *db.GetTable("dim_" + level.concept_id);
          bool reachable = true;
          for (const std::string& k : cm.key_columns) {
            auto fp = fact_table.schema().ColumnIndex(k);
            reachable = reachable && fp.has_value();
            if (!reachable) break;
            join.fact_keys.push_back(*fp);
            join.dim_keys.push_back(*join.table->schema().ColumnIndex(k));
          }
          if (!reachable) continue;
          auto [it, inserted] = joins.try_emplace(level.concept_id, join);
          it->second.provides.insert(column);
        }
      }
    }
    auto key_of = [](const storage::Row& row,
                     const std::vector<size_t>& positions) {
      storage::Row key;
      for (size_t p : positions) key.push_back(row[p]);
      return key;
    };
    auto has_null = [](const storage::Row& key) {
      return std::any_of(key.begin(), key.end(),
                         [](const Value& v) { return v.is_null(); });
    };
    for (auto& [concept_id, join] : joins) {
      for (const std::string& c : join.provides) columns.push_back(c);
      for (size_t r = 0; r < join.table->num_rows(); ++r) {
        storage::Row key = key_of(join.table->rows()[r], join.dim_keys);
        if (!has_null(key)) join.index[key].push_back(r);
      }
    }
    // Each fact row times each matching row of every join, in dim order.
    std::vector<storage::Row> rows;
    for (const storage::Row& fact_row : fact_table.rows()) {
      std::vector<storage::Row> partial = {fact_row};
      for (const auto& [concept_id, join] : joins) {
        std::vector<storage::Row> next;
        auto it = join.index.find(key_of(fact_row, join.fact_keys));
        const std::vector<size_t> none;
        for (const storage::Row& left : partial) {
          for (size_t r : it == join.index.end() ? none : it->second) {
            const storage::Row& dim_row = join.table->rows()[r];
            storage::Row wide = left;
            for (const std::string& c : join.provides) {
              wide.push_back(dim_row[*join.table->schema().ColumnIndex(c)]);
            }
            next.push_back(std::move(wide));
          }
        }
        partial = std::move(next);
      }
      rows.insert(rows.end(), partial.begin(), partial.end());
    }
    for (const std::string& filter : query.filters) {
      rows = NaiveFilter(columns, rows, filter);
    }
    std::vector<OracleMeasure> measures;
    for (const QueryMeasure& m : query.measures) {
      measures.push_back({md::AggFuncToEtlName(m.function), m.measure,
                          m.alias.empty() ? m.measure : m.alias});
    }
    return NaiveGroupBy(columns, rows, query.group_by, measures);
  }

  /// Checks the compiled plan of `query` against the oracle at every
  /// oracle chunk size; returns the oracle's answer.
  etl::Dataset ExpectOracleAnswer(const storage::Database& db,
                                  const CubeQuery& query) {
    CubeQueryEngine engine(&quarry_->schema(), &quarry_->mapping(), &db);
    const std::string what = Describe(query);
    auto flow = engine.Compile(query);
    EXPECT_TRUE(flow.ok()) << what << ": " << flow.status();
    if (!flow.ok()) return {};
    ++queries_run_;
    etl::Dataset want = OracleAnswer(db, query);
    for (int64_t chunk_size : kOracleChunkSizes) {
      ExpectSameRows(RunPlan(*flow, db, chunk_size), want,
                     what + " @" + std::to_string(chunk_size));
    }
    return want;
  }

  /// The corpus's check: the loader-path differential, or the oracle.
  etl::Dataset Answer(const storage::Database& db, const CubeQuery& query) {
    return oracle_ ? ExpectOracleAnswer(db, query)
                   : ExpectSameAnswer(db, query);
  }

  /// A copy of the warehouse with NULL measures (SUM/AVG/MIN/MAX skip
  /// them, COUNT counts values; an all-NULL group sums to NULL) and dim
  /// columns where NULL sits next to the zero payload of its type (0, "",
  /// the epoch date): a typed key that hashed a NULL slot's payload would
  /// merge the two groups.
  std::unique_ptr<storage::Database> WithNullMeasuresAndKeys() {
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
            EXPECT_TRUE(table.SetCell(r, col, Value::Null()).ok());
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
        EXPECT_TRUE(table.SetCell(1, c, zero).ok());
        EXPECT_TRUE(table.SetCell(2, c, Value::Null()).ok());
        EXPECT_TRUE(table.SetCell(3, c, zero).ok());
        ++keys_nulled;
      }
    }
    EXPECT_GT(measures_nulled, 0);
    EXPECT_GT(keys_nulled, 0);
    return db;
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
        etl::Dataset answer = Answer(db, q);
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
          Answer(db, q);
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
          Answer(db, q);
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
        Answer(db, q);
        ++fact_local_run_;
      }
    }
  }

  storage::Database src_;
  std::unique_ptr<core::Quarry> quarry_;
  storage::GenerationStore::Pin warehouse_;
  bool oracle_ = false;  ///< RunCorpus checks against the oracle.
  int queries_run_ = 0;
  int slices_run_ = 0;
  int fact_local_run_ = 0;
};

int64_t TypedKeyRuns(const char* op) {
  return obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_typed_key_total", "", {{"op", op}})
      .value();
}

int64_t FastFilterRuns() {
  return obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_fast_filter_total")
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

// NULL measures and NULL group keys next to their type's zero payload
// (WithNullMeasuresAndKeys).
TEST_F(CubeQueryFastPathTest, NullMeasuresAndNullGroupKeysMatch) {
  std::unique_ptr<storage::Database> db = WithNullMeasuresAndKeys();
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

// ---- the independent oracle -------------------------------------------

// The design corpus (every roll-up, pair roll-up, slice and fact-local
// group-by), as deployed and with NULL measures and keys, against the
// oracle at chunk sizes 1, 7 and 1024.
class CubeQueryOracleTest : public CubeQueryFastPathTest {
 protected:
  CubeQueryOracleTest() { oracle_ = true; }
};

TEST_F(CubeQueryOracleTest, DesignCorpusMatchesAtEveryChunkSize) {
  const int64_t typed_aggs = TypedKeyRuns("Aggregation");
  RunCorpus(warehouse_.db());
  EXPECT_GT(queries_run_, 50);
  EXPECT_GT(slices_run_, 0);
  EXPECT_GT(fact_local_run_, 0);
  EXPECT_GT(TypedKeyRuns("Aggregation"), typed_aggs);
}

TEST_F(CubeQueryOracleTest, NullMeasuresAndNullKeysMatchAtEveryChunkSize) {
  std::unique_ptr<storage::Database> db = WithNullMeasuresAndKeys();
  RunCorpus(*db);
  EXPECT_GT(queries_run_, 50);
}

TEST_F(CubeQueryOracleTest, EmptyAnswersMatchAtEveryChunkSize) {
  const md::Fact& fact = quarry_->schema().facts()[0];
  const std::vector<std::string> attrs = RollUpAttributes(fact);
  ASSERT_GE(attrs.size(), 2u);
  for (const std::string& filter :
       {std::string("1 = 0"), attrs[0] + " = 'no such value'"}) {
    CubeQuery q;
    q.fact = fact.name;
    q.group_by = {attrs[0], attrs[1]};
    q.measures = AllFunctions(fact);
    q.filters = {filter};
    EXPECT_TRUE(ExpectOracleAnswer(warehouse_.db(), q).rows.empty());
  }
}

// Crafted inputs the design corpus lacks, each plan against the oracle at
// chunk sizes 1, 7 and 1024:
// - NULLs next to 0, "" and the epoch date in two- and three-column group
//   keys and in a two-column join key;
// - string and date MIN/MAX, and -0.0 next to 0.0 (MIN/MAX keep the first
//   of equal extremes);
// - a measure whose chunks alternate INT and DOUBLE (a Union of an INT and
//   a DOUBLE table), and one whose chunks hold both (the union sorted);
// - empty answers;
// - string slices on every comparison operator: column against literal
//   both ways round, and column against column.
class CubeQueryOracleCraftedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    auto next = [&state](int64_t n) {  // Uniform in [0, n).
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<int64_t>((state >> 33) % static_cast<uint64_t>(n));
    };
    auto maybe = [&next](Value v) {
      return next(6) == 0 ? Value::Null() : std::move(v);
    };
    const char* words[] = {"", "a", "b", "ba", "c"};
    for (const char* name : {"t", "u"}) {
      storage::TableSchema schema(name);
      const bool ints = std::string(name) == "t";
      ASSERT_TRUE(schema.AddColumn({"a", storage::DataType::kInt64, true}).ok());
      ASSERT_TRUE(schema.AddColumn({"b", storage::DataType::kString, true}).ok());
      ASSERT_TRUE(schema.AddColumn({"c", storage::DataType::kDate, true}).ok());
      ASSERT_TRUE(schema
                      .AddColumn({"m",
                                  ints ? storage::DataType::kInt64
                                       : storage::DataType::kDouble,
                                  true})
                      .ok());
      ASSERT_TRUE(schema.AddColumn({"x", storage::DataType::kDouble, true}).ok());
      ASSERT_TRUE(schema.AddColumn({"s", storage::DataType::kString, true}).ok());
      storage::Table* table = *db_.CreateTable(std::move(schema));
      for (int r = 0; r < (ints ? 300 : 120); ++r) {
        const int64_t m = next(30) - 8;
        const double x = static_cast<double>(next(9) - 4) * 0.25;
        ASSERT_TRUE(
            table
                ->Insert({maybe(Value::Int(next(3))),
                          maybe(Value::String(words[next(4)])),
                          maybe(Value::Date(static_cast<int32_t>(next(3)))),
                          maybe(ints ? Value::Int(m)
                                     : Value::Double(static_cast<double>(m) +
                                                     0.5)),
                          maybe(Value::Double(x == 0.0 && next(2) == 0 ? -0.0
                                                                       : x)),
                          maybe(Value::String(words[next(5)]))})
                .ok());
      }
    }
    storage::TableSchema dims("d");
    ASSERT_TRUE(dims.AddColumn({"da", storage::DataType::kInt64, true}).ok());
    ASSERT_TRUE(dims.AddColumn({"db", storage::DataType::kString, true}).ok());
    ASSERT_TRUE(dims.AddColumn({"label", storage::DataType::kString, true}).ok());
    storage::Table* d = *db_.CreateTable(std::move(dims));
    for (int r = 0; r < 14; ++r) {
      ASSERT_TRUE(d->Insert({maybe(Value::Int(next(3))),
                             maybe(Value::String(words[next(4)])),
                             Value::String("l" + std::to_string(next(5)))})
                      .ok());
    }
  }

  const std::vector<storage::Row>& Rows(const std::string& table) const {
    return (*db_.GetTable(table))->rows();
  }

  std::vector<std::string> Columns(const std::string& table) const {
    std::vector<std::string> out;
    for (const storage::Column& c : (*db_.GetTable(table))->schema().columns()) {
      out.push_back(c.name);
    }
    return out;
  }

  /// A plan of `nodes` ending in an Aggregation "agg" over `group` and
  /// `aggs`; `edges` wire the nodes, and the last listed node feeds "agg".
  etl::Flow Plan(const std::string& name, std::vector<etl::Node> nodes,
                 const std::vector<std::pair<std::string, std::string>>& edges,
                 const std::vector<std::string>& group,
                 const std::string& aggs) {
    etl::Flow flow(name);
    const std::string last = nodes.back().id;
    nodes.push_back(PlanNode("agg", etl::OpType::kAggregation,
                             {{"group", Join(group, ",")}, {"aggs", aggs}}));
    for (etl::Node& node : nodes) EXPECT_TRUE(flow.AddNode(node).ok());
    for (const auto& [from, to] : edges) {
      EXPECT_TRUE(flow.AddEdge(from, to).ok());
    }
    EXPECT_TRUE(flow.AddEdge(last, "agg").ok());
    return flow;
  }

  static etl::Node PlanNode(std::string id, etl::OpType type,
                            std::map<std::string, std::string> params) {
    etl::Node node;
    node.id = std::move(id);
    node.type = type;
    node.params = std::move(params);
    return node;
  }

  static etl::Node Scan(const std::string& table) {
    return PlanNode("scan_" + table, etl::OpType::kDatastore,
                    {{"table", table}});
  }

  /// Runs `flow` at every oracle chunk size against the naive group-by of
  /// `rows` (named `columns`).
  void ExpectOracle(const etl::Flow& flow,
                    const std::vector<std::string>& columns,
                    const std::vector<storage::Row>& rows,
                    const std::vector<std::string>& group,
                    const std::string& aggs) {
    auto specs = etl::ParseAggSpecs(aggs);
    ASSERT_TRUE(specs.ok()) << specs.status();
    std::vector<OracleMeasure> measures;
    for (const etl::AggSpec& spec : *specs) {
      measures.push_back({spec.function, spec.input, spec.output});
    }
    const etl::Dataset want = NaiveGroupBy(columns, rows, group, measures);
    for (int64_t chunk_size : kOracleChunkSizes) {
      ExpectSameRows(RunPlan(flow, db_, chunk_size), want,
                     flow.name() + " @" + std::to_string(chunk_size));
    }
    ++plans_run_;
  }

  storage::Database db_{"src"};
  int plans_run_ = 0;
};

const char kAllAggs[] =
    "COUNT(*) AS n;COUNT(m) AS cm;SUM(m) AS sm;AVG(m) AS am;MIN(m) AS mnm;"
    "MAX(m) AS mxm;SUM(x) AS sx;AVG(x) AS ax;MIN(x) AS mnx;MAX(x) AS mxx;"
    "COUNT(s) AS cs;MIN(s) AS mns;MAX(s) AS mxs;MIN(c) AS mnc;MAX(c) AS mxc";

TEST_F(CubeQueryOracleCraftedTest, MultiColumnKeysWithNullsMatch) {
  const int64_t typed_aggs = TypedKeyRuns("Aggregation");
  const int64_t typed_joins = TypedKeyRuns("Join");
  const std::vector<std::vector<std::string>> groups = {
      {"a", "b"}, {"a", "b", "c"}, {"b", "c"}, {"c", "s", "a"}, {"s"}, {}};
  for (const std::vector<std::string>& group : groups) {
    ExpectOracle(Plan("group_" + Join(group, "_"), {Scan("t")}, {}, group,
                      kAllAggs),
                 Columns("t"), Rows("t"), group, kAllAggs);
  }
  // Two-column join key (a, b) = (da, db): NULL never matches, "" and 0
  // do; duplicate dim keys fan out in build order.
  std::vector<std::string> columns = Columns("t");
  for (const std::string& c : Columns("d")) columns.push_back(c);
  std::vector<storage::Row> joined;
  for (const storage::Row& left : Rows("t")) {
    for (const storage::Row& right : Rows("d")) {
      if (left[0].is_null() || left[1].is_null() || right[0].is_null() ||
          right[1].is_null() || left[0].Compare(right[0]) != 0 ||
          left[1].Compare(right[1]) != 0) {
        continue;
      }
      storage::Row row = left;
      row.insert(row.end(), right.begin(), right.end());
      joined.push_back(std::move(row));
    }
  }
  ASSERT_FALSE(joined.empty());
  ExpectOracle(Plan("join_two_columns",
                    {Scan("t"), Scan("d"),
                     PlanNode("j", etl::OpType::kJoin,
                              {{"left", "a,b"}, {"right", "da,db"}})},
                    {{"scan_t", "j"}, {"scan_d", "j"}}, {"label", "c"},
                    kAllAggs),
               columns, joined, {"label", "c"}, kAllAggs);
  const int64_t arms = static_cast<int64_t>(std::size(kOracleChunkSizes));
  EXPECT_EQ(TypedKeyRuns("Aggregation") - typed_aggs, 7 * arms);
  EXPECT_EQ(TypedKeyRuns("Join") - typed_joins, arms);
}

TEST_F(CubeQueryOracleCraftedTest, MeasureRepsMixedAcrossAndWithinChunks) {
  // Union: t's chunks hold INT m, u's DOUBLE m.
  std::vector<storage::Row> both = Rows("t");
  both.insert(both.end(), Rows("u").begin(), Rows("u").end());
  ExpectOracle(Plan("union", {Scan("t"), Scan("u"),
                              PlanNode("un", etl::OpType::kUnion, {})},
                    {{"scan_t", "un"}, {"scan_u", "un"}}, {"a", "b"},
                    kAllAggs),
               Columns("t"), both, {"a", "b"}, kAllAggs);
  // Sorted on m, every chunk but the first and last mixes both types.
  std::vector<storage::Row> sorted = both;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const storage::Row& x, const storage::Row& y) {
                     return x[3].Compare(y[3]) < 0;
                   });
  ExpectOracle(Plan("union_sorted",
                    {Scan("t"), Scan("u"),
                     PlanNode("un", etl::OpType::kUnion, {}),
                     PlanNode("so", etl::OpType::kSort, {{"by", "m"}})},
                    {{"scan_t", "un"}, {"scan_u", "un"}, {"un", "so"}},
                    {"b", "c"}, kAllAggs),
               Columns("t"), sorted, {"b", "c"}, kAllAggs);
}

TEST_F(CubeQueryOracleCraftedTest, EmptyAnswersMatch) {
  for (const std::string& predicate :
       {std::string("a = 99"), std::string("s = 'zz'"), std::string("1 = 0")}) {
    for (const std::vector<std::string>& group :
         {std::vector<std::string>{"a", "b"}, std::vector<std::string>{}}) {
      ExpectOracle(
          Plan("empty", {Scan("t"), PlanNode("sel", etl::OpType::kSelection,
                                             {{"predicate", predicate}})},
               {{"scan_t", "sel"}}, group, kAllAggs),
          Columns("t"), NaiveFilter(Columns("t"), Rows("t"), predicate), group,
          kAllAggs);
    }
  }
}

TEST_F(CubeQueryOracleCraftedTest, StringSlicesOnEveryOperatorMatch) {
  const int64_t fast_before = FastFilterRuns();
  for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
    for (const std::string& predicate :
         {"s " + std::string(op) + " 'b'", "'b' " + std::string(op) + " s",
          "s " + std::string(op) + " b", "s " + std::string(op) + " ''"}) {
      ExpectOracle(
          Plan("slice", {Scan("t"), PlanNode("sel", etl::OpType::kSelection,
                                             {{"predicate", predicate}})},
               {{"scan_t", "sel"}}, {"a", "b"}, kAllAggs),
          Columns("t"), NaiveFilter(Columns("t"), Rows("t"), predicate),
          {"a", "b"}, kAllAggs);
    }
  }
  EXPECT_EQ(plans_run_, 24);
  EXPECT_GT(FastFilterRuns(), fast_before);
}

}  // namespace
}  // namespace quarry::olap
