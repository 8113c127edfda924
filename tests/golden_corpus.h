#ifndef QUARRY_TESTS_GOLDEN_CORPUS_H_
#define QUARRY_TESTS_GOLDEN_CORPUS_H_

// The executor's golden corpus (DESIGN.md §8): every flow the differential
// tests run, and a frozen record of what the serial row-at-a-time
// reference produced for it — the target fingerprint, rows_processed,
// rows loaded per table, each node's rows_in/rows_out, and for the
// lifecycle cases the error, the failed node and the rolled-back target.
//
// tests/data/golden_corpus.txt holds the records. golden_corpus_gen
// (tests/golden_corpus_gen.cc) rewrites it by running every case serially
// at chunk size 1, which is the row-at-a-time reference:
//
//   ./build/tests/golden_corpus_gen > tests/data/golden_corpus.txt
//
// The committed file was produced by the retired row executor; the tests
// and bench_etl_vectorized run each case at several chunk sizes and worker
// counts and compare the records line for line (GoldenMismatch). A
// regenerated file differs from it only in the running totals of budget
// errors, which move with the per-chunk charge and are not compared.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "datagen/tpch.h"
#include "etl/exec/executor.h"
#include "etl_test_util.h"
#include "interpreter/interpreter.h"
#include "ontology/tpch_ontology.h"
#include "storage/database.h"

#ifndef QUARRY_GOLDEN_CORPUS_PATH
#define QUARRY_GOLDEN_CORPUS_PATH "tests/data/golden_corpus.txt"
#endif

namespace quarry::etl::testutil {

/// How a lifecycle case's ExecContext is armed.
struct Lifecycle {
  enum class Kind { kNone, kCancelled, kExpiredDeadline, kRowBudget };
  Kind kind = Kind::kNone;
  int64_t max_rows = 0;  ///< kRowBudget only.
};

/// One corpus entry: a flow over a source database, optionally run under
/// an armed ExecContext.
struct CorpusCase {
  std::string name;  ///< Unique; the golden file's record key.
  std::shared_ptr<const storage::Database> source;
  Flow flow;
  Lifecycle lifecycle;
};

/// The 20 random flows (seeds 1-20) and the P8 property DAGs (41-48).
inline std::vector<CorpusCase> RandomCases(uint64_t first, uint64_t last) {
  std::vector<CorpusCase> cases;
  for (uint64_t seed = first; seed <= last; ++seed) {
    cases.push_back({"random/" + std::to_string(seed),
                     BuildRandomSource(seed), BuildRandomFlow(seed), {}});
  }
  return cases;
}

/// TypedKeyFlows over BuildTypedKeySource(seed) for each seed in range.
inline std::vector<CorpusCase> TypedKeyCases(uint64_t first, uint64_t last) {
  std::vector<CorpusCase> cases;
  for (uint64_t seed = first; seed <= last; ++seed) {
    std::shared_ptr<const storage::Database> source =
        BuildTypedKeySource(seed);
    for (Flow& flow : TypedKeyFlows()) {
      std::string name =
          "typed/" + std::to_string(seed) + "/" + flow.name();
      cases.push_back({std::move(name), source, std::move(flow), {}});
    }
  }
  return cases;
}

/// The interpreted TPC-H revenue flow (sf 0.005, seed 23).
inline CorpusCase TpchRevenueCase() {
  auto src = std::make_shared<storage::Database>();
  (void)datagen::PopulateTpch(src.get(), {0.005, 23});
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
  Flow flow = design.ok() ? std::move(design->flow) : Flow("interpret_failed");
  return {"tpch/revenue", std::move(src), std::move(flow), {}};
}

/// Builds a flow from (id, type, params) nodes and (from, to) edges.
inline Flow MakeFlow(
    const std::string& name,
    const std::vector<std::tuple<std::string, OpType,
                                 std::map<std::string, std::string>>>& nodes,
    const std::vector<std::pair<std::string, std::string>>& edges) {
  Flow flow(name);
  for (const auto& [id, type, params] : nodes) {
    (void)flow.AddNode(MakeNode(id, type, params));
  }
  for (const auto& [from, to] : edges) (void)flow.AddEdge(from, to);
  return flow;
}

/// Stream shapes chunk boundaries could disturb: a selection that empties
/// everything downstream, chained selections composing selection vectors,
/// and a projection onto zero columns that still carries rows into
/// COUNT(*) and into a Loader.
inline std::vector<CorpusCase> ShapeCases() {
  std::vector<CorpusCase> cases;
  cases.push_back(
      {"shape/empty_stream", BuildRandomSource(41),
       MakeFlow("empty_stream",
                {{"ds", OpType::kDatastore, {{"table", "src0"}}},
                 {"ex", OpType::kExtraction, {{"table", "src0"}}},
                 {"sel", OpType::kSelection, {{"predicate", "v < -1"}}},
                 {"agg", OpType::kAggregation,
                  {{"group", "id"}, {"aggs", "SUM(v) AS total"}}},
                 {"load_rows", OpType::kLoader, {{"table", "out_rows"}}},
                 {"load_agg", OpType::kLoader, {{"table", "out_agg"}}}},
                {{"ds", "ex"},
                 {"ex", "sel"},
                 {"sel", "agg"},
                 {"sel", "load_rows"},
                 {"agg", "load_agg"}}),
       {}});
  cases.push_back(
      {"shape/chained_selections", BuildRandomSource(37),
       MakeFlow("chained_sel",
                {{"ds", OpType::kDatastore, {{"table", "src0"}}},
                 {"ex", OpType::kExtraction, {{"table", "src0"}}},
                 {"s1", OpType::kSelection, {{"predicate", "v >= 10"}}},
                 {"s2", OpType::kSelection, {{"predicate", "v < 40"}}},
                 {"s3", OpType::kSelection, {{"predicate", "id >= 2"}}},
                 {"fn", OpType::kFunction,
                  {{"column", "f"}, {"expr", "v * 2 + 1"}}},
                 {"proj", OpType::kProjection, {{"columns", "id,f,s"}}},
                 {"load", OpType::kLoader, {{"table", "out"}}}},
                {{"ds", "ex"},
                 {"ex", "s1"},
                 {"s1", "s2"},
                 {"s2", "s3"},
                 {"s3", "fn"},
                 {"fn", "proj"},
                 {"proj", "load"}}),
       {}});
  cases.push_back(
      {"shape/zero_columns", BuildRandomSource(5),
       MakeFlow("zero_columns",
                {{"ds", OpType::kDatastore, {{"table", "src0"}}},
                 {"sel", OpType::kSelection, {{"predicate", "v >= 10"}}},
                 {"none", OpType::kProjection, {{"columns", ""}}},
                 {"cnt", OpType::kAggregation,
                  {{"group", ""}, {"aggs", "COUNT(*) AS n"}}},
                 {"load_cnt", OpType::kLoader, {{"table", "counts"}}},
                 {"load_none", OpType::kLoader, {{"table", "blank"}}}},
                {{"ds", "sel"},
                 {"sel", "none"},
                 {"none", "cnt"},
                 {"cnt", "load_cnt"},
                 {"none", "load_none"}}),
       {}});
  return cases;
}

/// Sort, Union and SurrogateKey over BuildTypedKeySource(seed): multi-key
/// and descending sorts with NULLs and ties, a sort over a selection, a
/// three-way union, and surrogate keys on typed INT/DATE/STRING columns
/// with NULLs, a DOUBLE column and a two-column key.
inline std::vector<CorpusCase> OperatorCases(uint64_t first, uint64_t last) {
  std::vector<CorpusCase> cases;
  auto skey = [](const std::string& name, const std::string& table,
                 const std::string& keys) {
    return MakeFlow(name,
                    {{"t", OpType::kDatastore, {{"table", table}}},
                     {"sk", OpType::kSurrogateKey,
                      {{"column", "sid"}, {"keys", keys}}},
                     {"load", OpType::kLoader, {{"table", "out"}}}},
                    {{"t", "sk"}, {"sk", "load"}});
  };
  for (uint64_t seed = first; seed <= last; ++seed) {
    std::shared_ptr<const storage::Database> source =
        BuildTypedKeySource(seed);
    std::vector<Flow> flows;
    flows.push_back(MakeFlow(
        "sort_two_keys",
        {{"f", OpType::kDatastore, {{"table", "facts"}}},
         {"so", OpType::kSort, {{"by", "k,s"}}},
         {"load", OpType::kLoader, {{"table", "out"}}}},
        {{"f", "so"}, {"so", "load"}}));
    flows.push_back(MakeFlow(
        "sort_desc_after_selection",
        {{"f", OpType::kDatastore, {{"table", "facts"}}},
         {"sel", OpType::kSelection, {{"predicate", "v > 0"}}},
         {"so", OpType::kSort, {{"by", "d"}, {"desc", "true"}}},
         {"load", OpType::kLoader, {{"table", "out"}}}},
        {{"f", "sel"}, {"sel", "so"}, {"so", "load"}}));
    flows.push_back(MakeFlow(
        "union_three",
        {{"f", OpType::kDatastore, {{"table", "facts"}}},
         {"a", OpType::kSelection, {{"predicate", "v > 10"}}},
         {"b", OpType::kSelection, {{"predicate", "k < 4"}}},
         {"u", OpType::kUnion, {}},
         {"sk", OpType::kSurrogateKey, {{"column", "sid"}, {"keys", "s"}}},
         {"so", OpType::kSort, {{"by", "sid,id"}, {"desc", "true"}}},
         {"load", OpType::kLoader, {{"table", "out"}}}},
        {{"f", "a"},
         {"f", "b"},
         {"a", "u"},
         {"b", "u"},
         {"f", "u"},
         {"u", "sk"},
         {"sk", "so"},
         {"so", "load"}}));
    flows.push_back(skey("skey_int", "facts", "k"));
    flows.push_back(skey("skey_date", "facts", "d"));
    flows.push_back(skey("skey_string", "facts", "s"));
    flows.push_back(skey("skey_double", "dims", "dx"));
    flows.push_back(skey("skey_two_columns", "facts", "k,s"));
    for (Flow& flow : flows) {
      std::string name = "ops/" + std::to_string(seed) + "/" + flow.name();
      cases.push_back({std::move(name), source, std::move(flow), {}});
    }
  }
  return cases;
}

/// ds -> ex -> sel(qty >= 0) -> keyed load: 4 source rows, 3 loaded.
inline std::shared_ptr<const storage::Database> LifecycleSource() {
  using storage::Value;
  auto db = std::make_shared<storage::Database>("src");
  storage::TableSchema sales("sales");
  (void)sales.AddColumn({"id", storage::DataType::kInt64, false});
  (void)sales.AddColumn({"qty", storage::DataType::kInt64, true});
  storage::Table* t = *db->CreateTable(sales);
  (void)t->InsertAll({{Value::Int(1), Value::Int(2)},
                      {Value::Int(2), Value::Int(5)},
                      {Value::Int(3), Value::Int(1)},
                      {Value::Int(4), Value::Null()}});
  return db;
}

/// The lifecycle error surface: a cancelled token and an expired deadline
/// fail before the first node; a row budget of 9 trips at the selection
/// and one of 12 at the loader, whose table must roll back.
inline std::vector<CorpusCase> LifecycleCases() {
  using Kind = Lifecycle::Kind;
  std::shared_ptr<const storage::Database> source = LifecycleSource();
  Flow flow = MakeFlow(
      "tiny",
      {{"ds", OpType::kDatastore, {{"table", "sales"}}},
       {"ex", OpType::kExtraction, {{"table", "sales"}}},
       {"sel", OpType::kSelection, {{"predicate", "qty >= 0"}}},
       {"load", OpType::kLoader, {{"table", "out"}, {"keys", "id"}}}},
      {{"ds", "ex"}, {"ex", "sel"}, {"sel", "load"}});
  return {{"lifecycle/clean", source, flow, {}},
          {"lifecycle/cancelled", source, flow, {Kind::kCancelled}},
          {"lifecycle/expired_deadline", source, flow,
           {Kind::kExpiredDeadline}},
          {"lifecycle/row_budget_9", source, flow, {Kind::kRowBudget, 9}},
          {"lifecycle/row_budget_12", source, flow, {Kind::kRowBudget, 12}}};
}

/// bench_etl_vectorized's flows over TPC-H at scale factor `sf` (seed 23):
/// a lineitem scan -> filter (l_quantity < 24) -> derived revenue ->
/// projection front, feeding a GROUP BY l_returnflag (scan_agg) or a
/// loader of every surviving row (filter_project_load).
inline std::vector<CorpusCase> BenchCases(double sf) {
  auto src = std::make_shared<storage::Database>("tpch");
  (void)datagen::PopulateTpch(src.get(), {sf, 23});
  const std::vector<std::tuple<std::string, OpType,
                               std::map<std::string, std::string>>>
      front = {
          {"ds", OpType::kDatastore, {{"table", "lineitem"}}},
          {"ex", OpType::kExtraction, {{"table", "lineitem"}}},
          {"sel", OpType::kSelection, {{"predicate", "l_quantity < 24"}}},
          {"fn", OpType::kFunction,
           {{"column", "revenue"},
            {"expr", "l_extendedprice * (1 - l_discount)"}}},
          {"proj", OpType::kProjection,
           {{"columns", "l_returnflag,l_quantity,revenue"}}}};
  const std::vector<std::pair<std::string, std::string>> front_edges = {
      {"ds", "ex"}, {"ex", "sel"}, {"sel", "fn"}, {"fn", "proj"}};
  auto nodes = front;
  auto edges = front_edges;
  nodes.push_back({"agg", OpType::kAggregation,
                   {{"group", "l_returnflag"},
                    {"aggs", "SUM(revenue) AS revenue"}}});
  nodes.push_back({"load", OpType::kLoader, {{"table", "fact_revenue"}}});
  edges.push_back({"proj", "agg"});
  edges.push_back({"agg", "load"});
  Flow scan_agg = MakeFlow("scan_agg", nodes, edges);
  nodes = front;
  edges = front_edges;
  nodes.push_back({"load", OpType::kLoader, {{"table", "wide_out"}}});
  edges.push_back({"proj", "load"});
  Flow filter_project_load = MakeFlow("filter_project_load", nodes, edges);

  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", sf);
  const std::string prefix = std::string("bench/") + scale + "/";
  return {{prefix + "scan_agg", src, std::move(scan_agg), {}},
          {prefix + "filter_project_load", src,
           std::move(filter_project_load), {}}};
}

/// Every case, in golden-file order.
inline std::vector<CorpusCase> AllCases() {
  std::vector<CorpusCase> all;
  auto append = [&all](std::vector<CorpusCase> more) {
    for (CorpusCase& c : more) all.push_back(std::move(c));
  };
  append(RandomCases(1, 20));
  append(RandomCases(41, 48));
  append({TpchRevenueCase()});
  append(TypedKeyCases(1, 4));
  append(TypedKeyCases(41, 48));
  append(ShapeCases());
  append(OperatorCases(1, 4));
  append(LifecycleCases());
  for (double sf : {0.005, 0.01, 0.02}) append(BenchCases(sf));
  return all;
}

/// A run of one case: its outcome plus, when it failed, the failed node.
struct CaseRun {
  RunOutcome outcome;
  std::string failed_node;
};

/// Runs `c` against a fresh target under `options` (a lifecycle case gets
/// its armed context and a checkpoint, which names the failed node).
inline CaseRun RunCase(const CorpusCase& c, const ExecOptions& options) {
  using Kind = Lifecycle::Kind;
  std::unique_ptr<ExecContext> ctx;
  switch (c.lifecycle.kind) {
    case Kind::kNone:
      break;
    case Kind::kCancelled: {
      CancellationToken token;
      token.Cancel("caller gave up");
      ctx = std::make_unique<ExecContext>(token, Deadline::Infinite());
      break;
    }
    case Kind::kExpiredDeadline:
      ctx = std::make_unique<ExecContext>(Deadline::After(0.0));
      break;
    case Kind::kRowBudget: {
      ResourceBudget budget;
      budget.max_rows_materialized = c.lifecycle.max_rows;
      ctx = std::make_unique<ExecContext>(CancellationToken(),
                                          Deadline::Infinite(), budget);
      break;
    }
  }
  CaseRun run;
  Checkpoint checkpoint;
  run.outcome = RunFlowOpts(*c.source, c.flow, options, RetryPolicy{},
                            ctx != nullptr ? &checkpoint : nullptr,
                            ctx.get());
  run.failed_node = checkpoint.failed_node;
  return run;
}

/// The golden lines of one run: one `run` line (or `error` line) and one
/// `node` line per executed node, sorted by node id.
inline std::vector<std::string> RecordLines(const std::string& name,
                                            const CaseRun& run) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, run.outcome.fingerprint);
  if (!run.outcome.status.ok()) {
    return {"error " + name + " fp=" + fp + " failed=" + run.failed_node +
            " " + run.outcome.status.ToString()};
  }
  const ExecutionReport& report = run.outcome.report;
  std::string loaded;
  for (const auto& [table, rows] : report.loaded) {
    loaded += (loaded.empty() ? "" : ",") + table + ":" + std::to_string(rows);
  }
  std::vector<std::string> lines = {
      "run " + name + " fp=" + fp +
      " rows_processed=" + std::to_string(report.rows_processed) +
      " loaded=" + loaded};
  for (const auto& [id, stats] : StatsById(report)) {
    lines.push_back("node " + name + " " + id + " " +
                    std::to_string(stats.rows_in) + " " +
                    std::to_string(stats.rows_out));
  }
  return lines;
}

/// Golden records by case name, lines in file order ('#' lines skipped).
inline const std::map<std::string, std::vector<std::string>>& Golden() {
  static const std::map<std::string, std::vector<std::string>> golden = [] {
    std::map<std::string, std::vector<std::string>> out;
    std::ifstream in(QUARRY_GOLDEN_CORPUS_PATH);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      size_t name_begin = line.find(' ') + 1;
      size_t name_end = line.find(' ', name_begin);
      out[line.substr(name_begin, name_end - name_begin)].push_back(line);
    }
    return out;
  }();
  return golden;
}

/// A budget error names where it tripped, then the running total, which
/// moves with the per-chunk charge granularity; only the former is
/// compared.
inline std::string ComparableLine(const std::string& line) {
  size_t at = line.find(" budget exhausted at ");
  if (line.rfind("error ", 0) != 0 || at == std::string::npos) return line;
  return line.substr(0, line.find(": ", at));
}

/// Empty when `run` of case `c` reproduces its golden record exactly;
/// otherwise says where it differs. `arm` names the run's configuration.
inline std::string GoldenMismatch(const CorpusCase& c, const CaseRun& run,
                                  const std::string& arm) {
  auto it = Golden().find(c.name);
  if (it == Golden().end()) {
    return "no golden record for '" + c.name + "' in " +
           QUARRY_GOLDEN_CORPUS_PATH;
  }
  std::vector<std::string> got = RecordLines(c.name, run);
  std::string diff;
  for (size_t i = 0; i < std::max(got.size(), it->second.size()); ++i) {
    std::string line = i < got.size() ? ComparableLine(got[i]) : "";
    std::string want =
        i < it->second.size() ? ComparableLine(it->second[i]) : "";
    if (line != want) diff += "\n  got:  " + line + "\n  want: " + want;
  }
  return diff.empty() ? diff : c.name + " (" + arm + ")" + diff;
}

/// Chunk sizes of the sweep for a case: 1 (the row-at-a-time reference),
/// 7 (a partial last chunk on nearly every node), 1024 (the default) and
/// rows+1, one oversized chunk, taken from the golden rows_processed.
inline std::vector<int64_t> SweepChunkSizes(const CorpusCase& c) {
  int64_t rows = 0;
  auto it = Golden().find(c.name);
  if (it != Golden().end()) {
    size_t at = it->second[0].find(" rows_processed=");
    if (at != std::string::npos) {
      rows = std::stoll(it->second[0].substr(at + 16));
    }
  }
  return {1, 7, 1024, rows + 1};
}

/// Runs `c` at every swept chunk size on 1 and 4 workers; returns the
/// mismatches with the golden record (empty when every run matches).
inline std::vector<std::string> SweepMismatches(const CorpusCase& c) {
  std::vector<std::string> mismatches;
  for (int64_t chunk_size : SweepChunkSizes(c)) {
    for (int workers : {1, 4}) {
      ExecOptions options;
      options.max_workers = workers;
      options.chunk_size = chunk_size;
      std::string diff = GoldenMismatch(
          c, RunCase(c, options),
          "chunk_size=" + std::to_string(chunk_size) +
              " workers=" + std::to_string(workers));
      if (!diff.empty()) mismatches.push_back(std::move(diff));
    }
  }
  return mismatches;
}

}  // namespace quarry::etl::testutil

#endif  // QUARRY_TESTS_GOLDEN_CORPUS_H_
