#ifndef QUARRY_TESTS_ETL_TEST_UTIL_H_
#define QUARRY_TESTS_ETL_TEST_UTIL_H_

// Shared helpers for the executor differential tests (etl_parallel_test.cc),
// the property tests (property_test.cc) and the golden corpus
// (golden_corpus.h): seeded random and typed-key flow generators over
// seeded source databases, and a runner that executes one flow and hands
// back everything the comparisons need.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "common/result.h"
#include "etl/exec/executor.h"
#include "etl/flow.h"
#include "storage/database.h"

namespace quarry::etl::testutil {

inline Node MakeNode(const std::string& id, OpType type,
                     std::map<std::string, std::string> params) {
  Node node;
  node.id = id;
  node.type = type;
  node.params = std::move(params);
  return node;
}

/// Source database with `tables` tables named src0..srcN-1, all sharing the
/// schema (id INT, v INT, w DOUBLE, s STRING) so generated unions and joins
/// always type-check. Row counts and values are seed-deterministic; some
/// cells are NULL to exercise the merge/selection NULL paths.
inline std::unique_ptr<storage::Database> BuildRandomSource(uint64_t seed,
                                                            int tables = 3,
                                                            int max_rows =
                                                                120) {
  using storage::DataType;
  using storage::Value;
  Prng prng(seed * 0x9E3779B97F4A7C15ULL + 1);
  auto db = std::make_unique<storage::Database>("src");
  for (int t = 0; t < tables; ++t) {
    storage::TableSchema schema("src" + std::to_string(t));
    (void)schema.AddColumn({"id", DataType::kInt64, false});
    (void)schema.AddColumn({"v", DataType::kInt64, true});
    (void)schema.AddColumn({"w", DataType::kDouble, true});
    (void)schema.AddColumn({"s", DataType::kString, true});
    storage::Table* table = *db->CreateTable(std::move(schema));
    const int64_t rows = prng.Uniform(1, max_rows);
    for (int64_t r = 0; r < rows; ++r) {
      storage::Row row;
      row.push_back(Value::Int(r));
      row.push_back(prng.Chance(0.1) ? Value::Null()
                                     : Value::Int(prng.Uniform(0, 50)));
      row.push_back(prng.Chance(0.1)
                        ? Value::Null()
                        : Value::Double(prng.UniformDouble() * 100.0));
      row.push_back(prng.Chance(0.1) ? Value::Null()
                                     : Value::String(prng.Word(3)));
      (void)table->Insert(std::move(row));
    }
  }
  return db;
}

/// Builds a random valid flow over BuildRandomSource(seed) tables: a few
/// datastore→extraction roots, then `ops` random operators applied to
/// random live streams (union/join merge two streams), then one loader per
/// remaining stream. Deterministic per seed; every generated flow passes
/// Flow::Validate(). Branchy by construction, so parallel runs actually get
/// concurrent wavefronts.
inline Flow BuildRandomFlow(uint64_t seed, int source_tables = 3,
                            int ops = 12) {
  Prng prng(seed);
  Flow flow("random_" + std::to_string(seed));
  int next_id = 0;
  auto fresh = [&next_id](const char* prefix) {
    return std::string(prefix) + std::to_string(next_id++);
  };

  // A live stream = a node whose dataset is still unconsumed, plus the
  // column list that dataset has (mirrors operator schema semantics).
  struct Stream {
    std::string node;
    std::vector<std::string> columns;
  };
  std::vector<Stream> streams;

  const int roots = static_cast<int>(prng.Uniform(2, 4));
  for (int r = 0; r < roots; ++r) {
    std::string table = "src" + std::to_string(prng.Uniform(
                                    0, source_tables - 1));
    std::string ds = fresh("ds");
    std::string ex = fresh("ex");
    (void)flow.AddNode(MakeNode(ds, OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(MakeNode(ex, OpType::kExtraction, {{"table", table}}));
    (void)flow.AddEdge(ds, ex);
    streams.push_back({ex, {"id", "v", "w", "s"}});
  }

  auto has_column = [](const Stream& s, const std::string& c) {
    return std::find(s.columns.begin(), s.columns.end(), c) !=
           s.columns.end();
  };
  auto unique_columns = [](const std::vector<std::string>& cols) {
    std::vector<std::string> out;
    for (const std::string& c : cols) {
      if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
    }
    return out;
  };

  for (int op = 0; op < ops; ++op) {
    size_t pick = static_cast<size_t>(
        prng.Uniform(0, static_cast<int64_t>(streams.size()) - 1));
    Stream& stream = streams[pick];
    switch (prng.Uniform(0, 6)) {
      case 0: {  // Selection on a numeric column when one exists.
        std::string pred;
        if (has_column(stream, "v")) {
          pred = "v >= " + std::to_string(prng.Uniform(0, 40));
        } else if (has_column(stream, "w")) {
          pred = "w < " + std::to_string(prng.Uniform(10, 90)) + ".0";
        } else {
          pred = stream.columns[0] + " = " + stream.columns[0];
        }
        std::string id = fresh("sel");
        (void)flow.AddNode(
            MakeNode(id, OpType::kSelection, {{"predicate", pred}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        break;
      }
      case 1: {  // Projection onto a random non-empty prefix-ish subset.
        std::vector<std::string> keep;
        for (const std::string& c : stream.columns) {
          if (prng.Chance(0.7)) keep.push_back(c);
        }
        if (keep.empty()) keep.push_back(stream.columns[0]);
        std::string cols;
        for (size_t i = 0; i < keep.size(); ++i) {
          if (i > 0) cols += ",";
          cols += keep[i];
        }
        std::string id = fresh("proj");
        (void)flow.AddNode(
            MakeNode(id, OpType::kProjection, {{"columns", cols}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns = keep;
        break;
      }
      case 2: {  // Function: derive a fresh numeric column.
        if (!has_column(stream, "v")) break;
        std::string col = fresh("f");
        std::string id = fresh("fn");
        (void)flow.AddNode(MakeNode(
            id, OpType::kFunction,
            {{"column", col},
             {"expr", "v * " + std::to_string(prng.Uniform(2, 5)) + " + 1"}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns.push_back(col);
        break;
      }
      case 3: {  // Sort by a random existing column.
        std::string by = stream.columns[static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(stream.columns.size()) - 1))];
        std::string id = fresh("sort");
        (void)flow.AddNode(MakeNode(
            id, OpType::kSort,
            {{"by", by}, {"desc", prng.Chance(0.5) ? "true" : "false"}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        break;
      }
      case 4: {  // Aggregation: group by one column, aggregate another.
        if (stream.columns.size() < 2) break;
        std::string group = stream.columns[0];
        std::string measure = stream.columns[1];
        std::string out_col = fresh("agg_out");
        std::string id = fresh("agg");
        const char* fn = prng.Chance(0.5) ? "SUM" : "COUNT";
        (void)flow.AddNode(MakeNode(
            id, OpType::kAggregation,
            {{"group", group},
             {"aggs", std::string(fn) + "(" + measure + ") AS " + out_col}}));
        (void)flow.AddEdge(stream.node, id);
        stream.node = id;
        stream.columns = {group, out_col};
        break;
      }
      case 5: {  // Union of two schema-identical streams.
        if (streams.size() < 2) break;
        size_t other = static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(streams.size()) - 1));
        if (other == pick || streams[other].columns != stream.columns) break;
        std::string id = fresh("uni");
        (void)flow.AddNode(MakeNode(id, OpType::kUnion, {}));
        (void)flow.AddEdge(stream.node, id);
        (void)flow.AddEdge(streams[other].node, id);
        stream.node = id;
        streams.erase(streams.begin() + static_cast<long>(other));
        break;
      }
      case 6: {  // Join on id, then project away duplicate column names.
        if (streams.size() < 2) break;
        size_t other = static_cast<size_t>(prng.Uniform(
            0, static_cast<int64_t>(streams.size()) - 1));
        if (other == pick) break;
        Stream& right = streams[other];
        if (!has_column(stream, "id") || !has_column(right, "id")) break;
        std::string join_id = fresh("join");
        (void)flow.AddNode(MakeNode(
            join_id, OpType::kJoin,
            {{"left", "id"},
             {"right", "id"},
             {"type", prng.Chance(0.3) ? "left" : "inner"}}));
        (void)flow.AddEdge(stream.node, join_id);
        (void)flow.AddEdge(right.node, join_id);
        std::vector<std::string> merged = stream.columns;
        merged.insert(merged.end(), right.columns.begin(),
                      right.columns.end());
        std::vector<std::string> keep = unique_columns(merged);
        std::string cols;
        for (size_t i = 0; i < keep.size(); ++i) {
          if (i > 0) cols += ",";
          cols += keep[i];
        }
        std::string proj_id = fresh("proj");
        (void)flow.AddNode(
            MakeNode(proj_id, OpType::kProjection, {{"columns", cols}}));
        (void)flow.AddEdge(join_id, proj_id);
        stream.node = proj_id;
        stream.columns = keep;
        streams.erase(streams.begin() + static_cast<long>(other));
        break;
      }
    }
  }

  int table_no = 0;
  for (Stream& stream : streams) {
    std::string id = fresh("load");
    std::map<std::string, std::string> params{
        {"table", "out" + std::to_string(table_no++)}};
    if (has_column(stream, "id") && prng.Chance(0.5)) params["keys"] = "id";
    (void)flow.AddNode(MakeNode(id, OpType::kLoader, std::move(params)));
    (void)flow.AddEdge(stream.node, id);
  }
  return flow;
}

/// Source for the typed-key kernels: "facts" (id INT NOT NULL, k INT,
/// d DATE, s STRING, v INT) and "dims" (dk INT, dd DATE, ds STRING,
/// dx DOUBLE, label STRING). Keys are drawn from small domains, so build
/// keys repeat; every key column has NULLs next to its type's zero payload
/// (0, the epoch date, ""), and dx holds integral doubles that equal INT
/// keys of `k`.
inline std::unique_ptr<storage::Database> BuildTypedKeySource(
    uint64_t seed, int max_rows = 150) {
  using storage::DataType;
  using storage::Value;
  Prng prng(seed * 0x2545F4914F6CDD1DULL + 7);
  const char* words[] = {"", "a", "b", "c"};
  auto maybe = [&prng](Value v) {
    return prng.Chance(0.15) ? Value::Null() : std::move(v);
  };
  auto db = std::make_unique<storage::Database>("src");
  storage::TableSchema facts("facts");
  (void)facts.AddColumn({"id", DataType::kInt64, false});
  (void)facts.AddColumn({"k", DataType::kInt64, true});
  (void)facts.AddColumn({"d", DataType::kDate, true});
  (void)facts.AddColumn({"s", DataType::kString, true});
  (void)facts.AddColumn({"v", DataType::kInt64, true});
  storage::Table* fact_table = *db->CreateTable(std::move(facts));
  const int64_t fact_rows = prng.Uniform(1, max_rows);
  for (int64_t r = 0; r < fact_rows; ++r) {
    (void)fact_table->Insert(
        {Value::Int(r), maybe(Value::Int(prng.Uniform(0, 9))),
         maybe(Value::Date(static_cast<int32_t>(prng.Uniform(0, 5)))),
         maybe(Value::String(words[prng.Uniform(0, 3)])),
         maybe(Value::Int(prng.Uniform(-20, 50)))});
  }
  storage::TableSchema dims("dims");
  (void)dims.AddColumn({"dk", DataType::kInt64, true});
  (void)dims.AddColumn({"dd", DataType::kDate, true});
  (void)dims.AddColumn({"ds", DataType::kString, true});
  (void)dims.AddColumn({"dx", DataType::kDouble, true});
  (void)dims.AddColumn({"label", DataType::kString, true});
  storage::Table* dim_table = *db->CreateTable(std::move(dims));
  const int64_t dim_rows = prng.Uniform(1, max_rows / 4 + 1);
  for (int64_t r = 0; r < dim_rows; ++r) {
    (void)dim_table->Insert(
        {maybe(Value::Int(prng.Uniform(0, 12))),
         maybe(Value::Date(static_cast<int32_t>(prng.Uniform(0, 6)))),
         maybe(Value::String(words[prng.Uniform(0, 3)])),
         maybe(Value::Double(static_cast<double>(prng.Uniform(0, 12)))),
         Value::String(prng.Word(2))});
  }
  return db;
}

/// Flows over BuildTypedKeySource: joins and aggregations keyed on one
/// INT, DATE or STRING column (names start with "typed_"), and ones named
/// "generic_": an INT key joined to a DOUBLE key and a DOUBLE group key,
/// which stay on the generic key path, and INT + STRING two-column keys,
/// which are typed since composite keys are (the names are frozen in the
/// golden records).
inline std::vector<Flow> TypedKeyFlows() {
  std::vector<Flow> flows;
  auto join_flow = [&flows](const std::string& name, const std::string& left,
                            const std::string& right,
                            const std::string& type) {
    Flow flow(name);
    (void)flow.AddNode(
        MakeNode("f", OpType::kDatastore, {{"table", "facts"}}));
    (void)flow.AddNode(MakeNode("sel", OpType::kSelection,
                                {{"predicate", "id >= 3"}}));
    (void)flow.AddNode(MakeNode("d", OpType::kDatastore, {{"table", "dims"}}));
    (void)flow.AddNode(MakeNode(
        "j", OpType::kJoin,
        {{"left", left}, {"right", right}, {"type", type}}));
    (void)flow.AddNode(MakeNode("agg", OpType::kAggregation,
                                {{"group", "label"},
                                 {"aggs", "SUM(v) AS sv;COUNT(*) AS n"}}));
    (void)flow.AddNode(
        MakeNode("load_rows", OpType::kLoader, {{"table", "joined"}}));
    (void)flow.AddNode(
        MakeNode("load_agg", OpType::kLoader, {{"table", "by_label"}}));
    (void)flow.AddEdge("f", "sel");
    (void)flow.AddEdge("sel", "j");
    (void)flow.AddEdge("d", "j");
    (void)flow.AddEdge("j", "load_rows");
    (void)flow.AddEdge("j", "agg");
    (void)flow.AddEdge("agg", "load_agg");
    flows.push_back(std::move(flow));
  };
  join_flow("typed_join_int", "k", "dk", "inner");
  join_flow("typed_join_int_left", "k", "dk", "left");
  join_flow("typed_join_date", "d", "dd", "inner");
  join_flow("typed_join_string", "s", "ds", "left");
  join_flow("generic_join_int_double", "k", "dx", "inner");
  join_flow("generic_join_two_columns", "k,s", "dk,ds", "inner");

  auto agg_flow = [&flows](const std::string& name, const std::string& table,
                           const std::string& group,
                           const std::string& aggs) {
    Flow flow(name);
    (void)flow.AddNode(MakeNode("t", OpType::kDatastore, {{"table", table}}));
    (void)flow.AddNode(MakeNode("agg", OpType::kAggregation,
                                {{"group", group}, {"aggs", aggs}}));
    (void)flow.AddNode(MakeNode("load", OpType::kLoader, {{"table", "out"}}));
    (void)flow.AddEdge("t", "agg");
    (void)flow.AddEdge("agg", "load");
    flows.push_back(std::move(flow));
  };
  const std::string fact_aggs =
      "SUM(v) AS sv;COUNT(v) AS nv;COUNT(*) AS n;AVG(v) AS av;MIN(s) AS mn;"
      "MAX(d) AS mx";
  agg_flow("typed_agg_int", "facts", "k", fact_aggs);
  agg_flow("typed_agg_date", "facts", "d", fact_aggs);
  agg_flow("typed_agg_string", "facts", "s", fact_aggs);
  agg_flow("generic_agg_double", "dims", "dx", "COUNT(*) AS n;MIN(label) AS l");
  agg_flow("generic_agg_two_columns", "facts", "k,s", fact_aggs);
  return flows;
}

/// One executed run: target fingerprint plus everything the differential
/// comparisons look at.
struct RunOutcome {
  Status status = Status::OK();
  uint64_t fingerprint = 0;
  ExecutionReport report;
};

/// Runs `flow` against a fresh target with full control over ExecOptions
/// (worker count and chunk size). The retry/checkpoint/ctx knobs mirror
/// Executor::Run's.
inline RunOutcome RunFlowOpts(const storage::Database& source,
                              const Flow& flow, const ExecOptions& options,
                              const RetryPolicy& retry = {},
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr) {
  storage::Database target("dw");
  Executor executor(&source, &target);
  RunOutcome outcome;
  Result<ExecutionReport> report =
      executor.Run(flow, options, retry, checkpoint, ctx);
  outcome.status = report.status();
  if (report.ok()) outcome.report = std::move(*report);
  outcome.fingerprint = target.Fingerprint();
  return outcome;
}

/// Runs `flow` against a fresh target with the given worker count.
inline RunOutcome RunFlow(const storage::Database& source, const Flow& flow,
                          int workers, const RetryPolicy& retry = {},
                          Checkpoint* checkpoint = nullptr,
                          const ExecContext* ctx = nullptr) {
  ExecOptions options;
  options.max_workers = workers;
  return RunFlowOpts(source, flow, options, retry, checkpoint, ctx);
}

/// Node stats keyed by id — completion order differs between serial and
/// parallel runs, so comparisons must be order-free.
inline std::map<std::string, NodeStats> StatsById(
    const ExecutionReport& report) {
  std::map<std::string, NodeStats> out;
  for (const NodeStats& stats : report.nodes) out[stats.node_id] = stats;
  return out;
}

}  // namespace quarry::etl::testutil

#endif  // QUARRY_TESTS_ETL_TEST_UTIL_H_
