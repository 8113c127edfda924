#include "etl/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "etl/exec/kernel_util.h"
#include "etl/exec/scheduler.h"
#include "etl/expr.h"
#include "etl/schema_inference.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace quarry::etl {

using storage::DataType;
using storage::Row;
using storage::Value;
using kernel::AggState;
using kernel::ColumnPositions;
using kernel::ExtractKey;
using kernel::Param;
using kernel::RowKeyEq;
using kernel::RowKeyHash;
using kernel::SplitNonEmpty;

namespace {

// Unlabelled executor totals are cached; per-operator instances go through
// the registry once per op type (the map behind it is tiny).
obs::Counter& RowsInCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_rows_in_total", "Rows entering ETL operators");
  return c;
}

obs::Counter& RowsOutCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_rows_out_total", "Rows produced by ETL operators");
  return c;
}

obs::Counter& RetryCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_node_retries_total",
      "Extra attempts beyond the first across all ETL nodes");
  return c;
}

obs::Counter& RunCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_runs_total", "ETL flow executions started");
  return c;
}

obs::Counter& RunFailureCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_run_failures_total",
      "ETL flow executions that returned an error");
  return c;
}

obs::Counter& ResumeCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_resumes_total",
      "ETL flow executions resumed from a checkpoint");
  return c;
}

/// Runs aborted by their request lifecycle rather than an operator fault,
/// by reason. All three instances register eagerly so dashboards see zeros
/// before the first abort.
obs::Counter& LifecycleAbortCounter(const char* reason) {
  static obs::Counter& cancelled = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total",
      "ETL runs aborted by cancellation, deadline expiry or budget "
      "exhaustion",
      {{"reason", "cancelled"}});
  static obs::Counter& deadline = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total", "", {{"reason", "deadline"}});
  static obs::Counter& budget = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_lifecycle_aborts_total", "", {{"reason", "budget"}});
  if (std::string_view(reason) == "cancelled") return cancelled;
  if (std::string_view(reason) == "deadline") return deadline;
  return budget;
}

void CountLifecycleAbort(const Status& status) {
  if (status.IsCancelled()) {
    LifecycleAbortCounter("cancelled").Increment();
  } else if (status.IsDeadlineExceeded()) {
    LifecycleAbortCounter("deadline").Increment();
  } else if (status.IsResourceExhausted()) {
    LifecycleAbortCounter("budget").Increment();
  }
}

/// Cooperative cancellation inside row-loop operators: Tick() polls the
/// context once per Executor::kCancelBatchRows rows. With no context the
/// whole thing folds to an integer increment that the compiler removes.
class BatchChecker {
 public:
  BatchChecker(const ExecContext* ctx, const std::string& node_id)
      : ctx_(ctx), node_id_(node_id) {}

  Status Tick() {
    if (ctx_ == nullptr || (++count_ & (Executor::kCancelBatchRows - 1)) != 0) {
      return Status::OK();
    }
    return ctx_->Check("node '" + node_id_ + "'");
  }

 private:
  const ExecContext* ctx_;
  const std::string& node_id_;
  int64_t count_ = 0;
};

/// Cheap lower-bound estimate of a dataset's in-memory footprint, used for
/// the intermediate-bytes budget. Deliberately ignores string payloads so
/// the charge costs O(1) per node, not O(rows).
int64_t ApproxDatasetBytes(const Dataset& data) {
  return ApproxRowsBytes(data.row_count(), data.columns.size());
}

void CountNodeDone(const Node& node, int64_t rows_out, double micros) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  obs::Labels op_label{{"op", OpTypeToString(node.type)}};
  reg.counter("quarry_etl_nodes_executed_total",
              "ETL operator executions by operator type", op_label)
      .Increment();
  reg.histogram("quarry_etl_node_micros",
                "Wall time per ETL operator execution in microseconds",
                /*bounds=*/{}, op_label)
      .Observe(micros);
  RowsOutCounter().Increment(rows_out);
}

Result<Dataset> RunAggregation(const Node& node, const Dataset& input,
                               const std::vector<Row>& input_rows,
                               const ExecContext* ctx) {
  BatchChecker batch(ctx, node.id);
  std::vector<std::string> group = SplitNonEmpty(Param(node, "group"));
  QUARRY_ASSIGN_OR_RETURN(auto specs, ParseAggSpecs(Param(node, "aggs")));
  QUARRY_ASSIGN_OR_RETURN(auto group_pos,
                          ColumnPositions(input.columns, group, node.id));
  std::vector<int> agg_pos(specs.size(), -1);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].input == "*") continue;
    QUARRY_ASSIGN_OR_RETURN(
        auto pos, ColumnPositions(input.columns, {specs[i].input}, node.id));
    agg_pos[i] = static_cast<int>(pos[0]);
  }

  std::unordered_map<Row, std::vector<AggState>, RowKeyHash, RowKeyEq> groups;
  std::vector<Row> group_order;  // deterministic output order
  for (const Row& row : input_rows) {
    QUARRY_RETURN_NOT_OK(batch.Tick());
    Row key = ExtractKey(row, group_pos);
    auto [it, inserted] =
        groups.try_emplace(key, std::vector<AggState>(specs.size()));
    if (inserted) group_order.push_back(key);
    std::vector<AggState>& states = it->second;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].input == "*") {
        kernel::AccumulateAggStar(&states[i]);
        continue;
      }
      kernel::AccumulateAgg(&states[i],
                            row[static_cast<size_t>(agg_pos[i])]);
    }
  }

  Dataset out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  out.rows.reserve(group_order.size());
  for (const Row& key : group_order) {
    const std::vector<AggState>& states = groups.at(key);
    Row row = key;
    for (size_t i = 0; i < specs.size(); ++i) {
      row.push_back(kernel::FinalizeAgg(specs[i].function, states[i]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<Dataset> RunJoin(const Node& node, const Dataset& left,
                        const std::vector<Row>& left_rows,
                        const Dataset& right,
                        const std::vector<Row>& right_rows,
                        const ExecContext* ctx) {
  BatchChecker batch(ctx, node.id);
  std::vector<std::string> left_keys = SplitNonEmpty(Param(node, "left"));
  std::vector<std::string> right_keys = SplitNonEmpty(Param(node, "right"));
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::ExecutionError("join '" + node.id +
                                  "' has mismatched key lists");
  }
  std::string join_type = Param(node, "type");
  if (join_type.empty()) join_type = "inner";
  if (join_type != "inner" && join_type != "left") {
    return Status::ExecutionError("join '" + node.id +
                                  "': unsupported type '" + join_type + "'");
  }
  QUARRY_ASSIGN_OR_RETURN(auto left_pos,
                          ColumnPositions(left.columns, left_keys, node.id));
  QUARRY_ASSIGN_OR_RETURN(
      auto right_pos, ColumnPositions(right.columns, right_keys, node.id));

  // Build on the right input.
  std::unordered_map<Row, std::vector<size_t>, RowKeyHash, RowKeyEq> build;
  build.reserve(right_rows.size());
  for (size_t i = 0; i < right_rows.size(); ++i) {
    Row key = ExtractKey(right_rows[i], right_pos);
    bool has_null = std::any_of(key.begin(), key.end(),
                                [](const Value& v) { return v.is_null(); });
    if (has_null) continue;  // SQL: NULL keys never match.
    build[std::move(key)].push_back(i);
  }

  Dataset out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  for (const Row& lrow : left_rows) {
    QUARRY_RETURN_NOT_OK(batch.Tick());
    Row key = ExtractKey(lrow, left_pos);
    bool has_null = std::any_of(key.begin(), key.end(),
                                [](const Value& v) { return v.is_null(); });
    auto it = has_null ? build.end() : build.find(key);
    if (it == build.end()) {
      if (join_type == "left") {
        Row row = lrow;
        row.resize(left.columns.size() + right.columns.size(), Value::Null());
        out.rows.push_back(std::move(row));
      }
      continue;
    }
    for (size_t ridx : it->second) {
      Row row = lrow;
      const Row& rrow = right_rows[ridx];
      row.insert(row.end(), rrow.begin(), rrow.end());
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Result<DataType> InferColumnType(const std::vector<Row>& rows,
                                 size_t column) {
  for (const Row& row : rows) {
    if (!row[column].is_null()) return row[column].type();
  }
  return DataType::kString;  // All-NULL column: arbitrary but stable.
}

/// Whether this node dispatches to the chunk kernels. Beyond the per-type
/// check, zero-column inputs that still carry rows (e.g. a projection onto
/// an empty column list) stay on the row path — a chunk has no way to
/// represent rows without segments. RunNode and ExecuteNode must agree on
/// this (the budget is charged by whichever side runs), so both call here.
bool UsesVectorizedKernel(const ExecOptions& options, const Node& node,
                          const std::vector<const Dataset*>& inputs) {
  if (!options.vectorized || !HasVectorizedKernel(node.type)) return false;
  for (const Dataset* d : inputs) {
    if (d->columns.empty() && d->row_count() > 0) return false;
  }
  return true;
}

}  // namespace

bool HasVectorizedKernel(OpType type) {
  switch (type) {
    case OpType::kDatastore:
    case OpType::kExtraction:
    case OpType::kSelection:
    case OpType::kProjection:
    case OpType::kFunction:
    case OpType::kJoin:
    case OpType::kAggregation:
    case OpType::kLoader:
      return true;
    case OpType::kSort:
    case OpType::kUnion:
    case OpType::kSurrogateKey:
      return false;
  }
  return false;
}

const std::vector<Row>& DatasetRows(const Dataset& data,
                                    std::vector<Row>* scratch) {
  if (!data.columnar) return data.rows;
  *scratch = data.MaterializeRows();
  return *scratch;
}

const std::vector<storage::Chunk>& DatasetChunks(
    const Dataset& data, int64_t chunk_size,
    std::vector<storage::Chunk>* scratch) {
  if (data.columnar) return data.chunks;
  *scratch = storage::ChunkRows(data.rows, data.columns.size(), chunk_size);
  return *scratch;
}

int64_t ApproxRowsBytes(int64_t rows, size_t columns) {
  return rows * static_cast<int64_t>(sizeof(storage::Row) +
                                     columns * sizeof(storage::Value));
}

double RetryBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                          Prng* prng) {
  double exp = policy.base_backoff_millis *
               std::pow(2.0, std::max(0, failed_attempts - 1));
  exp = std::min(exp, policy.max_backoff_millis);
  // Always consume one draw so the jitter sequence stays aligned with the
  // retry sequence regardless of the base backoff.
  double u = prng != nullptr ? prng->UniformDouble() : 0.0;
  return exp * ((1.0 - policy.jitter_fraction) + policy.jitter_fraction * u);
}

double BoundedBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                            Prng* prng, double backoff_spent_millis,
                            const ExecContext* ctx) {
  double sleep_ms = RetryBackoffMillis(policy, failed_attempts, prng);
  if (policy.total_backoff_budget_millis >= 0) {
    double budget_left =
        policy.total_backoff_budget_millis - backoff_spent_millis;
    sleep_ms = std::min(sleep_ms, std::max(0.0, budget_left));
  }
  if (ctx != nullptr && !ctx->deadline().unbounded()) {
    sleep_ms = std::min(sleep_ms, ctx->deadline().remaining_millis());
  }
  return sleep_ms;
}

Result<Dataset> Executor::RunNode(const Node& node,
                                  const std::vector<const Dataset*>& inputs,
                                  LoaderEffect* loader, const ExecContext* ctx,
                                  const ExecOptions& options) {
  // The per-operator fault site fires before kernel dispatch so fault
  // matrices hit both executor modes at the same place.
  QUARRY_FAULT_POINT(std::string("etl.exec.") + OpTypeToString(node.type));
  if (options.vectorized) {
    if (UsesVectorizedKernel(options, node, inputs)) {
      return RunNodeVectorized(node, inputs, loader, ctx, options);
    }
    obs::MetricsRegistry::Instance()
        .counter("quarry_etl_chunk_fallback_total",
                 "Operators that ran their row kernel in vectorized mode "
                 "(no chunk kernel for the op type)",
                 {{"op", OpTypeToString(node.type)}})
        .Increment();
  }
  BatchChecker batch(ctx, node.id);
  auto input = [&](size_t i) -> const Dataset& { return *inputs[i]; };
  switch (node.type) {
    case OpType::kDatastore: {
      QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                              source_->GetTable(Param(node, "table")));
      Dataset out;
      for (const storage::Column& c : table->schema().columns()) {
        out.columns.push_back(c.name);
      }
      out.rows = table->rows();
      return out;
    }
    case OpType::kExtraction:
      return input(0);
    case OpType::kSelection: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr pred,
                              ParseExpr(Param(node, "predicate")));
      Dataset out;
      out.columns = input(0).columns;
      std::vector<Row> scratch;
      for (const Row& row : DatasetRows(input(0), &scratch)) {
        QUARRY_RETURN_NOT_OK(batch.Tick());
        RowView view{&out.columns, &row};
        QUARRY_ASSIGN_OR_RETURN(Value v, pred->Eval(view));
        if (!v.is_null() && v.is_bool() && v.as_bool()) {
          out.rows.push_back(row);
        }
      }
      return out;
    }
    case OpType::kProjection: {
      std::vector<std::string> keep = SplitNonEmpty(Param(node, "columns"));
      QUARRY_ASSIGN_OR_RETURN(auto positions,
                              ColumnPositions(input(0).columns, keep,
                                              node.id));
      Dataset out;
      out.columns = keep;
      std::vector<Row> scratch;
      const std::vector<Row>& in_rows = DatasetRows(input(0), &scratch);
      out.rows.reserve(in_rows.size());
      for (const Row& row : in_rows) {
        QUARRY_RETURN_NOT_OK(batch.Tick());
        out.rows.push_back(ExtractKey(row, positions));
      }
      return out;
    }
    case OpType::kJoin: {
      if (inputs.size() != 2) {
        return Status::ExecutionError("join '" + node.id +
                                      "' needs exactly 2 inputs");
      }
      std::vector<Row> left_scratch, right_scratch;
      return RunJoin(node, input(0), DatasetRows(input(0), &left_scratch),
                     input(1), DatasetRows(input(1), &right_scratch), ctx);
    }
    case OpType::kAggregation: {
      std::vector<Row> scratch;
      return RunAggregation(node, input(0), DatasetRows(input(0), &scratch),
                            ctx);
    }
    case OpType::kFunction: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr expr, ParseExpr(Param(node, "expr")));
      std::string column = Param(node, "column");
      if (column.empty()) {
        return Status::ExecutionError("function '" + node.id +
                                      "' lacks a column param");
      }
      Dataset out;
      out.columns = input(0).columns;
      out.columns.push_back(column);
      std::vector<Row> scratch;
      const std::vector<Row>& in_rows = DatasetRows(input(0), &scratch);
      out.rows.reserve(in_rows.size());
      for (const Row& row : in_rows) {
        QUARRY_RETURN_NOT_OK(batch.Tick());
        RowView view{&input(0).columns, &row};
        QUARRY_ASSIGN_OR_RETURN(Value v, expr->Eval(view));
        Row extended = row;
        extended.push_back(std::move(v));
        out.rows.push_back(std::move(extended));
      }
      return out;
    }
    case OpType::kSort: {
      std::vector<std::string> by = SplitNonEmpty(Param(node, "by"));
      QUARRY_ASSIGN_OR_RETURN(auto positions,
                              ColumnPositions(input(0).columns, by, node.id));
      bool desc = Param(node, "desc") == "true";
      Dataset out;
      out.columns = input(0).columns;
      out.rows = input(0).MaterializeRows();
      std::stable_sort(out.rows.begin(), out.rows.end(),
                       [&](const Row& a, const Row& b) {
                         for (size_t p : positions) {
                           int cmp = a[p].Compare(b[p]);
                           if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                         }
                         return false;
                       });
      return out;
    }
    case OpType::kUnion: {
      if (inputs.size() < 2) {
        return Status::ExecutionError("union '" + node.id +
                                      "' needs >= 2 inputs");
      }
      Dataset out;
      out.columns = input(0).columns;
      for (size_t i = 0; i < inputs.size(); ++i) {
        if (input(i).columns != out.columns) {
          return Status::ExecutionError("union '" + node.id +
                                        "' inputs have different schemas");
        }
        std::vector<Row> scratch;
        const std::vector<Row>& in_rows = DatasetRows(input(i), &scratch);
        out.rows.insert(out.rows.end(), in_rows.begin(), in_rows.end());
      }
      return out;
    }
    case OpType::kSurrogateKey: {
      std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
      std::string column = Param(node, "column");
      if (column.empty() || keys.empty()) {
        return Status::ExecutionError("surrogate key '" + node.id +
                                      "' needs column and keys params");
      }
      QUARRY_ASSIGN_OR_RETURN(
          auto positions, ColumnPositions(input(0).columns, keys, node.id));
      std::unordered_map<Row, int64_t, RowKeyHash, RowKeyEq> ids;
      Dataset out;
      out.columns = input(0).columns;
      out.columns.push_back(column);
      std::vector<Row> scratch;
      const std::vector<Row>& in_rows = DatasetRows(input(0), &scratch);
      out.rows.reserve(in_rows.size());
      for (const Row& row : in_rows) {
        QUARRY_RETURN_NOT_OK(batch.Tick());
        Row key = ExtractKey(row, positions);
        auto [it, inserted] =
            ids.try_emplace(std::move(key),
                            static_cast<int64_t>(ids.size()) + 1);
        Row extended = row;
        extended.push_back(Value::Int(it->second));
        out.rows.push_back(std::move(extended));
      }
      return out;
    }
    case OpType::kLoader: {
      const Dataset& data = input(0);
      std::vector<Row> scratch;
      const std::vector<Row>& data_rows = DatasetRows(data, &scratch);
      std::string table_name = Param(node, "table");
      if (table_name.empty()) {
        return Status::ExecutionError("loader '" + node.id +
                                      "' lacks a table param");
      }
      std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
      if (!target_->HasTable(table_name) && data_rows.empty()) {
        // No rows and no pre-created table: defer creation (column types
        // cannot be inferred from an empty dataset; guessing would poison
        // later loads into the same table). Deployed designs always
        // pre-create their tables via DDL, so this only affects ad-hoc
        // runs.
        loader->table = table_name;
        loader->fired = true;  // rows stays 0
        Dataset out;
        out.columns = data.columns;
        return out;
      }
      if (!target_->HasTable(table_name)) {
        storage::TableSchema schema(table_name);
        for (size_t c = 0; c < data.columns.size(); ++c) {
          QUARRY_ASSIGN_OR_RETURN(DataType type,
                                  InferColumnType(data_rows, c));
          QUARRY_RETURN_NOT_OK(
              schema.AddColumn({data.columns[c], type, true}));
        }
        if (!keys.empty()) QUARRY_RETURN_NOT_OK(schema.SetPrimaryKey(keys));
        QUARRY_RETURN_NOT_OK(target_->CreateTable(std::move(schema)).status());
      }
      QUARRY_ASSIGN_OR_RETURN(storage::Table * table,
                              target_->GetTable(table_name));
      // Dataset columns the target lacks are added to it (ALTER TABLE ADD
      // COLUMN semantics) so integrated flows whose loaders were merged
      // onto one fact table can contribute their measure columns even when
      // the table was auto-created by an earlier loader.
      for (size_t c = 0; c < data.columns.size(); ++c) {
        if (table->schema().ColumnIndex(data.columns[c]).has_value()) {
          continue;
        }
        QUARRY_ASSIGN_OR_RETURN(DataType type, InferColumnType(data_rows, c));
        QUARRY_RETURN_NOT_OK(
            table->AddColumn({data.columns[c], type, true}));
      }
      // Bind dataset columns to table columns by name. A target column the
      // dataset does not provide loads as NULL (partial loads converge via
      // the merge pass below).
      std::vector<int> positions;  // per target column; -1 = NULL
      for (const storage::Column& c : table->schema().columns()) {
        auto it = std::find(data.columns.begin(), data.columns.end(), c.name);
        positions.push_back(it == data.columns.end()
                                ? -1
                                : static_cast<int>(it - data.columns.begin()));
      }
      std::vector<size_t> key_positions;
      if (!keys.empty()) {
        QUARRY_ASSIGN_OR_RETURN(auto kp,
                                ColumnPositions(data.columns, keys, node.id));
        key_positions = kp;
      }
      int64_t written = 0;
      // key -> row index in the target table (merge semantics: a re-loaded
      // key fills the NULL cells of the existing row instead of inserting).
      std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> existing_rows;
      if (!key_positions.empty()) {
        std::vector<size_t> tk;
        for (const std::string& k : keys) {
          tk.push_back(*table->schema().ColumnIndex(k));
        }
        for (size_t r = 0; r < table->num_rows(); ++r) {
          existing_rows.emplace(ExtractKey(table->rows()[r], tk), r);
        }
      }
      for (const Row& row : data_rows) {
        QUARRY_RETURN_NOT_OK(batch.Tick());
        if (!key_positions.empty()) {
          Row key = ExtractKey(row, key_positions);
          auto it = existing_rows.find(key);
          if (it != existing_rows.end()) {
            // Fill NULL cells the dataset can provide.
            size_t target_row = it->second;
            for (size_t c = 0; c < positions.size(); ++c) {
              if (positions[c] < 0) continue;
              const Value& incoming = row[static_cast<size_t>(positions[c])];
              if (incoming.is_null()) continue;
              if (!table->rows()[target_row][c].is_null()) continue;
              QUARRY_RETURN_NOT_OK(table->SetCell(target_row, c, incoming));
            }
            continue;
          }
          Row out;
          out.reserve(positions.size());
          for (int p : positions) {
            out.push_back(p < 0 ? Value::Null()
                                : row[static_cast<size_t>(p)]);
          }
          QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
          existing_rows.emplace(std::move(key), table->num_rows() - 1);
          ++written;
          continue;
        }
        Row out;
        out.reserve(positions.size());
        for (int p : positions) {
          out.push_back(p < 0 ? Value::Null() : row[static_cast<size_t>(p)]);
        }
        QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
        ++written;
      }
      // Mid-write fault site: fires after the rows above landed in the
      // target, leaving exactly the half-written state the loader snapshot
      // in ExecuteNode must roll back before a retry.
      QUARRY_FAULT_POINT("etl.exec.Loader.write");
      loader->table = table_name;
      loader->rows = written;
      loader->fired = true;
      Dataset out;
      out.columns = data.columns;
      return out;  // Loaders are sinks; emit an empty dataset.
    }
  }
  return Status::Internal("unknown operator type");
}

Executor::NodeAttempt Executor::ExecuteNode(
    const Node& node, const std::vector<const Dataset*>& inputs,
    int64_t rows_in, const RetryPolicy& retry, const ExecContext* ctx,
    bool protect_loader_always, Prng* backoff_prng, BackoffBudget* backoff,
    const ExecOptions& options) {
  const int max_attempts = std::max(1, retry.max_attempts);
  // Vectorized kernels charge the budgets chunk by chunk inside RunNode
  // (so a budget can trip mid-node); charging again here would double-bill.
  // The totals match exactly because ApproxRowsBytes is linear in rows.
  const bool kernel_charges = UsesVectorizedKernel(options, node, inputs);
  // Loader attempts mutate the target; snapshot the table so a failed
  // attempt rolls back before the retry (or a later Resume). Skipped on
  // the plain fail-fast path, which stays zero-overhead. A context makes
  // loaders protected too: a cancellation mid-write must never leave a
  // half-written table behind.
  const bool protect_loader =
      node.type == OpType::kLoader &&
      (max_attempts > 1 || protect_loader_always || ctx != nullptr ||
       fault::Enabled());
  const std::string loader_table =
      protect_loader ? Param(node, "table") : std::string();

  NodeAttempt out;
  out.chunk_kernel = kernel_charges;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    out.attempts = attempt;
    // Cancellation point: every attempt of every node starts by checking
    // the request is still live. A failed check behaves exactly like an
    // operator fault (checkpoint populated, loaders rolled back), so
    // Resume after a timeout works like Resume after a fault.
    Status pre_check = CheckContext(ctx, "node '" + node.id + "'");
    if (!pre_check.ok()) {
      out.result = pre_check;
      break;
    }
    std::unique_ptr<storage::Table> table_snapshot;
    bool loader_existed = false;
    if (protect_loader && target_->HasTable(loader_table)) {
      table_snapshot = (*target_->GetTable(loader_table))->Clone();
      loader_existed = true;
    }
    LoaderEffect effect;
    out.result = RunNode(node, inputs, &effect, ctx, options);
    if (out.result.ok() && ctx != nullptr && !kernel_charges) {
      // Budget charges ride inside the attempt so an over-budget node is
      // rolled back (loaders included) like any other failed attempt.
      // Loaders emit an empty dataset (they are sinks), so they charge
      // their input instead — the rows materialized into the target.
      int64_t charged_rows =
          node.type == OpType::kLoader ? rows_in : out.result->row_count();
      Status charge =
          ctx->ChargeRows(charged_rows, "node '" + node.id + "'");
      if (charge.ok()) {
        charge = ctx->ChargeBytes(ApproxDatasetBytes(*out.result),
                                  "node '" + node.id + "'");
      }
      if (!charge.ok()) out.result = charge;
    }
    if (out.result.ok()) {
      out.loader = effect;
      if (effect.fired) {
        obs::MetricsRegistry::Instance()
            .counter("quarry_etl_rows_loaded_total",
                     "Rows written into target tables by loader nodes",
                     {{"table", effect.table}})
            .Increment(effect.rows);
      }
      break;
    }
    if (protect_loader && !loader_table.empty()) {
      if (table_snapshot != nullptr) {
        target_->RestoreTable(std::move(table_snapshot));
      } else if (!loader_existed) {
        target_->EraseTable(loader_table);  // Created by this attempt.
      }
    }
    // A dead request is never retried: another attempt cannot revive a
    // cancelled token, an expired deadline or a spent budget.
    if (IsLifecycleError(out.result.status())) break;
    if (attempt < max_attempts) {
      double sleep_ms = BoundedBackoffMillis(retry, attempt, backoff_prng,
                                             backoff->spent_millis(), ctx);
      if (sleep_ms > 0) {
        backoff->Add(sleep_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
    }
  }
  return out;
}

Result<ExecutionReport> Executor::Run(const Flow& flow) {
  return RunInternal(flow, ExecOptions{}, RetryPolicy{}, nullptr,
                     /*resume=*/false, nullptr);
}

Result<ExecutionReport> Executor::Run(const Flow& flow,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint,
                                      const ExecContext* ctx) {
  return RunInternal(flow, ExecOptions{}, retry, checkpoint, /*resume=*/false,
                     ctx);
}

Result<ExecutionReport> Executor::Run(const Flow& flow,
                                      const ExecOptions& options,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint,
                                      const ExecContext* ctx, Dataset* sink) {
  return RunInternal(flow, options, retry, checkpoint, /*resume=*/false, ctx,
                     sink);
}

Result<ExecutionReport> Executor::Resume(const Flow& flow,
                                         Checkpoint* checkpoint,
                                         const RetryPolicy& retry,
                                         const ExecContext* ctx) {
  return RunInternal(flow, ExecOptions{}, retry, checkpoint, /*resume=*/true,
                     ctx);
}

Result<ExecutionReport> Executor::Resume(const Flow& flow,
                                         const ExecOptions& options,
                                         Checkpoint* checkpoint,
                                         const RetryPolicy& retry,
                                         const ExecContext* ctx) {
  return RunInternal(flow, options, retry, checkpoint, /*resume=*/true, ctx);
}

Result<ExecutionReport> Executor::RunInternal(const Flow& flow,
                                              const ExecOptions& options,
                                              const RetryPolicy& retry,
                                              Checkpoint* checkpoint,
                                              bool resume,
                                              const ExecContext* ctx,
                                              Dataset* sink) {
  if (ctx != nullptr && ctx->budget().max_flow_nodes > 0 &&
      static_cast<int64_t>(flow.num_nodes()) >
          ctx->budget().max_flow_nodes) {
    // Refused before any work: a requirement that exploded into a huge flow
    // (the SODA scenario) is rejected structurally, not timed out.
    return Status::ResourceExhausted(
        "flow '" + flow.name() + "' has " +
        std::to_string(flow.num_nodes()) + " nodes, budget allows " +
        std::to_string(ctx->budget().max_flow_nodes));
  }
  // The dataset handed back through `sink` is the one non-loader node
  // nothing consumes; resolve it before any work so an ambiguous flow fails
  // structurally.
  std::string sink_id;
  if (sink != nullptr) {
    for (const auto& [id, node] : flow.nodes()) {
      if (node.type == OpType::kLoader || !flow.Successors(id).empty()) {
        continue;
      }
      if (!sink_id.empty()) {
        return Status::InvalidArgument("flow '" + flow.name() +
                                       "' has several non-loader sinks ('" +
                                       sink_id + "', '" + id + "')");
      }
      sink_id = id;
    }
    if (sink_id.empty()) {
      return Status::InvalidArgument("flow '" + flow.name() +
                                     "' has no non-loader sink");
    }
  }
  QUARRY_ASSIGN_OR_RETURN(auto order, flow.TopologicalOrder());
  QUARRY_NAMED_SPAN(run_span, "etl.run");
  QUARRY_SPAN_ATTR(run_span, "flow", flow.name());
  QUARRY_SPAN_ATTR(run_span, "nodes",
                   static_cast<int64_t>(flow.nodes().size()));
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(run_span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  RunCounter().Increment();
  // Touch the failure/retry/resume families so they expose as zeros from
  // the first run instead of appearing only once something goes wrong.
  RunFailureCounter();
  RetryCounter();
  ResumeCounter();
  LifecycleAbortCounter("cancelled");  // Registers all three reasons.
  if (resume) ResumeCounter().Increment();
  ExecutionReport report;
  Timer total;
  Prng backoff_prng(retry.jitter_seed);
  BackoffBudget backoff;  // Against retry.total_backoff_budget_millis.

  std::set<std::string> completed;
  std::map<std::string, Dataset> done;
  bool resumed_any = false;
  if (resume) {
    if (checkpoint == nullptr || !checkpoint->valid) {
      return Status::InvalidArgument("Resume requires a valid checkpoint");
    }
    if (checkpoint->flow_name != flow.name()) {
      return Status::InvalidArgument("checkpoint belongs to flow '" +
                                     checkpoint->flow_name + "', not '" +
                                     flow.name() + "'");
    }
    completed.insert(checkpoint->completed.begin(),
                     checkpoint->completed.end());
    done = std::move(checkpoint->datasets);
    checkpoint->datasets.clear();
    report.loaded = checkpoint->loaded;
    resumed_any = !completed.empty();
  } else if (checkpoint != nullptr) {
    *checkpoint = Checkpoint{};
    checkpoint->flow_name = flow.name();
  }
  if (checkpoint != nullptr) {
    checkpoint->failed_node.clear();
    checkpoint->valid = true;
  }

  // Reference counts so each materialized dataset is freed as soon as its
  // last consumer has run — integrated flows would otherwise hold every
  // intermediate at once and lose their execution-time advantage to memory
  // pressure. On resume, consumers that already ran don't count.
  std::map<std::string, size_t> remaining_consumers;
  for (const auto& [id, node] : flow.nodes()) {
    size_t pending = 0;
    for (const std::string& succ : flow.Successors(id)) {
      if (completed.count(succ) == 0) ++pending;
    }
    remaining_consumers[id] = pending;
  }
  // The caller is the sink's one extra consumer: its dataset stays in
  // `done` like any intermediate with a pending reader.
  if (!sink_id.empty()) ++remaining_consumers[sink_id];

  // Parallel runs go through the wavefront scheduler once the shared
  // prologue above (validation, counters, checkpoint/resume state) has run.
  // When source and target alias, a loader write would race the datastore
  // reads of concurrent siblings, so such runs silently degrade to serial.
  if (options.max_workers > 1 && source_ != target_) {
    Scheduler scheduler(this, options);
    Result<ExecutionReport> run = scheduler.Run(
        flow, order, retry, checkpoint, ctx, std::move(completed),
        std::move(done), std::move(remaining_consumers), std::move(report),
        resumed_any, total);
    if (run.ok() && sink != nullptr) *sink = scheduler.TakeDataset(sink_id);
    return run;
  }

  for (const std::string& id : order) {
    if (completed.count(id) > 0) continue;  // Resumed from checkpoint.
    const Node& node = *flow.GetNode(id).value();
    QUARRY_NAMED_SPAN(node_span,
                      std::string("etl.node.") + OpTypeToString(node.type));
    QUARRY_SPAN_ATTR(node_span, "node_id", id);
    Timer node_timer;
    std::vector<const Dataset*> inputs;
    int64_t rows_in = 0;
    for (const std::string& pred : flow.Predecessors(id)) {
      const Dataset& dataset = done.at(pred);
      inputs.push_back(&dataset);
      rows_in += dataset.row_count();
    }
    RowsInCounter().Increment(rows_in);

    NodeAttempt outcome =
        ExecuteNode(node, inputs, rows_in, retry, ctx,
                    /*protect_loader_always=*/checkpoint != nullptr,
                    &backoff_prng, &backoff, options);
    Result<Dataset>& result = outcome.result;
    const int attempts_used = outcome.attempts;
    if (attempts_used > 1) RetryCounter().Increment(attempts_used - 1);
    if (!result.ok()) {
      CountLifecycleAbort(result.status());
      if (checkpoint != nullptr) {
        checkpoint->failed_node = id;
        // The run is abandoned, so the live intermediates move into the
        // checkpoint wholesale — the success path never copies a dataset.
        checkpoint->datasets = std::move(done);
      }
      RunFailureCounter().Increment();
      QUARRY_SPAN_ATTR(node_span, "error", result.status().message());
      std::string context = "node '" + id + "' (" +
                            OpTypeToString(node.type) + ")";
      if (attempts_used > 1) {
        context += " after " + std::to_string(attempts_used) + " attempts";
      }
      return result.status().WithContext(context);
    }
    if (outcome.loader.fired) {
      report.loaded[outcome.loader.table] += outcome.loader.rows;
    }

    NodeStats stats;
    stats.node_id = id;
    stats.type = node.type;
    stats.rows_in = rows_in;
    stats.rows_out = result->row_count();
    stats.millis = node_timer.ElapsedMillis();
    stats.attempts = attempts_used;
    stats.kernel = outcome.chunk_kernel ? "chunk" : "row";
    CountNodeDone(node, stats.rows_out, node_timer.ElapsedMicros());
    QUARRY_SPAN_ATTR(node_span, "rows_in", rows_in);
    QUARRY_SPAN_ATTR(node_span, "rows_out", stats.rows_out);
    QUARRY_SPAN_ATTR(node_span, "attempts", attempts_used);
    report.rows_processed += rows_in;
    report.attempts += attempts_used;
    if (attempts_used > 1) report.retried_nodes.push_back(id);
    report.nodes.push_back(stats);
    completed.insert(id);
    for (const std::string& pred : flow.Predecessors(id)) {
      if (--remaining_consumers[pred] == 0) done.erase(pred);
    }
    if (remaining_consumers[id] > 0) {
      done.emplace(id, std::move(*result));
    }
    if (checkpoint != nullptr) {
      checkpoint->completed.push_back(id);
      checkpoint->loaded = report.loaded;
    }
  }
  if (sink != nullptr) *sink = std::move(done.at(sink_id));
  report.total_millis = total.ElapsedMillis();
  report.recovered = resumed_any || !report.retried_nodes.empty();
  return report;
}

namespace {

obs::ProfileNode BuildProfileNode(const Flow& flow,
                                  const ExecutionReport& report,
                                  const std::string& id) {
  obs::ProfileNode node;
  node.id = id;
  auto flow_node = flow.GetNode(id);
  node.op = flow_node.ok() ? OpTypeToString(flow_node.value()->type) : "?";
  node.attempts = 0;  // Present in the plan, never executed this run.
  for (const NodeStats& s : report.nodes) {
    if (s.node_id == id) {
      node.rows_in = s.rows_in;
      node.rows_out = s.rows_out;
      node.wall_micros = s.millis * 1000.0;
      node.attempts = s.attempts;
      node.kernel = s.kernel;
      break;
    }
  }
  size_t fan_in = 0;
  for (const Edge& e : flow.edges()) fan_in += (e.to == id) ? 1 : 0;
  node.children.reserve(fan_in);
  for (const Edge& e : flow.edges()) {
    if (e.to == id) node.children.push_back(BuildProfileNode(flow, report, e.from));
  }
  return node;
}

}  // namespace

std::vector<obs::ProfileNode> BuildProfileTrees(const Flow& flow,
                                                const ExecutionReport& report) {
  // Query and refresh flows are small (typically < 20 nodes), so plain
  // linear scans over the edge vector beat any index structure: building
  // maps/sets costs dozens of allocations while a full scan is a handful of
  // short string compares. This runs on every profiled query, so its cost
  // is part of the EXPLAIN ANALYZE overhead budget
  // (BENCH_observability.json).
  auto has_successor = [&flow](const std::string& id) {
    for (const Edge& e : flow.edges()) {
      if (e.from == id) return true;
    }
    return false;
  };
  std::vector<obs::ProfileNode> roots;
  // Sinks in node-id order (stable across runs).
  for (const auto& [id, node] : flow.nodes()) {
    if (!has_successor(id)) {
      roots.push_back(BuildProfileNode(flow, report, id));
    }
  }
  return roots;
}

}  // namespace quarry::etl
