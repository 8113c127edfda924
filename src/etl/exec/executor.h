#ifndef QUARRY_ETL_EXEC_EXECUTOR_H_
#define QUARRY_ETL_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/prng.h"
#include "common/result.h"
#include "etl/flow.h"
#include "obs/profile.h"
#include "storage/chunk.h"
#include "storage/database.h"

namespace quarry::etl {

/// \brief An operator result: named columns over typed storage::Chunks
/// (DESIGN.md §8).
///
/// The executor reads and writes only `chunks`; Resume refuses a
/// checkpoint dataset with `rows`. `rows` is the answer form that only
/// olap::CubeQueryEngine::Execute fills, once, with `chunks` left empty.
/// `row_count()` and `MaterializeRows()` read whichever form is set.
struct Dataset {
  std::vector<std::string> columns;
  std::vector<storage::Chunk> chunks;
  std::vector<storage::Row> rows;

  int64_t row_count() const {
    int64_t n = static_cast<int64_t>(rows.size());
    for (const storage::Chunk& c : chunks) n += c.num_rows();
    return n;
  }

  /// The relation as materialized rows (selection vectors applied).
  std::vector<storage::Row> MaterializeRows() const {
    std::vector<storage::Row> out = rows;
    out.reserve(static_cast<size_t>(row_count()));
    for (const storage::Chunk& c : chunks) c.AppendRowsTo(&out);
    return out;
  }
};

/// \brief How the executor retries a failed operator (docs/ROBUSTNESS.md).
///
/// Backoff before the Nth retry is exponential with deterministic jitter:
///   exp    = min(base_backoff_millis * 2^(N-1), max_backoff_millis)
///   sleep  = exp * ((1 - jitter_fraction) + jitter_fraction * U)
/// where U is a uniform draw from a Prng seeded with `jitter_seed` — the
/// same policy yields the same sleep sequence on every run. The default
/// base of 0 disables sleeping entirely (tests and benches retry
/// instantly).
struct RetryPolicy {
  int max_attempts = 1;  ///< 1 = fail fast (no retry).
  double base_backoff_millis = 0.0;
  double max_backoff_millis = 64.0;
  double jitter_fraction = 0.5;  ///< Share of the backoff that jitters.
  uint64_t jitter_seed = 0x51;
  /// Optional overall sleep budget across all retries of one run: the sum
  /// of backoff sleeps never exceeds it (the last sleep is clipped, not
  /// skipped). < 0 = unbounded. Combined with a request deadline, the
  /// tighter of the two bounds wins, so retry scheduling can never push a
  /// failure past the deadline (docs/ROBUSTNESS.md §7).
  double total_backoff_budget_millis = -1.0;
};

/// Backoff before the retry following `failed_attempts` failures (>= 1),
/// consuming one draw from `prng`. Exposed for determinism tests.
double RetryBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                          Prng* prng);

/// RetryBackoffMillis clipped by (a) the policy's overall backoff budget
/// given `backoff_spent_millis` already slept and (b) the remaining time on
/// `ctx`'s deadline (nullable). Never negative; always consumes one PRNG
/// draw so the jitter sequence stays aligned. Exposed for the
/// deadline/retry interaction tests.
double BoundedBackoffMillis(const RetryPolicy& policy, int failed_attempts,
                            Prng* prng, double backoff_spent_millis,
                            const ExecContext* ctx);

/// \brief Resumable execution state: everything a re-run needs to continue
/// from the already-completed operators instead of re-running extraction.
///
/// `Run` keeps `completed`/`loaded` current as nodes finish; `datasets` is
/// filled only when a run fails (the abandoned run's live intermediates
/// move in wholesale), so the success path never copies a dataset and the
/// checkpoint never holds more intermediates than the executor itself did.
/// `completed` is a *set* of node ids (recorded in completion order), not a
/// prefix of the topological order: a parallel run that fails mid-wavefront
/// checkpoints the completed antichain's downward closure — siblings of the
/// failed node that finished out of topological-order position are included
/// and never re-run. `Resume` skips exactly that set, so resuming after a
/// mid-parallel fault works like resuming a serial run.
struct Checkpoint {
  std::string flow_name;
  std::vector<std::string> completed;      ///< Node ids, in completion order.
  std::map<std::string, Dataset> datasets; ///< Failure-time intermediates.
  std::map<std::string, int64_t> loaded;   ///< Rows written by completed loaders.
  std::string failed_node;                 ///< Set when the producing run failed.
  bool valid = false;                      ///< A run has populated this.
};

/// \brief How a flow is executed (docs/ROBUSTNESS.md §8).
struct ExecOptions {
  /// Worker-pool size of the wavefront scheduler. 1 (the default) runs the
  /// flow serially on the calling thread. N > 1 executes independent nodes
  /// concurrently; target-table contents stay byte-identical to a serial
  /// run because loader nodes are sequenced in topological order
  /// (tests/etl_parallel_test.cc proves it differentially). Values above
  /// the node count just idle extra workers.
  int max_workers = 1;
  /// Rows per chunk a Datastore scan (and a Sort's output) is cut into.
  /// Values < 1 behave like 1; chunk size 1 runs row at a time. No chunk
  /// size changes a byte of the result (the golden-corpus tests sweep it).
  int64_t chunk_size = 1024;
};

/// Lower-bound memory estimate for `rows` rows of `columns` columns — the
/// unit of the intermediate-bytes budget. Linear in rows, so the per-chunk
/// charges of a node sum to the same total whatever the chunk size.
int64_t ApproxRowsBytes(int64_t rows, size_t columns);

/// Per-node execution statistics.
struct NodeStats {
  std::string node_id;
  OpType type = OpType::kExtraction;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double millis = 0;
  int attempts = 1;  ///< 1 = first attempt succeeded.
};

/// \brief Outcome of executing a flow.
///
/// `rows_processed` (the sum of every operator's input cardinality) is the
/// engine-level measure behind the paper's "overall execution time" quality
/// factor: the ETL Process Integrator's cost model predicts it, and the
/// benches compare predicted vs. measured.
struct ExecutionReport {
  double total_millis = 0;
  int64_t rows_processed = 0;
  std::vector<NodeStats> nodes;
  std::map<std::string, int64_t> loaded;  ///< target table -> rows written
  int64_t attempts = 0;  ///< Total operator attempts (>= nodes run).
  std::vector<std::string> retried_nodes;  ///< Nodes that needed > 1 attempt.
  bool recovered = false;  ///< Completed only thanks to retries or a resume.
};

/// Folds a run's per-node stats into EXPLAIN ANALYZE profile trees
/// (docs/OBSERVABILITY.md): one tree per sink node of the flow, children =
/// the node's inputs (flow predecessors) in edge order, stats taken from
/// `report.nodes`. A node the run never executed (e.g. skipped by Resume)
/// appears with zeroed stats, so the tree always mirrors the full plan.
std::vector<obs::ProfileNode> BuildProfileTrees(const Flow& flow,
                                                const ExecutionReport& report);

/// \brief Executes logical ETL flows (xLM) — the repo's stand-in for
/// Pentaho PDI (see DESIGN.md §2).
///
/// Operators are evaluated in topological order by the chunk kernels
/// (etl/exec/vectorized.cc), materializing one Dataset per node. Loader
/// semantics: the target table is created on first use
/// (column types inferred from the data) unless it already exists; target
/// columns the dataset lacks load as NULL; when the Loader declares `keys`,
/// a row whose key already exists *merges* — its non-NULL values fill the
/// existing row's NULL cells. This makes dimension and fact loads
/// idempotent and lets several partial loaders of one integrated flow
/// converge on the same table (e.g. two requirements contributing different
/// measures of a merged fact).
///
/// Resilience: each node runs under the given RetryPolicy. Loader attempts
/// snapshot their target table first and restore it on failure, so a retry
/// (or a later Resume) never observes a half-written table. With a
/// Checkpoint attached, a failed Run leaves enough state behind for
/// Resume() to continue from the last completed operator.
///
/// Lifecycle (docs/ROBUSTNESS.md §7): with an ExecContext attached, the
/// executor checks cancellation + deadline before every node attempt and
/// again at every chunk a kernel processes (the per-chunk gate), and charges
/// each chunk a node emits against the row/byte budgets. A lifecycle
/// error (kCancelled / kDeadlineExceeded / kResourceExhausted) is never
/// retried and fails the run exactly like an operator fault — loader tables
/// roll back to their per-attempt snapshot and the checkpoint is populated,
/// so Resume after a timeout works exactly like Resume after a fault.
///
/// Parallelism (docs/ROBUSTNESS.md §8): with ExecOptions::max_workers > 1
/// the run goes through the wavefront scheduler (etl/exec/scheduler.h) —
/// independent nodes execute concurrently on a worker pool while sharing
/// one ExecContext (atomic budget charges, per-node checks, cooperative
/// polls). Loader nodes are sequenced in topological order, so the target
/// tables come out byte-identical to a serial run. When source and target
/// alias, parallel requests silently degrade to serial: a loader writing
/// the catalog a sibling extraction is reading from cannot be overlapped.
class Executor {
 public:
  /// `source` provides Datastore tables; `target` receives Loader output
  /// and may be null for flows without Loader nodes (cube query plans).
  /// Both pointers must outlive the executor. They may alias.
  Executor(const storage::Database* source, storage::Database* target)
      : source_(source), target_(target) {}

  /// Runs the flow; fails fast on the first operator error.
  Result<ExecutionReport> Run(const Flow& flow);

  /// Runs the flow with per-node retries. When `checkpoint` is non-null it
  /// is (re)initialized and kept current, so a failed run can be resumed.
  /// `ctx` (nullable) carries the request's token/deadline/budgets.
  Result<ExecutionReport> Run(const Flow& flow, const RetryPolicy& retry,
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr);

  /// Like the above, with explicit execution options — `options.max_workers
  /// > 1` runs independent nodes on the wavefront scheduler
  /// (etl/exec/scheduler.h). Every contract of the serial path carries
  /// over: retries per node (applied on whichever worker runs the node),
  /// lifecycle errors never retried, loader rollback, checkpoint/Resume.
  ///
  /// `sink` (nullable) receives, on success, the dataset of the flow's
  /// single non-loader sink, so a flow that ends in an operator instead of
  /// a Loader (a cube query plan) hands its answer back without a target
  /// table. A flow with no or several non-loader sinks fails with
  /// InvalidArgument before any work.
  Result<ExecutionReport> Run(const Flow& flow, const ExecOptions& options,
                              const RetryPolicy& retry,
                              Checkpoint* checkpoint = nullptr,
                              const ExecContext* ctx = nullptr,
                              Dataset* sink = nullptr);

  /// Continues a failed run from `checkpoint`: completed operators are
  /// skipped (their checkpointed outputs feed the remaining ones) and the
  /// checkpoint keeps advancing, so Resume can itself be resumed. The
  /// checkpoint's completed *set* may come from a serial or a parallel run,
  /// at any chunk size; either resumes it.
  Result<ExecutionReport> Resume(const Flow& flow, Checkpoint* checkpoint,
                                 const RetryPolicy& retry = {},
                                 const ExecContext* ctx = nullptr);

  /// Resume on the wavefront scheduler (options.max_workers > 1).
  Result<ExecutionReport> Resume(const Flow& flow, const ExecOptions& options,
                                 Checkpoint* checkpoint,
                                 const RetryPolicy& retry = {},
                                 const ExecContext* ctx = nullptr);

 private:
  friend class Scheduler;

  /// What a loader node did to the target, reported back to the caller so
  /// `ExecutionReport::loaded` (and the rows-loaded metric) is only charged
  /// once the whole attempt — including the budget charges that ride inside
  /// it — has succeeded.
  struct LoaderEffect {
    std::string table;
    int64_t rows = 0;
    bool fired = false;
  };

  /// Thread-safe accumulator for RetryPolicy::total_backoff_budget_millis:
  /// in a parallel run several workers may sleep concurrently, and the
  /// budget bounds their *sum*, exactly like the serial sum of sleeps.
  class BackoffBudget {
   public:
    double spent_millis() const {
      std::lock_guard<std::mutex> lock(mu_);
      return spent_millis_;
    }
    void Add(double millis) {
      std::lock_guard<std::mutex> lock(mu_);
      spent_millis_ += millis;
    }

   private:
    mutable std::mutex mu_;
    double spent_millis_ = 0;
  };

  /// Outcome of one node's full attempt loop.
  struct NodeAttempt {
    Result<Dataset> result = Status::Internal("node never attempted");
    int attempts = 1;
    LoaderEffect loader;  ///< Valid only when `result` is OK.
  };

  Result<ExecutionReport> RunInternal(const Flow& flow,
                                      const ExecOptions& options,
                                      const RetryPolicy& retry,
                                      Checkpoint* checkpoint, bool resume,
                                      const ExecContext* ctx,
                                      Dataset* sink = nullptr);

  /// Runs one operator once on its chunk kernel (etl/exec/vectorized.cc).
  /// `inputs` are the predecessor datasets in edge order (resolved by the
  /// caller, so concurrent workers never look up the shared dataset map
  /// while another thread mutates it). After the per-operator fault point
  /// ("etl.exec.<Op>"), the kernel processes its inputs chunk by chunk with
  /// a per-chunk lifecycle check, fault point ("etl.exec.vec.chunk") and
  /// budget charge. Loaders are sinks and emit no rows.
  Result<Dataset> RunNode(const Node& node,
                          const std::vector<const Dataset*>& inputs,
                          LoaderEffect* loader, const ExecContext* ctx,
                          const ExecOptions& options);

  /// The per-node attempt loop shared by the serial path and the scheduler:
  /// context pre-check, loader table snapshot, RunNode (whose per-chunk
  /// budget charges ride inside the attempt), loader rollback on failure,
  /// bounded backoff between attempts. Lifecycle errors are never retried.
  /// `protect_loader_always` forces the loader snapshot even without
  /// retries/checkpoint/ctx (parallel runs always protect: a sibling's
  /// failure must never leave this loader's table half-written).
  NodeAttempt ExecuteNode(const Node& node,
                          const std::vector<const Dataset*>& inputs,
                          const RetryPolicy& retry,
                          const ExecContext* ctx, bool protect_loader_always,
                          Prng* backoff_prng, BackoffBudget* backoff,
                          const ExecOptions& options);

  const storage::Database* source_;
  storage::Database* target_;
};

}  // namespace quarry::etl

#endif  // QUARRY_ETL_EXEC_EXECUTOR_H_
