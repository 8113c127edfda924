#ifndef QUARRY_PERFBENCH_HARNESS_H_
#define QUARRY_PERFBENCH_HARNESS_H_

// Shared declarations of the end-to-end benchmark (perfbench/README.md):
// the span recorder of the traced run, the two ways of driving Quarry
// (through the public facade, or as the replayed sequence of layer calls
// each facade entry point makes), the seeded inputs, and the output oracle.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "etl/exec/executor.h"
#include "mdschema/md_schema.h"
#include "olap/cube_query.h"
#include "ontology/mapping.h"
#include "requirements/requirement.h"
#include "storage/database.h"
#include "storage/generation_store.h"

namespace quarry::perfbench {

// --- time -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Bytes in the regular files under `dir` (0 when it does not exist).
double DirBytes(const std::string& dir);

// --- spans (traced run only) ------------------------------------------------

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the id of the enclosing span (-1 for a request root).
struct SpanRecord {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span and sample store; written out once, when the run ends.
/// Recording is off unless enabled, so the same replay code can run
/// untraced to measure what tracing costs.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A value measured at a layer boundary that is not a duration (bytes,
  /// counts, admission wait). Recorded only while enabled.
  void Sample(const std::string& name, double value);

  void Add(SpanRecord span);
  std::vector<SpanRecord> spans() const;
  std::map<std::string, std::vector<double>> samples() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;                        ///< Guarded by mu_.
  std::map<std::string, std::vector<double>> samples_;   ///< Guarded by mu_.
};

/// RAII span around one layer call. Nests under the thread's open span;
/// a span opened with none open starts a new request.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  int64_t saved_parent_ = -1;
  uint64_t saved_request_ = 0;
};

// --- driving Quarry ---------------------------------------------------------

struct DeployInfo {
  bool integrity_ok = false;  ///< The deployment's referential check.
};

struct Answer {
  etl::Dataset data;
  uint64_t generation = 0;
};

/// One Quarry instance on one durable session directory. Every call is
/// stamped with the tenant the benchmark registered for its role
/// ("designer", "ops", "analyst"; none has a quota).
class Instance {
 public:
  virtual ~Instance() = default;
  virtual Status AddRequirement(const req::InformationRequirement& ir) = 0;
  virtual Result<DeployInfo> Deploy() = 0;
  virtual Result<etl::ExecutionReport> Refresh() = 0;
  virtual Result<Answer> Query(const olap::CubeQuery& query) = 0;
  virtual Status Save() = 0;
  virtual const storage::GenerationStore& warehouse() const = 0;
  /// Fingerprint of the generation startup recovery republished (0 when
  /// the instance was created fresh).
  virtual uint64_t recovered_fingerprint() const = 0;
};

/// The untraced instance: Quarry's public entry points. A fresh instance
/// over `source` with metadata and serving durability on `dir` (the
/// warehouse lives in `dir`/warehouse).
Result<std::unique_ptr<Instance>> CreateFacadeInstance(
    const storage::Database* source, const std::string& dir);

/// Cold start: core::OpenDurableServingSession on the session in `dir`.
Result<std::unique_ptr<Instance>> ColdStartFacadeInstance(
    const storage::Database* source, const std::string& dir);

/// The traced instance: the same sequence of public layer calls each
/// facade entry point makes, each wrapped in a Span.
Result<std::unique_ptr<Instance>> CreateReplayInstance(
    const storage::Database* source, const std::string& dir);
Result<std::unique_ptr<Instance>> ColdStartReplayInstance(
    const storage::Database* source, const std::string& dir);

// --- inputs -----------------------------------------------------------------

/// TPC-H source at the benchmark's scale factor.
Result<std::unique_ptr<storage::Database>> MakeSource(uint64_t seed);

/// The requirement stream (GenerateTpchWorkload: 6 IRs, overlap 0.6, one
/// fixed stream seed).
std::vector<req::InformationRequirement> MakeRequirements();

/// Grows the source by one seeded delta: new orders, each with 1-7
/// lineitems on existing (part, supplier) offers. `round` numbers the
/// deltas of one source so each is distinct and reproducible.
Status GrowSource(storage::Database* source, uint64_t seed, int round);

/// One cube query of the mix, kept in a form the oracle can evaluate
/// without the query compiler: group columns, one measure under several
/// aggregates, and at most one equality slice.
struct QuerySpec {
  std::string kind;  ///< rollup1 | rollup2 | sliced | fact_local
  std::string fact;
  std::vector<std::string> group_by;
  std::string measure;
  std::vector<md::AggFunc> aggregates;
  std::string slice_column;  ///< Empty = no filter.
  std::string slice_value;   ///< A string literal.

  olap::CubeQuery ToCubeQuery() const;
  std::string Describe() const;
};

/// The seeded query mix over a deployed generation: per fact, one- and
/// two-attribute roll-ups, sliced roll-ups and fact-local group-bys.
/// Group and slice attributes come only from levels the fact references
/// (a roll-up to an unreferenced level fails at execution today — the
/// known dim-table parent-key defect). Facts that deployed empty get no
/// queries; `empty_facts` receives their count.
Result<std::vector<QuerySpec>> MakeQueryMix(const storage::Database& db,
                                            const md::MdSchema& schema,
                                            uint64_t seed, int* empty_facts);

// --- oracle -----------------------------------------------------------------

/// Compares `answer` with an independent group-by over the pinned
/// generation `db` (order-free; doubles within a relative tolerance).
/// OK on a match, otherwise a status describing the first difference.
Status CheckAnswer(const storage::Database& db, const md::MdSchema& schema,
                   const QuerySpec& spec, const etl::Dataset& answer);

}  // namespace quarry::perfbench

#endif  // QUARRY_PERFBENCH_HARNESS_H_
