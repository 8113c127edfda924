#ifndef QUARRY_OBS_REQUEST_LOG_H_
#define QUARRY_OBS_REQUEST_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace quarry::obs {

/// One of a request's slowest operators, kept in its completion record so
/// "why was this slow" is answerable without the full profile.
struct OpTiming {
  std::string node;   ///< Flow node id.
  double micros = 0.0;
};

/// \brief One request-completion record of the structured event log.
struct RequestRecord {
  uint64_t id = 0;
  std::string kind;    ///< "query", "deploy_serving", ...
  std::string lane;    ///< Admission lane ("query", "stale", "" = design).
  std::string tenant;  ///< Tenant the request ran for ("" = untenanted).
  std::string status = "ok";  ///< "ok" or the status code name.
  double latency_micros = 0.0;
  double admission_wait_micros = 0.0;
  int64_t rows = 0;
  uint64_t generation = 0;
  bool stale = false;
  std::vector<OpTiming> slowest_ops;  ///< Top 3 by wall time, descending.
  /// Full RequestProfile::ToJson() — kept only when latency crossed the
  /// slow-request threshold (cleared otherwise to bound memory).
  std::string profile_json;

  /// Single-line JSON rendering (the JSONL unit).
  std::string ToJson() const;
};

/// \brief Bounded in-memory ring of recent request completions
/// (docs/OBSERVABILITY.md §"HTTP endpoints & request profiles").
///
/// Writers reserve a slot with one atomic fetch_add (same discipline as the
/// trace ring) and fill it under a per-slot mutex, so concurrent request
/// completions never contend on a global lock and a reader snapshotting the
/// ring never observes a half-written record. Capacity is fixed; old
/// records are overwritten. Records whose latency crosses the slow-request
/// threshold keep their full profile JSON ("promoted"); fast ones drop it.
class RequestLog {
 public:
  /// The process-wide instance (capacity kDefaultCapacity).
  static RequestLog& Instance();

  static constexpr size_t kDefaultCapacity = 256;
  static constexpr double kDefaultSlowThresholdMicros = 100'000.0;  // 100ms

  explicit RequestLog(size_t capacity = kDefaultCapacity);

  /// Appends one completion record. Clears `record.profile_json` unless the
  /// record is slow (latency >= slow_threshold_micros()). Thread-safe.
  void Record(RequestRecord record);

  /// Latency at or above which a record keeps its full profile.
  double slow_threshold_micros() const {
    return slow_threshold_micros_.load(std::memory_order_relaxed);
  }
  void set_slow_threshold_micros(double micros) {
    slow_threshold_micros_.store(micros, std::memory_order_relaxed);
  }

  /// The retained records, oldest first. At most capacity() entries.
  std::vector<RequestRecord> Snapshot() const;

  /// Every retained record as JSON Lines (one object per line, oldest
  /// first) — the drain format Telemetry().WriteTo exports.
  std::string ToJsonl() const;

  size_t capacity() const { return slots_.size(); }

  /// Total records ever appended (monotonic, survives wrap-around).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Clears retained records and restores the default threshold. Metric
  /// families stay registered (the registry owns those).
  void ResetForTest();

 private:
  struct Slot {
    mutable std::mutex mu;
    uint64_t seq = 0;  ///< 1-based append sequence; 0 = never written.
    RequestRecord record;
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<double> slow_threshold_micros_{kDefaultSlowThresholdMicros};
};

}  // namespace quarry::obs

#endif  // QUARRY_OBS_REQUEST_LOG_H_
