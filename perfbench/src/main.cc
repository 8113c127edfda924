// quarry_perfbench: the repo's end-to-end benchmark. One process runs one
// workload for a fixed time and prints one JSON result line last.
//
//   quarry_perfbench --workload lifecycle|analyst_reads|reads_under_refresh
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//                    [--source-id ID] [--trace-out FILE]
//
// --trace 0 drives Quarry through its public entry points and reports the
// end-to-end metrics; --trace 1 replays every entry point as its layer
// calls with a span around each and reports the per-layer metrics. Why the
// workloads and metrics are what they are: perfbench/README.md.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <thread>

#include "common/prng.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace quarry::perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sizing (perfbench/README.md has the measurements behind each choice).
constexpr int kLifecycleRefreshes = 1;   // per lifecycle probe
constexpr int kLifecycleColdStarts = 2;  // per lifecycle probe
constexpr int kPassesAfterColdStart = 1;  // lifecycle's query passes
                                          // after a probe's last cold start
constexpr int kSegments = 9;             // analyst_reads segments
constexpr int kProbeRefreshes = 1;       // per analyst_reads probe
constexpr int kProbeColdStarts = 2;      // per read-workload probe
/// An analyst_reads segment reads for at least this share of its time,
/// however long the probe after it takes.
constexpr double kMinReadShare = 0.2;
constexpr int kReadersUnderRefresh = 3;
constexpr double kRefreshPeriodMs = 4000.0;
constexpr int kOverheadRepeats = 3;

/// ETL operators and the names of their per-layer self-time metrics.
constexpr std::pair<etl::OpType, const char*> kEtlOps[] = {
    {etl::OpType::kDatastore, "datastore"},
    {etl::OpType::kExtraction, "extraction"},
    {etl::OpType::kSelection, "selection"},
    {etl::OpType::kProjection, "projection"},
    {etl::OpType::kFunction, "function"},
    {etl::OpType::kJoin, "join"},
    {etl::OpType::kAggregation, "aggregation"},
    {etl::OpType::kLoader, "loader"},
    {etl::OpType::kSort, "sort"},
    {etl::OpType::kUnion, "union"},
    {etl::OpType::kSurrogateKey, "surrogate_key"}};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string source_id = "unknown";
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& message, int code = 2) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(code);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--source-id") {
      o.source_id = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (o.workload != "lifecycle" && o.workload != "analyst_reads" &&
      o.workload != "reads_under_refresh") {
    Die("unknown workload '" + o.workload + "'");
  }
  if (o.work_dir.empty() || o.seconds <= 0) Die("need --work-dir, --seconds");
  return o;
}

// --- accounting -------------------------------------------------------------

/// Every attempted operation, its failures, and every correctness check.
class Ledger {
 public:
  /// Counts one attempted operation; a non-OK status is a failure.
  bool Attempt(const Status& status, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (status.ok()) return true;
    ++failed_;
    if (errors_.size() < 5) errors_.push_back(what + ": " + status.ToString());
    return false;
  }

  void Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++checks_;
    if (ok) return;
    correct_ = false;
    if (check_failures_.size() < 5) check_failures_.push_back(what);
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t checks() const { return checks_; }
  bool correct() const { return correct_; }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }

 private:
  std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_ = 0;
  bool correct_ = true;
  std::vector<std::string> errors_;
  std::vector<std::string> check_failures_;
};

/// Nearest-rank percentile; failed operations sit in `v` as +inf.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return kInf;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// A tail percentile is reported only with at least ten samples beyond it.
bool TailSupported(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double load = -1;
  in >> load;
  return load;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

/// Per-layer metric names end in their unit.
std::string UnitOf(const std::string& name) {
  static const std::vector<std::pair<std::string, std::string>> kSuffixes = {
      {"_us", "us"},       {"_ms", "ms"},         {"_pct", "%"},
      {"_bytes", "bytes"}, {"_ratio", "ratio"},   {"_per_row", "ratio"},
      {"_processed", "count"}};
  for (const auto& [suffix, unit] : kSuffixes) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return unit;
    }
  }
  return "count";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e12 : -1e12;  // JSON has no infinity
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- the run ----------------------------------------------------------------

/// One durable session: a source, the instance serving from it, and its
/// session directory. Deltas grow the source in numbered rounds.
struct Session {
  std::unique_ptr<storage::Database> source;
  std::unique_ptr<Instance> instance;
  std::string dir;
  int delta_round = 0;
};

/// Drops the instance before the source it reads from.
void Close(Session* s) {
  s->instance.reset();
  *s = Session();
}

class Bench {
 public:
  explicit Bench(Options options) : o_(std::move(options)) {}

  int Run();

 private:
  using InstancePtr = std::unique_ptr<Instance>;

  Result<InstancePtr> Create(const storage::Database* source,
                             const std::string& dir) {
    return o_.trace ? CreateReplayInstance(source, dir)
                    : CreateFacadeInstance(source, dir);
  }
  Result<InstancePtr> ColdStart(const storage::Database* source,
                                const std::string& dir) {
    return o_.trace ? ColdStartReplayInstance(source, dir)
                    : ColdStartFacadeInstance(source, dir);
  }

  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  static uint64_t Fingerprint(const Instance& inst) {
    auto pin = inst.warehouse().Acquire();
    if (!pin.ok()) return 0;
    auto fp = inst.warehouse().PublishedFingerprint(pin->generation());
    return fp.ok() ? *fp : 0;
  }

  /// `timed` adds the design-to-serve sample; the set-up's own deployment
  /// is not one, because it is the process's first and pays its warm-up.
  Result<Session> DesignAndServe(const std::string& name, bool timed);
  Status BuildQueries();
  void TimedQuery(Instance& inst, size_t index, std::vector<double>* lat,
                  double* verify_ms);
  void Verify(const Instance& inst, size_t index, const Answer& answer);
  Status Refresh(Session* s, Clock::time_point due);
  void ColdStarts(Session* s, int count, bool query_pass);
  Status Probe(int refreshes, int cold_starts, bool query_pass);
  void QueryPass(Instance& inst);
  void ReadSegment(int segment, int clients, double seconds,
                   const std::function<void(Clock::time_point)>& writer);
  Status Lifecycle();
  void WarmUp();
  Status AnalystReads();
  Status ReadsUnderRefresh();
  void RecordRefreshReport(const etl::ExecutionReport& report);
  void MeasureTraceOverhead(Instance& inst);
  std::vector<std::pair<std::string, double>> PerLayerMetrics();
  void WriteTrace();

  Options o_;
  Ledger ledger_;
  Session main_;   ///< The setup's deployment; analyst reads go to it.
  Session probe_;  ///< The latest probe session, kept until the next one.
  int probes_ = 0;
  uint64_t deployed_fingerprint_ = 0;
  uint64_t refreshed_fingerprint_ = 0;
  std::vector<QuerySpec> mix_;
  int empty_facts_ = 0;
  std::vector<olap::CubeQuery> queries_;

  std::mutex verify_mu_;
  std::set<std::pair<size_t, uint64_t>> verified_;  ///< (query, fingerprint)

  std::vector<double> setup_s_, design_ms_, refresh_ms_, cold_ms_;
  std::vector<double> query_ms_;
  double query_busy_s_ = 0;  ///< Client time the qps divides by.
  int64_t queries_ok_ = 0;
  std::vector<double> refresh_late_ms_;
  double store_mib_ = 0;
  double overhead_pct_ = 0;
  bool first_refresh_recorded_ = false;
  double first_refresh_rows_ = 0;
  double loader_written_ = 0, loader_reaching_ = 0;
};

/// One set-up: datagen, Quarry::Create with durability on a fresh session
/// directory, the requirement stream, DeployServing. Records setup_s (and
/// design_to_serve_ms when `timed`) and checks the deployment.
Result<Session> Bench::DesignAndServe(const std::string& name, bool timed) {
  const Clock::time_point start = Clock::now();
  Session s;
  s.dir = o_.work_dir + "/" + name;
  std::error_code ec;
  fs::remove_all(s.dir, ec);
  fs::create_directories(s.dir, ec);
  if (ec) return Status::ExecutionError("cannot create " + s.dir);
  QUARRY_ASSIGN_OR_RETURN(s.source, MakeSource(o_.seed));
  QUARRY_ASSIGN_OR_RETURN(s.instance, Create(s.source.get(), s.dir));
  const Clock::time_point design_start = Clock::now();
  for (const req::InformationRequirement& ir : MakeRequirements()) {
    Status st = s.instance->AddRequirement(ir);
    if (!ledger_.Attempt(st, "requirement " + ir.id)) return st;
  }
  Result<DeployInfo> info = s.instance->Deploy();
  if (!ledger_.Attempt(info.status(), "deploy")) return info.status();
  if (timed) design_ms_.push_back(MillisSince(design_start));
  setup_s_.push_back(MillisSince(start) / 1000.0);
  ledger_.Check(info->integrity_ok, "referential integrity after deploy");
  const uint64_t fp = Fingerprint(*s.instance);
  if (deployed_fingerprint_ == 0) deployed_fingerprint_ = fp;
  ledger_.Check(fp == deployed_fingerprint_,
                "deployed fingerprint repeats for the same seed");
  return s;
}

Status Bench::BuildQueries() {
  QUARRY_ASSIGN_OR_RETURN(storage::GenerationStore::Pin pin,
                          main_.instance->warehouse().Acquire());
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin.annex());
  if (schema == nullptr) return Status::Internal("generation has no schema");
  QUARRY_ASSIGN_OR_RETURN(
      mix_, MakeQueryMix(pin.db(), *schema, o_.seed, &empty_facts_));
  for (const QuerySpec& q : mix_) queries_.push_back(q.ToCubeQuery());
  return Status::OK();
}

void Bench::Verify(const Instance& inst, size_t index, const Answer& answer) {
  auto fp = inst.warehouse().PublishedFingerprint(answer.generation);
  if (!fp.ok()) {
    ledger_.Check(false, "answer names unpublished generation");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(verify_mu_);
    if (!verified_.insert({index, *fp}).second) return;
  }
  // The oracle reads the generation the answer came from; if a publish
  // already replaced it, a later answer on that generation (or none)
  // gets checked instead.
  auto pin = inst.warehouse().Acquire();
  if (!pin.ok() || pin->generation() != answer.generation) {
    std::lock_guard<std::mutex> lock(verify_mu_);
    verified_.erase({index, *fp});
    return;
  }
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin->annex());
  Status st = schema == nullptr
                  ? Status::Internal("no schema annex")
                  : CheckAnswer(pin->db(), *schema, mix_[index], answer.data);
  ledger_.Check(st.ok(), "oracle: " + mix_[index].Describe() + ": " +
                             st.ToString());
}

void Bench::TimedQuery(Instance& inst, size_t index, std::vector<double>* lat,
                       double* verify_ms) {
  const Clock::time_point start = Clock::now();
  Result<Answer> answer = inst.Query(queries_[index]);
  const double ms = MillisSince(start);
  if (!ledger_.Attempt(answer.status(), "query " + mix_[index].Describe())) {
    lat->push_back(kInf);
    return;
  }
  lat->push_back(ms);
  const Clock::time_point verify_start = Clock::now();
  Verify(inst, index, *answer);
  *verify_ms += MillisSince(verify_start);
}

void Bench::RecordRefreshReport(const etl::ExecutionReport& report) {
  if (!o_.trace) return;
  std::map<etl::OpType, double> per_op;
  for (const etl::NodeStats& n : report.nodes) {
    per_op[n.type] += n.millis;
    if (n.type == etl::OpType::kLoader) {
      loader_reaching_ += static_cast<double>(n.rows_in);
    }
  }
  for (const auto& [type, name] : kEtlOps) {
    Tracer::Get().Sample(std::string("etl.") + name + "_ms", per_op[type]);
  }
  for (const auto& [table, rows] : report.loaded) {
    loader_written_ += static_cast<double>(rows);
  }
  if (!first_refresh_recorded_) {
    first_refresh_recorded_ = true;
    first_refresh_rows_ = static_cast<double>(report.rows_processed);
  }
}

/// RefreshServing on `s` after its source grew by the next delta (grown
/// before `due`). Latency counts from `due`, so a late start counts too.
Status Bench::Refresh(Session* s, Clock::time_point due) {
  std::this_thread::sleep_until(due);
  refresh_late_ms_.push_back(std::max(0.0, MillisSince(due)));
  Result<etl::ExecutionReport> report = s->instance->Refresh();
  const double ms = MillisSince(due);
  if (!ledger_.Attempt(report.status(), "refresh")) {
    refresh_ms_.push_back(kInf);
    return report.status();
  }
  refresh_ms_.push_back(ms);
  RecordRefreshReport(*report);
  return Status::OK();
}

/// One pass of the whole query mix on `inst`, one client.
void Bench::QueryPass(Instance& inst) {
  double verify_ms = 0;
  std::vector<double> lat;
  for (size_t q = 0; q < queries_.size(); ++q) {
    TimedQuery(inst, q, &lat, &verify_ms);
  }
  for (double ms : lat) {
    if (!std::isfinite(ms)) continue;
    query_busy_s_ += ms / 1000.0;
    ++queries_ok_;
  }
  query_ms_.insert(query_ms_.end(), lat.begin(), lat.end());
}

/// Saves the session, drops its instance, and cold-starts `count` times;
/// each cold start ends when its first query is answered. With
/// `query_pass`, the whole mix then runs on the last recovered warehouse,
/// which stays open.
void Bench::ColdStarts(Session* s, int count, bool query_pass) {
  const uint64_t last_fp = Fingerprint(*s->instance);
  ledger_.Attempt(s->instance->Save(), "save session");
  for (int c = 0; c < count; ++c) {
    s->instance.reset();
    const Clock::time_point start = Clock::now();
    Result<InstancePtr> inst = ColdStart(s->source.get(), s->dir);
    if (!ledger_.Attempt(inst.status(), "cold start")) {
      cold_ms_.push_back(kInf);
      continue;
    }
    s->instance = std::move(*inst);
    Result<Answer> first = s->instance->Query(queries_[0]);
    if (!ledger_.Attempt(first.status(), "first query after cold start")) {
      cold_ms_.push_back(kInf);
      continue;
    }
    cold_ms_.push_back(MillisSince(start));
    ledger_.Check(s->instance->recovered_fingerprint() == last_fp,
                  "cold start recovers the last published fingerprint");
    Verify(*s->instance, 0, *first);
  }
  for (int p = 0; query_pass && s->instance && p < kPassesAfterColdStart;
       ++p) {
    QueryPass(*s->instance);
  }
}

/// The lifecycle on a fresh session: design -> serve, `refreshes` rounds
/// of delta + RefreshServing, save, `cold_starts` cold starts. Every probe
/// regenerates the source from the seed and repeats the same work, so its
/// refreshed fingerprint must repeat too.
Status Bench::Probe(int refreshes, int cold_starts, bool query_pass) {
  Close(&probe_);
  QUARRY_ASSIGN_OR_RETURN(
      probe_, DesignAndServe("probe-" + std::to_string(probes_++), true));
  for (int k = 0; k < refreshes; ++k) {
    QUARRY_RETURN_NOT_OK(
        GrowSource(probe_.source.get(), o_.seed, probe_.delta_round++));
    QUARRY_RETURN_NOT_OK(Refresh(&probe_, Clock::now()));
  }
  if (refreshes > 0) {
    const uint64_t fp = Fingerprint(*probe_.instance);
    if (refreshed_fingerprint_ == 0) refreshed_fingerprint_ = fp;
    ledger_.Check(fp == refreshed_fingerprint_,
                  "refreshed fingerprint repeats for the same seed");
  }
  ColdStarts(&probe_, cold_starts, query_pass);
  store_mib_ = DirBytes(probe_.dir) / (1024.0 * 1024.0);
  return Status::OK();
}

/// `clients` closed-loop readers with zero think time on the main session
/// for `seconds`, each with its own seeded order over the query mix (the
/// seed, the segment and the client number fix it).
/// `writer` (may be empty) runs on the calling thread meanwhile, given the
/// segment's start; the readers keep reading until it returns.
void Bench::ReadSegment(
    int segment, int clients, double seconds,
    const std::function<void(Clock::time_point)>& writer) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + Seconds(seconds);
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::vector<double> verify_ms(static_cast<size_t>(clients), 0.0);
  std::atomic<bool> writing{static_cast<bool>(writer)};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Passes over the mix, each in a fresh seeded order: every query
      // runs equally often, so the window's composition does not drift
      // with the draw.
      Prng rng(o_.seed * 1009 + static_cast<uint64_t>(segment * 31 + c));
      std::vector<size_t> order(queries_.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      size_t next = order.size();
      while (Clock::now() < deadline || writing.load()) {
        if (next == order.size()) {
          for (size_t i = order.size() - 1; i > 0; --i) {
            std::swap(order[i], order[static_cast<size_t>(rng.Uniform(
                                    0, static_cast<int64_t>(i)))]);
          }
          next = 0;
        }
        TimedQuery(*main_.instance, order[next++],
                   &lat[static_cast<size_t>(c)],
                   &verify_ms[static_cast<size_t>(c)]);
      }
    });
  }
  if (writer) {
    writer(start);
    writing.store(false);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = MillisSince(start) / 1000.0;
  for (int c = 0; c < clients; ++c) {
    const auto& l = lat[static_cast<size_t>(c)];
    query_ms_.insert(query_ms_.end(), l.begin(), l.end());
    for (double ms : l) queries_ok_ += std::isfinite(ms) ? 1 : 0;
  }
  // qps is per wall second; each client's oracle time is taken out.
  query_busy_s_ +=
      wall_s - Sum(verify_ms) / 1000.0 / static_cast<double>(clients);
}

// lifecycle: probes back to back, each followed by a pass of the query mix
// on the recovered warehouse, until the next one would end further past
// the deadline than half a probe.
Status Bench::Lifecycle() {
  Close(&main_);  // Only the probes run; free the setup's memory.
  const Clock::time_point deadline = Clock::now() + Seconds(o_.seconds);
  double probe_s = 0;
  do {
    const Clock::time_point probe_start = Clock::now();
    QUARRY_RETURN_NOT_OK(
        Probe(kLifecycleRefreshes, kLifecycleColdStarts, true));
    probe_s = MillisSince(probe_start) / 1000.0;
  } while (Clock::now() + Seconds(probe_s / 2) < deadline);
  return Status::OK();
}

/// A pass over the mix, every answer checked and none timed.
void Bench::WarmUp() {
  QueryPass(*main_.instance);
  query_ms_.clear();
  query_busy_s_ = 0;
  queries_ok_ = 0;
}

// analyst_reads: the measured window is cut into segments, each a read
// window and then a probe, so the lifecycle metrics this workload also
// reports are sampled across the whole run rather than in one burst (the
// host's speed wanders over seconds). The read window leaves room for the
// probe, timed by the one before it, so the run ends near the deadline.
Status Bench::AnalystReads() {
  WarmUp();
  const Clock::time_point start = Clock::now();
  const double segment_s = o_.seconds / kSegments;
  // First guess at a probe: a set-up per refresh and one more for the
  // deployment and the cold starts.
  double probe_s = Median(setup_s_) * (1.5 + kProbeRefreshes);
  for (int r = 0; r < kSegments; ++r) {
    const double segment_left_s =
        o_.seconds * (r + 1) / kSegments - MillisSince(start) / 1000.0;
    ReadSegment(r, 1,
                std::max(kMinReadShare * segment_s, segment_left_s - probe_s),
                nullptr);
    const Clock::time_point probe_start = Clock::now();
    QUARRY_RETURN_NOT_OK(Probe(kProbeRefreshes, kProbeColdStarts, false));
    probe_s = MillisSince(probe_start) / 1000.0;
  }
  return Status::OK();
}

// reads_under_refresh: three clients read for the whole window while the
// calling thread writes. It refreshes the main session on a fixed schedule
// from the window's start, and between two refreshes runs a probe (no
// refresh, two cold starts) whenever the last probe's duration fits before
// the next one is due; so every lifecycle metric of this workload is taken
// beside the readers. The last refresh is the last one due that can still
// finish inside the window at the latest refresh's latency.
Status Bench::ReadsUnderRefresh() {
  WarmUp();
  Status status;
  ReadSegment(0, kReadersUnderRefresh, o_.seconds,
              [&](Clock::time_point start) {
    const Clock::time_point end = start + Seconds(o_.seconds);
    const auto period = Seconds(kRefreshPeriodMs / 1000.0);
    double probe_s = Median(setup_s_) * 1.5;
    for (int k = 0;; ++k) {
      const Clock::time_point due = start + period * k;
      const double last_refresh_s =
          refresh_ms_.empty() || !std::isfinite(refresh_ms_.back())
              ? 0
              : refresh_ms_.back() / 1000.0;
      if (k > 0 && due + Seconds(last_refresh_s) > end) break;
      status = GrowSource(main_.source.get(), o_.seed, main_.delta_round++);
      if (!status.ok()) return;
      (void)Refresh(&main_, due);
      if (Clock::now() + Seconds(probe_s) > due + period) continue;
      const Clock::time_point probe_start = Clock::now();
      status = Probe(0, kProbeColdStarts, false);
      if (!status.ok()) return;
      probe_s = MillisSince(probe_start) / 1000.0;
    }
  });
  QUARRY_RETURN_NOT_OK(status);
  store_mib_ = DirBytes(main_.dir) / (1024.0 * 1024.0);
  return Status::OK();
}

/// trace.overhead_pct: the replayed query mix with span recording on
/// against the same replay with it off, interleaved, same generation.
void Bench::MeasureTraceOverhead(Instance& inst) {
  double on = 0, off = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<double> with, without;
    for (int r = 0; r < kOverheadRepeats; ++r) {
      for (bool traced : {r % 2 == 0, r % 2 != 0}) {
        Tracer::Get().set_enabled(traced);
        const Clock::time_point start = Clock::now();
        Result<Answer> answer = inst.Query(queries_[q]);
        (traced ? with : without).push_back(MillisSince(start));
        ledger_.Attempt(answer.status(), "overhead query");
      }
    }
    on += Median(with);
    off += Median(without);
  }
  Tracer::Get().set_enabled(true);
  overhead_pct_ = off > 0 ? (on - off) / off * 100.0 : 0;
}

std::vector<std::pair<std::string, double>> Bench::PerLayerMetrics() {
  const std::vector<SpanRecord> spans = Tracer::Get().spans();
  const auto samples = Tracer::Get().samples();
  std::map<std::string, std::vector<double>> us;  // span name -> durations
  std::map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    us[s.name].push_back(s.end_us - s.start_us);
    children[s.parent].push_back(&s);
  }
  auto median_us = [&](const std::string& name) {
    auto it = us.find(name);
    return it == us.end() ? 0.0 : Median(it->second);
  };
  auto median_sample = [&](const std::string& name) {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : Median(it->second);
  };
  auto sum_sample = [&](const std::string& name) {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : Sum(it->second);
  };
  // Tenant gate per query request: Admit + Lease::Complete.
  std::vector<double> tenant_us;
  double root_us = 0, uncovered_us = 0;
  for (const SpanRecord* root : children[-1]) {
    const double total = root->end_us - root->start_us;
    std::vector<std::pair<double, double>> iv;
    double tenant = 0;
    for (const SpanRecord* c : children[root->id]) {
      iv.emplace_back(c->start_us, c->end_us);
      if (c->name == "core.tenant_admit" || c->name == "core.tenant_complete") {
        tenant += c->end_us - c->start_us;
      }
    }
    if (root->name == "request.query") tenant_us.push_back(tenant);
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = root->start_us;
    for (const auto& [b, e] : iv) {
      const double lo = std::max(b, reach);
      if (e > lo) covered += e - lo;
      reach = std::max(reach, e);
    }
    root_us += total;
    uncovered_us += std::max(0.0, total - covered);
  }
  const double reused = sum_sample("integrator.nodes_reused");
  const double partial = sum_sample("integrator.partial_nodes");
  const double result_rows = sum_sample("olap.result_rows");
  auto wait = samples.find("core.query_admission_wait_us");
  std::vector<std::pair<std::string, double>> m = {
      {"core.tenant_admit_us", tenant_us.empty() ? 0 : Median(tenant_us)},
      {"core.query_admission_wait_us",
       wait == samples.end() || wait->second.empty()
           ? 0
           : Sum(wait->second) / static_cast<double>(wait->second.size())},
      {"storage.pin_us", median_us("storage.pin")},
      {"storage.clone_ms", median_us("storage.clone") / 1000},
      {"storage.publish_us", median_us("storage.publish")},
      {"storage.persist_ms", median_us("storage.persist") / 1000},
      {"storage.persist_bytes", median_sample("storage.persist_bytes")},
      {"storage.recover_ms", median_us("storage.recover") / 1000},
      {"storage.ddl_ms", median_us("storage.ddl") / 1000},
  };
  for (const auto& [type, op] : kEtlOps) {
    const std::string name = std::string("etl.") + op + "_ms";
    m.emplace_back(name, median_sample(name));
  }
  m.insert(
      m.end(),
      {{"etl.deploy_run_ms", median_us("etl.deploy_run") / 1000},
       {"etl.refresh_run_ms", median_us("etl.refresh_run") / 1000},
       {"etl.rows_processed", first_refresh_rows_},
       {"etl.loader_useful_ratio",
        loader_reaching_ > 0 ? loader_written_ / loader_reaching_ : 0},
       {"olap.compile_us", median_sample("olap.compile_us")},
       {"olap.scan_ms", median_sample("olap.scan_ms")},
       {"olap.join_ms", median_sample("olap.join_ms")},
       {"olap.filter_ms", median_sample("olap.filter_ms")},
       {"olap.aggregate_ms", median_sample("olap.aggregate_ms")},
       {"olap.materialize_ms", median_sample("olap.materialize_ms")},
       {"olap.rows_examined_per_row",
        result_rows > 0 ? sum_sample("olap.scan_rows") / result_rows : 0},
       {"interpreter.interpret_us", median_us("interpreter.interpret")},
       {"integrator.integrate_us", median_us("integrator.integrate")},
       {"integrator.reuse_ratio", partial > 0 ? reused / partial : 0},
       {"deployer.generate_ms", median_us("deployer.generate") / 1000},
       {"docstore.store_xml_us", median_us("docstore.store_xml")},
       {"trace.overhead_pct", overhead_pct_},
       {"trace.unattributed_pct",
        root_us > 0 ? uncovered_us / root_us * 100.0 : 0}});
  return m;
}

void Bench::WriteTrace() {
  if (o_.trace_out.empty()) return;
  std::ofstream out(o_.trace_out);
  for (const SpanRecord& s : Tracer::Get().spans()) {
    out << "{\"name\":" << JsonString(s.name) << ",\"start_us\":"
        << JsonNumber(s.start_us) << ",\"end_us\":" << JsonNumber(s.end_us)
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

int Bench::Run() {
  const double load_before = LoadAverage();
  std::error_code ec;
  fs::remove_all(o_.work_dir, ec);
  fs::create_directories(o_.work_dir, ec);
  if (ec) Die("cannot create work dir " + o_.work_dir);
  Tracer::Get().set_enabled(o_.trace);

  Status status = [&]() -> Status {
    QUARRY_ASSIGN_OR_RETURN(main_, DesignAndServe("main", false));
    QUARRY_RETURN_NOT_OK(BuildQueries());
    if (o_.workload == "lifecycle") return Lifecycle();
    if (o_.workload == "analyst_reads") return AnalystReads();
    return ReadsUnderRefresh();
  }();
  if (!status.ok()) {
    ledger_.Check(false, "workload aborted: " + status.ToString());
  }
  const std::string fs_type = FilesystemType(o_.work_dir);
  Instance* last = main_.instance ? main_.instance.get()
                                  : probe_.instance.get();
  if (o_.trace && last != nullptr) MeasureTraceOverhead(*last);
  const double rss = PeakRssMiB();
  Close(&main_);
  Close(&probe_);
  fs::remove_all(o_.work_dir, ec);
  const double load_after = LoadAverage();
  const unsigned cores = std::thread::hardware_concurrency();

  // The record: host context, sample counts and checks; then the result.
  const double attempted = static_cast<double>(ledger_.attempted());
  std::string rec = "{\"record\":{\"workload\":" + JsonString(o_.workload) +
                    ",\"seed\":" + std::to_string(o_.seed) +
                    ",\"seconds\":" + JsonNumber(o_.seconds) +
                    ",\"trace\":" + (o_.trace ? "1" : "0");
  rec += ",\"host\":{\"cores\":" + std::to_string(cores) +
         ",\"load1_before\":" + JsonNumber(load_before) +
         ",\"load1_after\":" + JsonNumber(load_after) +
         ",\"overloaded\":" +
         (std::max(load_before, load_after) > cores ? "true" : "false") +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"source_id\":" + JsonString(o_.source_id) +
         ",\"filesystem\":" + JsonString(fs_type) +
         ",\"flush\":\"fsync per commit\"}";
  rec += ",\"samples\":{\"setup\":" + std::to_string(setup_s_.size()) +
         ",\"design_to_serve\":" + std::to_string(design_ms_.size()) +
         ",\"refresh\":" + std::to_string(refresh_ms_.size()) +
         ",\"cold_start\":" + std::to_string(cold_ms_.size()) +
         ",\"query\":" + std::to_string(query_ms_.size()) + "}";
  rec += ",\"failed_ratio\":" +
         JsonNumber(attempted > 0 ? ledger_.failed() / attempted : 0);
  rec += ",\"checks\":" + std::to_string(ledger_.checks()) +
         ",\"oracle_pairs\":" + std::to_string(verified_.size()) +
         ",\"queries_in_mix\":" + std::to_string(mix_.size()) +
         ",\"empty_facts_skipped\":" + std::to_string(empty_facts_);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(deployed_fingerprint_));
  rec += ",\"deployed_fingerprint\":" + JsonString(fp);
  rec += ",\"refresh_late_ms_max\":" +
         JsonNumber(refresh_late_ms_.empty()
                        ? 0
                        : *std::max_element(refresh_late_ms_.begin(),
                                            refresh_late_ms_.end()));
  rec += ",\"errors\":[";
  for (size_t i = 0; i < ledger_.errors().size(); ++i) {
    rec += (i ? "," : "") + JsonString(ledger_.errors()[i]);
  }
  rec += "],\"check_failures\":[";
  for (size_t i = 0; i < ledger_.check_failures().size(); ++i) {
    rec += (i ? "," : "") + JsonString(ledger_.check_failures()[i]);
  }
  rec += "]}}";
  std::printf("%s\n", rec.c_str());
  if (std::max(load_before, load_after) > cores) {
    std::fprintf(stderr, "perfbench: load average above core count; "
                         "figures of this run are suspect\n");
  }
  for (const std::string& f : ledger_.check_failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  for (const std::string& e : ledger_.errors()) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", e.c_str());
  }

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (o_.trace) {
    WriteTrace();
    for (const auto& [name, value] : PerLayerMetrics()) {
      metrics.emplace_back(name, value, UnitOf(name));
    }
  } else {
    if (!TailSupported(query_ms_.size(), 0.95)) {
      Die("too few query samples (" + std::to_string(query_ms_.size()) +
              ") to report query_p95_ms",
          3);
    }
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"design_to_serve_ms", Median(design_ms_), "ms"},
        {"refresh_p50_ms", Median(refresh_ms_), "ms"},
        {"cold_start_ms", Median(cold_ms_), "ms"},
        {"query_p50_ms", Median(query_ms_), "ms"},
        {"query_p95_ms", Percentile(query_ms_, 0.95), "ms"},
        {"query_qps",
         query_busy_s_ > 0 ? static_cast<double>(queries_ok_) / query_busy_s_
                           : 0,
         "1/s"},
        {"durable_store_mb", store_mib_, "MiB"},
        {"peak_rss_mb", rss, "MiB"},
    };
  }
  std::string out = "{\"correct\":" +
                    std::string(ledger_.correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(ledger_.attempted()) +
                    ",\"failed\":" + std::to_string(ledger_.failed()) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    out += (i ? "," : "") + JsonString(name) + ":{\"value\":" +
           JsonNumber(value) + ",\"unit\":" + JsonString(unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

}  // namespace quarry::perfbench

int main(int argc, char** argv) {
  quarry::perfbench::Bench bench(quarry::perfbench::ParseArgs(argc, argv));
  return bench.Run();
}
