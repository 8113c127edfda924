#include "core/quarry.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "etl/xlm.h"
#include "obs/metrics.h"
#include "obs/request_log.h"
#include "obs/trace.h"
#include "requirements/query_parser.h"
#include "xml/xml.h"

namespace quarry::core {

namespace {

/// RAII marker of "a build of the next generation is in flight" — the
/// precondition for degrading a shed query to a stale read (§9.3).
class BuildInFlight {
 public:
  explicit BuildInFlight(std::atomic<int>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~BuildInFlight() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  BuildInFlight(const BuildInFlight&) = delete;
  BuildInFlight& operator=(const BuildInFlight&) = delete;

 private:
  std::atomic<int>* counter_;
};

// --- request attribution (docs/OBSERVABILITY.md) --------------------------

obs::Counter& RequestsTotal(const std::string& kind) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_requests_total", "Requests completed through Quarry entry "
      "points, by kind",
      {{"kind", kind}});
}

obs::Counter& RequestFailuresTotal(const std::string& kind) {
  return obs::MetricsRegistry::Instance().counter(
      "quarry_request_failures_total",
      "Requests that completed with a non-OK status, by kind",
      {{"kind", kind}});
}

obs::Histogram& RequestMicrosHistogram(const std::string& kind) {
  return obs::MetricsRegistry::Instance().histogram(
      "quarry_request_micros",
      "End-to-end request latency (admission wait included), by kind",
      obs::LatencyBucketsMicros(), {{"kind", kind}});
}

// Collect (name-pointer, micros) pairs, sort, and copy only the three
// strings that survive — this runs on every request completion, so the
// other N-3 operator names are never copied.
using OpRef = std::pair<const std::string*, double>;

void CollectOpRefs(const std::vector<obs::ProfileNode>& nodes,
                   std::vector<OpRef>* out) {
  for (const obs::ProfileNode& node : nodes) {
    out->push_back({&node.id, node.wall_micros});
    CollectOpRefs(node.children, out);
  }
}

std::vector<obs::OpTiming> KeepSlowestThree(std::vector<OpRef> ops) {
  std::sort(ops.begin(), ops.end(), [](const OpRef& a, const OpRef& b) {
    return a.second > b.second;
  });
  if (ops.size() > 3) ops.resize(3);
  std::vector<obs::OpTiming> out;
  out.reserve(ops.size());
  for (const OpRef& op : ops) out.push_back({*op.first, op.second});
  return out;
}

std::vector<obs::OpTiming> SlowestOps(
    const std::vector<obs::ProfileNode>& roots) {
  std::vector<OpRef> ops;
  CollectOpRefs(roots, &ops);
  return KeepSlowestThree(std::move(ops));
}

std::vector<obs::OpTiming> SlowestOpsFromReport(
    const etl::ExecutionReport& report) {
  std::vector<OpRef> ops;
  ops.reserve(report.nodes.size());
  for (const etl::NodeStats& stats : report.nodes) {
    ops.push_back({&stats.node_id, stats.millis * 1000.0});
  }
  return KeepSlowestThree(std::move(ops));
}

/// Attribution scope of one entry-point invocation: supplies a fallback
/// ExecContext when the caller passed none (the request id must travel
/// regardless), stamps the monotonic request id, times the request end to
/// end and — via Finish(), exactly once — writes the per-kind metrics and
/// the event-log completion record.
class RequestScope {
 public:
  RequestScope(std::string kind, const ExecContext** ctx) {
    if (*ctx == nullptr) {
      owned_ = std::make_unique<ExecContext>();
      *ctx = owned_.get();
    }
    record_.kind = std::move(kind);
    record_.id = (*ctx)->EnsureRequestId();
    record_.tenant = (*ctx)->tenant();
  }

  uint64_t id() const { return record_.id; }
  obs::RequestRecord& record() { return record_; }
  void set_admission_wait(double micros) {
    record_.admission_wait_micros = micros;
  }

  /// Defers profile-JSON rendering to Finish: the string is only built when
  /// the request's latency crosses the slow threshold and the record will
  /// actually keep it. Rendering eagerly on every fast query would charge
  /// ~10% serialization tax to requests whose profile is dropped anyway.
  /// The callable must stay valid until Finish runs.
  void set_profile_renderer(std::function<std::string()> renderer) {
    profile_renderer_ = std::move(renderer);
  }

  /// Completes the request: per-kind metrics + the event-log record.
  void Finish(const Status& status) {
    record_.latency_micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();
    record_.status =
        status.ok() ? "ok" : StatusCodeToString(status.code());
    if (profile_renderer_ &&
        record_.latency_micros >=
            obs::RequestLog::Instance().slow_threshold_micros()) {
      record_.profile_json = profile_renderer_();
    }
    RequestsTotal(record_.kind).Increment();
    if (!status.ok()) RequestFailuresTotal(record_.kind).Increment();
    RequestMicrosHistogram(record_.kind).Observe(record_.latency_micros);
    obs::RequestLog::Instance().Record(std::move(record_));
  }

 private:
  std::unique_ptr<ExecContext> owned_;
  obs::RequestRecord record_;
  std::function<std::string()> profile_renderer_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Request attribution of the design-lane results: each overload folds a
// result into the scope's record and returns the status the request
// effectively completed with — what both the request record and the tenant
// circuit breaker see.

Status Attribute(RequestScope*, const Status& status, const Quarry&) {
  return status;
}

Status Attribute(RequestScope*,
                 const Result<integrator::IntegrationOutcome>& outcome,
                 const Quarry&) {
  return outcome.status();
}

Status Attribute(RequestScope* scope,
                 const Result<etl::ExecutionReport>& report,
                 const Quarry& quarry) {
  if (report.ok()) {
    scope->record().rows = report->rows_processed;
    scope->record().generation = quarry.warehouse().current_generation();
    scope->record().slowest_ops = SlowestOpsFromReport(*report);
  }
  return report.status();
}

/// Rows, generation, slowest operators, and the full ETL profile (kept by
/// the event log only when the request crosses the slow threshold). A
/// deployment that "succeeded" as a Result but rolled back logically
/// carries its DeploymentFailure cause as the effective status.
Status Attribute(RequestScope* scope,
                 const Result<deployer::DeploymentOutcome>& outcome,
                 const Quarry& quarry) {
  if (!outcome.ok()) return outcome.status();
  const deployer::DeploymentOutcome& o = *outcome;
  Status status = Status::OK();
  if (!o.success && !o.partial && o.failure.has_value()) {
    status = o.failure->cause;
  }
  scope->record().rows = o.report.etl.rows_processed;
  scope->record().generation = o.published_generation;
  scope->record().slowest_ops = SlowestOpsFromReport(o.report.etl);
  // Rendered only if Finish finds the deployment slow; `outcome` and the
  // flow (guarded by submit_mu_) outlive the Finish call.
  const etl::Flow* flow = &quarry.flow();
  scope->set_profile_renderer([scope, status, &o, flow] {
    obs::RequestProfile profile;
    profile.request_id = scope->id();
    profile.kind = scope->record().kind;
    profile.status = status.ok() ? "ok" : StatusCodeToString(status.code());
    profile.generation = o.published_generation;
    profile.rows = o.report.etl.rows_processed;
    profile.admission_wait_micros = scope->record().admission_wait_micros;
    profile.total_micros = o.report.etl.total_millis * 1000.0;
    profile.roots = etl::BuildProfileTrees(*flow, o.report.etl);
    return profile.ToJson();
  });
  return status;
}

}  // namespace

Quarry::Quarry(ontology::Ontology onto, ontology::SourceMapping mapping,
               const storage::Database* source, QuarryConfig config)
    : onto_(std::make_unique<ontology::Ontology>(std::move(onto))),
      mapping_(std::make_unique<ontology::SourceMapping>(std::move(mapping))),
      source_(source),
      config_(std::move(config)),
      warehouse_(config_.database_name) {
  elicitor_ = std::make_unique<req::Elicitor>(onto_.get());
  interpreter_ =
      std::make_unique<interpreter::Interpreter>(onto_.get(), mapping_.get());
  etl::TableColumns columns;
  std::map<std::string, int64_t> rows;
  for (const std::string& name : source_->TableNames()) {
    const storage::Table& table = **source_->GetTable(name);
    std::vector<std::string> cols;
    for (const storage::Column& c : table.schema().columns()) {
      cols.push_back(c.name);
    }
    columns[name] = std::move(cols);
    rows[name] = static_cast<int64_t>(table.num_rows());
  }
  design_ = std::make_unique<integrator::DesignIntegrator>(
      onto_.get(), std::move(columns), std::move(rows), config_.md_options,
      config_.etl_cost);
  admission_ = std::make_unique<AdmissionController>(config_.admission);
  // Serving lanes (§9.4): the lane names are fixed here — they are metric
  // identities (quarry_admission_*{lane=...}), not configuration. The
  // design lane keeps whatever the caller set (empty by default, i.e. the
  // unlabeled pre-lane identities).
  AdmissionOptions query_opts = config_.serving.query_admission;
  query_opts.lane = "query";
  // Serving-lane defaults (§11): a query carrying a deadline should neither
  // wait past the point where finishing on time is possible (derived queue
  // timeout) nor enter a queue whose expected wait already exceeds its
  // remaining deadline (eviction). Both only bite for bounded deadlines, so
  // deadline-less callers keep the wait-forever semantics.
  query_opts.derive_queue_timeout_from_deadline = true;
  query_opts.deadline_eviction = true;
  query_admission_ = std::make_unique<AdmissionController>(query_opts);
  AdmissionOptions stale_opts = config_.serving.stale_admission;
  stale_opts.lane = "stale";
  stale_admission_ = std::make_unique<AdmissionController>(stale_opts);

  auto& registry = obs::MetricsRegistry::Instance();
  // Both modes registered eagerly so dashboards see explicit zeros.
  queries_fresh_total_ = &registry.counter(
      "quarry_serving_queries_total",
      "Cube queries served from a pinned warehouse generation, by mode.",
      {{"mode", "fresh"}});
  queries_stale_total_ = &registry.counter(
      "quarry_serving_queries_total",
      "Cube queries served from a pinned warehouse generation, by mode.",
      {{"mode", "stale"}});
  query_micros_ = &registry.histogram(
      "quarry_serving_query_micros",
      "End-to-end latency of served cube queries (pin + compile + execute).",
      obs::LatencyBucketsMicros());
  // Request-attribution families, one instance per entry-point kind, plus
  // the event-log counters (RequestLog registers its own) — all eager so
  // the first scrape shows zeros, not gaps.
  for (const char* kind :
       {"requirement", "requirement_remove", "deploy_serving",
        "refresh_serving", "query"}) {
    RequestsTotal(kind);
    RequestFailuresTotal(kind);
    RequestMicrosHistogram(kind);
  }
  obs::RequestLog::Instance();
}

Result<std::unique_ptr<Quarry>> Quarry::Create(
    ontology::Ontology onto, ontology::SourceMapping mapping,
    const storage::Database* source, QuarryConfig config) {
  if (source == nullptr) {
    return Status::InvalidArgument("source database is null");
  }
  QUARRY_RETURN_NOT_OK(
      mapping.Validate(onto).WithContext("source schema mappings"));
  auto quarry = std::unique_ptr<Quarry>(
      new Quarry(std::move(onto), std::move(mapping), source,
                 std::move(config)));

  // Persist the semantic metadata (paper §2.5: the repository holds domain
  // ontologies and source schema mappings).
  QUARRY_RETURN_NOT_OK(quarry->repository_.StoreXml(
      "ontologies", quarry->onto_->name(), *quarry->onto_->ToXml()));
  QUARRY_RETURN_NOT_OK(quarry->repository_.StoreXml(
      "mappings", quarry->onto_->name(), *quarry->mapping_->ToXml()));

  // Built-in export parsers.
  const storage::Database* source_db = quarry->source_;
  const ontology::SourceMapping* mapping_ptr = quarry->mapping_.get();
  std::string db_name = quarry->config_.database_name;
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "sql", [source_db, mapping_ptr, db_name](const xml::Element& doc)
                 -> Result<std::string> {
        QUARRY_ASSIGN_OR_RETURN(md::MdSchema schema, md::MdSchema::FromXml(doc));
        return deployer::GenerateSql(schema, *mapping_ptr, *source_db,
                                     db_name);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "pdi", [db_name](const xml::Element& doc) -> Result<std::string> {
        QUARRY_ASSIGN_OR_RETURN(etl::Flow flow, etl::FlowFromXlm(doc));
        return deployer::GeneratePdiText(flow, db_name);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "xmd", [](const xml::Element& doc) -> Result<std::string> {
        return xml::Write(doc);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterExporter(
      "xlm", [](const xml::Element& doc) -> Result<std::string> {
        return xml::Write(doc);
      }));
  // Built-in import parsers (paper §2.5: "plug-in capabilities for adding
  // import and export parsers").
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterImporter(
      "arq",
      [](std::string_view text) -> Result<std::unique_ptr<xml::Element>> {
        QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                                req::ParseRequirementQuery(text));
        return req::ToXrq(ir);
      }));
  QUARRY_RETURN_NOT_OK(quarry->repository_.RegisterImporter(
      "xrq",
      [](std::string_view text) -> Result<std::unique_ptr<xml::Element>> {
        return xml::Parse(text);
      }));
  return quarry;
}

Status Quarry::EnableDurability(const std::string& dir) {
  return repository_.EnableDurability(dir);
}

Status Quarry::EnableServingDurability(const std::string& dir) {
  // The annex persisted with each generation is the serialized xMD
  // document; recovery parses it back into the immutable schema snapshot
  // that SubmitQuery compiles cube queries against.
  storage::GenerationStore::AnnexDecoder decoder =
      [](const std::string& bytes) -> Result<std::shared_ptr<const void>> {
    QUARRY_ASSIGN_OR_RETURN(auto root, xml::Parse(bytes));
    QUARRY_ASSIGN_OR_RETURN(md::MdSchema schema, md::MdSchema::FromXml(*root));
    return std::shared_ptr<const void>(
        std::make_shared<const md::MdSchema>(std::move(schema)));
  };
  return warehouse_.EnableDurability(dir, std::move(decoder),
                                     &recovery_report_.warehouse);
}

std::string RecoveryReport::ToString() const {
  return "metadata{" + metadata.ToString() + "} warehouse{" +
         warehouse.ToString() + "}";
}

Status Quarry::RefreshUnifiedArtifacts() {
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("unified_xmd", "unified",
                                            *design_->schema().ToXml()));
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("unified_xlm", "unified",
                                            *etl::FlowToXlm(design_->flow())));
  return Status::OK();
}

Result<integrator::IntegrationOutcome> Quarry::AddRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  QUARRY_NAMED_SPAN(span, "quarry.add_requirement");
  QUARRY_SPAN_ATTR(span, "ir_id", ir.id);
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  QUARRY_ASSIGN_OR_RETURN(interpreter::PartialDesign partial,
                          interpreter_->Interpret(ir, ctx));
  QUARRY_ASSIGN_OR_RETURN(integrator::IntegrationOutcome outcome,
                          design_->AddRequirement(ir, partial, ctx));
  // Record every artifact of this step.
  QUARRY_SPAN("quarry.store_artifacts");
  QUARRY_RETURN_NOT_OK(repository_.StoreXml("xrq", ir.id, *req::ToXrq(ir)));
  QUARRY_RETURN_NOT_OK(
      repository_.StoreXml("partial_xmd", ir.id, *partial.schema.ToXml()));
  QUARRY_RETURN_NOT_OK(
      repository_.StoreXml("partial_xlm", ir.id,
                           *etl::FlowToXlm(partial.flow)));
  QUARRY_RETURN_NOT_OK(RefreshUnifiedArtifacts());
  return outcome;
}

Result<integrator::IntegrationOutcome> Quarry::AddRequirementFromQuery(
    std::string_view query_text, const ExecContext* ctx) {
  QUARRY_ASSIGN_OR_RETURN(auto xrq, repository_.Import("arq", query_text));
  QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                          req::FromXrq(*xrq));
  return AddRequirement(ir, ctx);
}

Status Quarry::RemoveRequirement(const std::string& ir_id) {
  QUARRY_RETURN_NOT_OK(design_->RemoveRequirement(ir_id));
  (void)repository_.Remove("xrq", ir_id);
  (void)repository_.Remove("partial_xmd", ir_id);
  (void)repository_.Remove("partial_xlm", ir_id);
  return RefreshUnifiedArtifacts();
}

Result<integrator::IntegrationOutcome> Quarry::ChangeRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  QUARRY_RETURN_NOT_OK(
      CheckContext(ctx, "change of requirement '" + ir.id + "'"));
  QUARRY_RETURN_NOT_OK(design_->RemoveRequirement(ir.id));
  return AddRequirement(ir, ctx);
}

template <typename Body>
auto Quarry::DesignLane(const char* kind, const ExecContext* ctx, Body&& body)
    -> decltype(body(ctx)) {
  RequestScope scope(kind, &ctx);
  // Tenant quota gate first (§11): a tenant over its rate / in-flight share
  // or behind a tripped breaker is shed before it can touch the shared
  // design lane.
  Result<TenantRegistry::Lease> lease = tenants_.Admit(ctx);
  if (!lease.ok()) {
    scope.Finish(lease.status());
    return lease.status();
  }
  double wait = 0.0;
  Result<AdmissionController::Ticket> ticket = admission_->Admit(ctx, &wait);
  scope.set_admission_wait(wait);
  if (!ticket.ok()) {
    lease->Complete(ticket.status());
    scope.Finish(ticket.status());
    return ticket.status();
  }
  std::lock_guard<std::mutex> lock(submit_mu_);
  auto result = body(ctx);
  Status status = Attribute(&scope, result, *this);
  lease->Complete(status);
  scope.Finish(status);
  return result;
}

Result<integrator::IntegrationOutcome> Quarry::SubmitRequirement(
    const req::InformationRequirement& ir, const ExecContext* ctx) {
  return DesignLane("requirement", ctx, [&](const ExecContext* attributed) {
    return AddRequirement(ir, attributed);
  });
}

Result<integrator::IntegrationOutcome> Quarry::SubmitRequirementFromQuery(
    std::string_view query_text, const ExecContext* ctx) {
  return DesignLane("requirement", ctx, [&](const ExecContext* attributed) {
    return AddRequirementFromQuery(query_text, attributed);
  });
}

Status Quarry::SubmitRemoveRequirement(const std::string& ir_id,
                                       const ExecContext* ctx) {
  return DesignLane(
      "requirement_remove", ctx, [&](const ExecContext* attributed) {
        QUARRY_RETURN_NOT_OK(
            CheckContext(attributed, "removal of '" + ir_id + "'"));
        return RemoveRequirement(ir_id);
      });
}

Result<deployer::DeploymentOutcome> Quarry::DeployServing(
    deployer::DeployOptions options, const ExecContext* ctx) {
  return DesignLane("deploy_serving", ctx, [&](const ExecContext* attributed) {
    return DeployServingInternal(std::move(options), attributed);
  });
}

Result<deployer::DeploymentOutcome> Quarry::DeployServingInternal(
    deployer::DeployOptions options, const ExecContext* ctx) {
  QUARRY_NAMED_SPAN(span, "quarry.deploy_serving");
  QUARRY_SPAN_ATTR(span, "request_id", static_cast<int64_t>(RequestId(ctx)));
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  BuildInFlight build(&serving_builds_in_flight_);
  options.database_name = config_.database_name;
  options.metadata = &repository_.store();
  options.exec = config_.etl_exec;
  // The deployer rolls the metadata store back on its own failures; this
  // snapshot covers the one step after its deployment record is written:
  // the publish (§9, §10).
  docstore::DocumentStore metadata_before = repository_.store().Clone();
  std::unique_ptr<storage::Database> scratch = warehouse_.BeginEmptyBuild();
  deployer::Deployer dep(source_, scratch.get());
  QUARRY_ASSIGN_OR_RETURN(
      deployer::DeploymentOutcome outcome,
      dep.DeployTransactional(design_->schema(), design_->flow(), *mapping_,
                              options, ctx));
  // A failed build never publishes: the scratch dies with this scope and
  // the currently-served generation is untouched. Best-effort partials do
  // publish — the stale lane and the metadata record mark them degraded.
  if (!outcome.success && !outcome.partial) return outcome;
  Result<uint64_t> published = PublishGeneration(std::move(scratch));
  if (published.ok()) {
    outcome.published_generation = *published;
    return outcome;
  }
  // O(1) rollback: the built scratch is simply discarded and readers keep
  // the previously published generation. The deployment record already
  // written must not claim a deployment that never went live.
  repository_.store().RestoreFrom(metadata_before);
  deployer::DeploymentFailure failure;
  failure.stage = "publish";
  failure.rolled_back = true;
  failure.cause = published.status();
  outcome.success = false;
  outcome.partial = false;
  outcome.failure = std::move(failure);
  return outcome;
}

Result<etl::ExecutionReport> Quarry::RefreshServing(const ExecContext* ctx) {
  return DesignLane("refresh_serving", ctx, [&](const ExecContext* attributed) {
    return RefreshServingInternal(attributed);
  });
}

Result<etl::ExecutionReport> Quarry::RefreshServingInternal(
    const ExecContext* ctx) {
  if (!warehouse_.has_generation()) {
    return Status::NotFound(
        "no published warehouse generation to refresh — run DeployServing "
        "first");
  }
  QUARRY_NAMED_SPAN(span, "quarry.refresh_serving");
  QUARRY_SPAN_ATTR(span, "request_id", static_cast<int64_t>(RequestId(ctx)));
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  BuildInFlight build(&serving_builds_in_flight_);
  // Clone-merge-publish: readers keep serving generation N from their pins
  // while the loaders merge the source delta into the clone.
  std::unique_ptr<storage::Database> scratch = warehouse_.BeginBuild();
  deployer::Deployer dep(source_, scratch.get());
  QUARRY_ASSIGN_OR_RETURN(
      etl::ExecutionReport result,
      dep.Refresh(design_->flow(), {}, ctx, config_.etl_exec));
  QUARRY_RETURN_NOT_OK(PublishGeneration(std::move(scratch)).status());
  return result;
}

Result<uint64_t> Quarry::PublishGeneration(
    std::unique_ptr<storage::Database> scratch) {
  // The schema snapshot is published atomically with the data so queries
  // never read a schema newer (or older) than the tables they scan. Its
  // serialized form rides along so a durable store can persist it and
  // recovery can serve queries straight from disk (§10).
  auto annex = std::make_shared<const md::MdSchema>(design_->schema());
  const std::string annex_bytes = xml::Write(*annex->ToXml());
  return warehouse_.Publish(std::move(scratch), std::move(annex), annex_bytes);
}

Result<QueryResult> Quarry::SubmitQuery(const olap::CubeQuery& query,
                                        const QueryOptions& opts,
                                        const ExecContext* ctx) {
  RequestScope scope("query", &ctx);
  scope.record().lane = "query";
  // Tenant quota gate before the query lane (§11): a flooding tenant burns
  // its own token bucket / in-flight share and is shed with a retry-after
  // hint here, so it never occupies shared queue slots.
  Result<TenantRegistry::Lease> lease = tenants_.Admit(ctx);
  if (!lease.ok()) {
    scope.Finish(lease.status());
    return lease.status();
  }
  auto finish_query = [&scope](const Result<QueryResult>& result) {
    if (result.ok()) {
      scope.record().rows = static_cast<int64_t>(result->data.rows.size());
      scope.record().generation = result->generation;
      scope.record().stale = result->stale;
      if (!result->profile.roots.empty()) {
        scope.record().slowest_ops = SlowestOps(result->profile.roots);
        scope.set_profile_renderer(
            [&result] { return result->profile.ToJson(); });
      }
    }
    scope.Finish(result.status());
  };

  double wait = 0.0;
  Result<AdmissionController::Ticket> ticket =
      query_admission_->Admit(ctx, &wait);
  if (ticket.ok()) {
    scope.set_admission_wait(wait);
    Result<QueryResult> result = ExecutePinnedQuery(
        query, /*stale=*/false, ctx, opts.collect_profile, wait);
    lease->Complete(result.status());
    finish_query(result);
    return result;
  }
  // Graceful degradation (§9.3): under overload while a publish is pending,
  // an opted-in caller may still be served generation N-1 through the
  // bounded stale lane instead of being turned away.
  if (ticket.status().IsOverloaded() && opts.allow_stale &&
      serving_builds_in_flight_.load(std::memory_order_relaxed) > 0) {
    Result<AdmissionController::Ticket> stale_ticket =
        stale_admission_->Admit(ctx, &wait);
    if (stale_ticket.ok()) {
      scope.record().lane = "stale";
      scope.set_admission_wait(wait);
      Result<QueryResult> stale = ExecutePinnedQuery(
          query, /*stale=*/true, ctx, opts.collect_profile, wait);
      // Nothing to degrade onto (single published generation): surface the
      // original overload, not the fallback's NotFound.
      if (stale.ok() || !stale.status().IsNotFound()) {
        lease->Complete(stale.status());
        finish_query(stale);
        return stale;
      }
      scope.record().lane = "query";
    }
  }
  lease->Complete(ticket.status());
  scope.Finish(ticket.status());
  return ticket.status();
}

Result<QueryResult> Quarry::ExecutePinnedQuery(const olap::CubeQuery& query,
                                               bool stale,
                                               const ExecContext* ctx,
                                               bool collect_profile,
                                               double admission_wait_micros) {
  QUARRY_NAMED_SPAN(span, "quarry.submit_query");
  if (RequestId(ctx) != 0) {
    QUARRY_SPAN_ATTR(span, "request_id",
                     static_cast<int64_t>(RequestId(ctx)));
  }
  if (!TenantId(ctx).empty()) {
    QUARRY_SPAN_ATTR(span, "tenant", TenantId(ctx));
  }
  const auto start = std::chrono::steady_clock::now();
  QUARRY_ASSIGN_OR_RETURN(
      storage::GenerationStore::Pin pin,
      stale ? warehouse_.AcquirePrevious() : warehouse_.Acquire());
  QUARRY_SPAN_ATTR(span, "generation", std::to_string(pin.generation()));
  // The schema snapshot travels with the generation — reading the live
  // design_->schema() here would race with concurrent requirement changes.
  auto schema = std::static_pointer_cast<const md::MdSchema>(pin.annex());
  if (schema == nullptr) {
    return Status::Internal("generation " + std::to_string(pin.generation()) +
                            " was published without a schema annex");
  }
  olap::CubeQueryEngine engine(schema.get(), mapping_.get(), &pin.db());
  olap::QueryProfile query_profile;
  QUARRY_ASSIGN_OR_RETURN(
      etl::Dataset data,
      engine.Execute(query, ctx,
                     collect_profile ? &query_profile : nullptr));
  (stale ? queries_stale_total_ : queries_fresh_total_)->Increment();
  const double total_micros = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  query_micros_->Observe(total_micros);
  QueryResult result;
  result.generation = pin.generation();
  result.stale = stale;
  result.request_id = RequestId(ctx);
  if (collect_profile) {
    result.profile.request_id = result.request_id;
    result.profile.kind = "query";
    result.profile.lane = stale ? "stale" : "query";
    result.profile.generation = pin.generation();
    result.profile.stale = stale;
    result.profile.admission_wait_micros = admission_wait_micros;
    result.profile.total_micros = total_micros;
    result.profile.rows = static_cast<int64_t>(data.rows.size());
    result.profile.roots = std::move(query_profile.plan);
  }
  result.data = std::move(data);
  return result;
}

Result<std::string> Quarry::ExportSchema(const std::string& format) const {
  return repository_.Export(format, *design_->schema().ToXml());
}

Result<std::string> Quarry::ExportFlow(const std::string& format) const {
  return repository_.Export(format, *etl::FlowToXlm(design_->flow()));
}

}  // namespace quarry::core
