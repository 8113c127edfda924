// The traced way of driving Quarry: each facade entry point replayed as the
// sequence of public layer calls it makes (core/quarry.cc, core/session.cc,
// deployer/deployer.cc), with a Span around each call. The wiring mirrors
// Quarry's: the library-default QuarryConfig, the same admission lanes, the
// same tenant registry, metadata repository and generation store.
//
// Two deliberate differences, both visible in the trace:
//   - The warehouse commit runs as an explicit persist::PersistGeneration
//     right after the in-memory Publish, instead of inside a durable
//     Publish, so persist time is its own span. A cold-started instance's
//     store is durable (recovery runs through EnableDurability), so its
//     later publishes persist inside storage.publish.
//   - A query is compiled once on its own (olap.compile) before Execute,
//     which compiles again; the extra compile counts in the trace overhead.
#include <filesystem>
#include <optional>

#include "core/admission.h"
#include "core/metadata_repository.h"
#include "core/quarry.h"
#include "core/session.h"
#include "core/tenant.h"
#include "deployer/pdi_generator.h"
#include "deployer/sql_generator.h"
#include "etl/equivalence.h"
#include "etl/xlm.h"
#include "harness.h"
#include "integrator/design_integrator.h"
#include "interpreter/interpreter.h"
#include "json/json.h"
#include "json/xml_json.h"
#include "ontology/tpch_ontology.h"
#include "storage/generation_persist.h"
#include "storage/sql.h"
#include "xml/xml.h"

namespace quarry::perfbench {

namespace {

namespace fs = std::filesystem;

/// The deployer's execution-plan step (early projections after each
/// extraction), as Deployer::DeployTransactional and Deployer::Refresh
/// apply it.
Result<etl::Flow> PlanForExecution(const etl::Flow& flow,
                                   const storage::Database& source) {
  etl::TableColumns columns;
  for (const std::string& name : source.TableNames()) {
    std::vector<std::string> cols;
    for (const storage::Column& c : (*source.GetTable(name))->schema()
                                        .columns()) {
      cols.push_back(c.name);
    }
    columns[name] = std::move(cols);
  }
  etl::Flow planned = flow.Clone();
  QUARRY_RETURN_NOT_OK(etl::InsertEarlyProjections(&planned, columns).status());
  return planned;
}

/// The deployment record DeployTransactional upserts into "deployments".
json::Value DeploymentRecord(const std::string& database, bool durable,
                             int tables_created,
                             const etl::ExecutionReport& report) {
  json::Object doc;
  doc.reserve(7);
  doc.emplace_back("_id", json::Value(std::string("deployment")));
  doc.emplace_back("status", json::Value(std::string("complete")));
  doc.emplace_back("database", json::Value(database));
  doc.emplace_back("metadata_durable", json::Value(durable));
  doc.emplace_back("tables_created",
                   json::Value(static_cast<int64_t>(tables_created)));
  json::Object rows;
  for (const auto& [table, n] : report.loaded) {
    rows.emplace_back(table, json::Value(n));
  }
  doc.emplace_back("rows_loaded", json::Value(std::move(rows)));
  doc.emplace_back("recovered", json::Value(report.recovered));
  return json::Value(std::move(doc));
}

Result<std::unique_ptr<xml::Element>> SingleDoc(
    const docstore::DocumentStore& store, const std::string& collection) {
  QUARRY_ASSIGN_OR_RETURN(const docstore::Collection* c,
                          store.Get(collection));
  const std::vector<std::string> ids = c->Ids();
  if (ids.empty()) return Status::NotFound("collection '" + collection + "'");
  QUARRY_ASSIGN_OR_RETURN(json::Value wrapper, c->Get(ids.front()));
  const json::Value* doc = wrapper.Find("doc");
  if (doc == nullptr) return Status::ParseError("document lacks 'doc'");
  return json::JsonToXml(*doc);
}

/// Query-plan node self times, grouped the way the per-layer metrics name
/// them (olap.scan / join / filter / aggregate).
void SampleQueryProfile(const olap::QueryProfile& profile, double compile_ms,
                        double execute_ms, size_t result_rows) {
  double scan = 0, join = 0, filter = 0, aggregate = 0, scan_rows = 0;
  for (const etl::NodeStats& n : profile.report.nodes) {
    switch (n.type) {
      case etl::OpType::kDatastore:
        scan += n.millis;
        scan_rows += static_cast<double>(n.rows_out);
        break;
      case etl::OpType::kJoin:
      case etl::OpType::kFunction:
        join += n.millis;
        break;
      case etl::OpType::kProjection:
        // q_proj_<concept> trims a dim side before its join; q_project
        // feeds the aggregation.
        (n.node_id.rfind("q_proj_", 0) == 0 ? join : aggregate) += n.millis;
        break;
      case etl::OpType::kSelection:
        filter += n.millis;
        break;
      case etl::OpType::kAggregation:
        aggregate += n.millis;
        break;
      default:
        break;  // The result loader is part of materialize.
    }
  }
  Tracer& t = Tracer::Get();
  t.Sample("olap.scan_ms", scan);
  t.Sample("olap.join_ms", join);
  t.Sample("olap.filter_ms", filter);
  t.Sample("olap.aggregate_ms", aggregate);
  t.Sample("olap.materialize_ms",
           execute_ms - compile_ms - (scan + join + filter + aggregate));
  t.Sample("olap.scan_rows", scan_rows);
  t.Sample("olap.result_rows", static_cast<double>(result_rows));
}

class ReplayInstance : public Instance {
 public:
  ReplayInstance(const storage::Database* source, ontology::Ontology onto,
                 ontology::SourceMapping mapping, std::string dir)
      : source_(source),
        onto_(std::make_unique<ontology::Ontology>(std::move(onto))),
        mapping_(std::make_unique<ontology::SourceMapping>(std::move(mapping))),
        dir_(std::move(dir)),
        interpreter_(onto_.get(), mapping_.get()),
        admission_(config_.admission),
        query_admission_(QueryLane(config_)),
        warehouse_(config_.database_name) {}

  /// Quarry's constructor and Create: the design integrator over source
  /// statistics, the ontology and mappings stored in the repository.
  Status Init() {
    Span span("core.create");
    QUARRY_RETURN_NOT_OK(mapping_->Validate(*onto_));
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
        onto_.get(), std::move(columns), std::move(rows),
        config_.md_options, config_.etl_cost);
    QUARRY_RETURN_NOT_OK(
        Store("ontologies", onto_->name(), *onto_->ToXml()));
    QUARRY_RETURN_NOT_OK(
        Store("mappings", onto_->name(), *mapping_->ToXml()));
    for (const char* role : {"designer", "ops", "analyst"}) {
      QUARRY_RETURN_NOT_OK(tenants_.Register(role, core::TenantQuota{}));
    }
    return Status::OK();
  }

  /// Quarry::EnableDurability + EnableServingDurability on a fresh
  /// directory; the warehouse commit is then replayed explicitly.
  Status EnableDurability() {
    QUARRY_RETURN_NOT_OK(repository_.EnableDurability(dir_));
    persist_dir_ = dir_ + "/" + core::kWarehouseSubdir;
    std::error_code ec;
    fs::create_directories(persist_dir_, ec);
    if (ec) return Status::ExecutionError("cannot create " + persist_dir_);
    return Status::OK();
  }

  Status AddRequirement(const req::InformationRequirement& ir) override {
    Span root("request.requirement");
    ExecContext ctx;
    ctx.set_tenant("designer");
    return Gated(ctx, [&] { return AddRequirementBody(ir, &ctx); });
  }

  /// Quarry::AddRequirement: interpret, integrate, store every artifact.
  Status AddRequirementBody(const req::InformationRequirement& ir,
                            const ExecContext* ctx) {
    Result<interpreter::PartialDesign> partial = Status::Internal("unset");
    {
      Span span("interpreter.interpret");
      partial = interpreter_.Interpret(ir, ctx);
    }
    QUARRY_RETURN_NOT_OK(partial.status());
    Result<integrator::IntegrationOutcome> outcome = Status::Internal("unset");
    {
      Span span("integrator.integrate");
      outcome = design_->AddRequirement(ir, *partial, ctx);
    }
    QUARRY_RETURN_NOT_OK(outcome.status());
    Tracer::Get().Sample("integrator.nodes_reused",
                         outcome->etl.nodes_reused);
    Tracer::Get().Sample("integrator.partial_nodes",
                         static_cast<double>(partial->flow.num_nodes()));
    QUARRY_RETURN_NOT_OK(Store("xrq", ir.id, *req::ToXrq(ir)));
    QUARRY_RETURN_NOT_OK(
        Store("partial_xmd", ir.id, *partial->schema.ToXml()));
    QUARRY_RETURN_NOT_OK(
        Store("partial_xlm", ir.id, *etl::FlowToXlm(partial->flow)));
    QUARRY_RETURN_NOT_OK(
        Store("unified_xmd", "unified", *design_->schema().ToXml()));
    return Store("unified_xlm", "unified", *etl::FlowToXlm(design_->flow()));
  }

  Result<DeployInfo> Deploy() override {
    Span root("request.deploy_serving");
    ExecContext ctx;
    ctx.set_tenant("designer");
    DeployInfo info;
    Status status = Gated(ctx, [&]() -> Status {
      QUARRY_ASSIGN_OR_RETURN(info, DeployBody(&ctx));
      return Status::OK();
    });
    QUARRY_RETURN_NOT_OK(status);
    return info;
  }

  Result<etl::ExecutionReport> Refresh() override {
    Span root("request.refresh_serving");
    ExecContext ctx;
    ctx.set_tenant("ops");
    etl::ExecutionReport report;
    Status status = Gated(ctx, [&]() -> Status {
      QUARRY_ASSIGN_OR_RETURN(report, RefreshBody(&ctx));
      return Status::OK();
    });
    QUARRY_RETURN_NOT_OK(status);
    return report;
  }

  Result<Answer> Query(const olap::CubeQuery& query) override {
    Span root("request.query");
    ExecContext ctx;
    ctx.set_tenant("analyst");
    Result<core::TenantRegistry::Lease> lease = Status::Internal("unset");
    {
      Span span("core.tenant_admit");
      lease = tenants_.Admit(&ctx);
    }
    QUARRY_RETURN_NOT_OK(lease.status());
    double wait = 0;
    Result<core::AdmissionController::Ticket> ticket =
        Status::Internal("unset");
    {
      Span span("core.query_admission");
      ticket = query_admission_.Admit(&ctx, &wait);
    }
    Tracer::Get().Sample("core.query_admission_wait_us", wait);
    Result<Answer> answer =
        ticket.ok() ? QueryBody(query, &ctx) : Result<Answer>(ticket.status());
    {
      Span span("core.tenant_complete");
      lease->Complete(answer.status());
    }
    return answer;
  }

  Status Save() override {
    Span root("request.save_session");
    Span span("docstore.save");
    return repository_.store().SaveToDirectory(dir_);
  }

  const storage::GenerationStore& warehouse() const override {
    return warehouse_;
  }

  uint64_t recovered_fingerprint() const override {
    return recovery_.recovered_fingerprint;
  }

  /// The second half of OpenDurableServingSession: metadata durability on
  /// the session directory, then warehouse recovery.
  Status Reopen() {
    {
      Span span("docstore.enable_durability");
      QUARRY_RETURN_NOT_OK(repository_.EnableDurability(dir_));
    }
    storage::GenerationStore::AnnexDecoder decoder =
        [](const std::string& bytes) -> Result<std::shared_ptr<const void>> {
      QUARRY_ASSIGN_OR_RETURN(auto root, xml::Parse(bytes));
      QUARRY_ASSIGN_OR_RETURN(md::MdSchema schema,
                              md::MdSchema::FromXml(*root));
      return std::shared_ptr<const void>(
          std::make_shared<const md::MdSchema>(std::move(schema)));
    };
    Span span("storage.recover");
    return warehouse_.EnableDurability(dir_ + "/" + core::kWarehouseSubdir,
                                       std::move(decoder), &recovery_);
  }

  const md::MdSchema& schema() const { return design_->schema(); }

 private:
  static core::AdmissionOptions QueryLane(const core::QuarryConfig& config) {
    core::AdmissionOptions options = config.serving.query_admission;
    options.lane = "query";
    options.derive_queue_timeout_from_deadline = true;
    options.deadline_eviction = true;
    return options;
  }

  /// Tenant gate, then the design lane, then the serialized body.
  template <typename Body>
  Status Gated(const ExecContext& ctx, Body body) {
    Result<core::TenantRegistry::Lease> lease = Status::Internal("unset");
    {
      Span span("core.tenant_admit");
      lease = tenants_.Admit(&ctx);
    }
    QUARRY_RETURN_NOT_OK(lease.status());
    double wait = 0;
    Result<core::AdmissionController::Ticket> ticket =
        Status::Internal("unset");
    {
      Span span("core.admission");
      ticket = admission_.Admit(&ctx, &wait);
    }
    Status status = ticket.status();
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(submit_mu_);
      status = body();
    }
    Span span("core.tenant_complete");
    lease->Complete(status);
    return status;
  }

  Status Store(const std::string& collection, const std::string& id,
               const xml::Element& doc) {
    Span span(repository_.durable() ? "docstore.store_xml"
                                    : "docstore.store_xml_mem");
    return repository_.StoreXml(collection, id, doc);
  }

  /// DeployServingInternal + DeployTransactional into an empty scratch.
  Result<DeployInfo> DeployBody(const ExecContext* ctx) {
    std::unique_ptr<storage::Database> scratch;
    {
      Span span("storage.begin_build");
      scratch = warehouse_.BeginEmptyBuild();
    }
    // DeployTransactional copies the metadata store up front to roll back
    // to; the copy is what costs, and a successful deploy never uses it.
    std::optional<docstore::DocumentStore> metadata_snapshot;
    {
      Span span("docstore.snapshot");
      metadata_snapshot = repository_.store().Clone();
    }
    Result<std::string> ddl = Status::Internal("unset");
    {
      Span span("deployer.generate");
      ddl = deployer::GenerateSql(design_->schema(), *mapping_, *source_,
                                  config_.database_name);
      if (ddl.ok()) {
        (void)deployer::GeneratePdiText(design_->flow(),
                                        config_.database_name);
      }
    }
    QUARRY_RETURN_NOT_OK(ddl.status());
    Result<etl::Flow> planned = Status::Internal("unset");
    {
      Span span("etl.plan");
      planned = PlanForExecution(design_->flow(), *source_);
    }
    QUARRY_RETURN_NOT_OK(planned.status());
    Result<storage::SqlExecutionReport> sql = Status::Internal("unset");
    {
      Span span("storage.ddl");
      sql = storage::ExecuteSql(scratch.get(), *ddl);
    }
    QUARRY_RETURN_NOT_OK(sql.status());
    etl::Executor executor(source_, scratch.get());
    etl::Checkpoint checkpoint;
    Result<etl::ExecutionReport> report = Status::Internal("unset");
    {
      Span span("etl.deploy_run");
      report = executor.Run(*planned, config_.etl_exec, etl::RetryPolicy{},
                            &checkpoint, ctx);
    }
    QUARRY_RETURN_NOT_OK(report.status());
    Status integrity;
    {
      Span span("storage.integrity");
      integrity = scratch->CheckReferentialIntegrity();
    }
    QUARRY_RETURN_NOT_OK(integrity);
    {
      Span span("docstore.deployment_record");
      QUARRY_RETURN_NOT_OK(
          repository_.store().GetOrCreate("deployments")->Upsert(
              "deployment",
              DeploymentRecord(config_.database_name, repository_.durable(),
                               sql->tables_created, *report)));
    }
    QUARRY_RETURN_NOT_OK(PublishBuilt(std::move(scratch)).status());
    return DeployInfo{integrity.ok()};
  }

  /// RefreshServing's body: clone, re-run the flow, check, publish.
  Result<etl::ExecutionReport> RefreshBody(const ExecContext* ctx) {
    if (!warehouse_.has_generation()) {
      return Status::NotFound("no published generation to refresh");
    }
    std::unique_ptr<storage::Database> scratch;
    {
      Span span("storage.clone");
      scratch = warehouse_.BeginBuild();
    }
    Result<etl::Flow> planned = Status::Internal("unset");
    {
      Span span("etl.plan");
      planned = PlanForExecution(design_->flow(), *source_);
    }
    QUARRY_RETURN_NOT_OK(planned.status());
    etl::Executor executor(source_, scratch.get());
    Result<etl::ExecutionReport> report = Status::Internal("unset");
    {
      Span span("etl.refresh_run");
      report = executor.Run(*planned, config_.etl_exec, etl::RetryPolicy{},
                            nullptr, ctx);
    }
    QUARRY_RETURN_NOT_OK(report.status());
    {
      Span span("storage.integrity");
      QUARRY_RETURN_NOT_OK(scratch->CheckReferentialIntegrity());
    }
    QUARRY_RETURN_NOT_OK(PublishBuilt(std::move(scratch)).status());
    return report;
  }

  /// Publish with the schema annex, then the durable commit.
  Result<uint64_t> PublishBuilt(std::unique_ptr<storage::Database> scratch) {
    std::shared_ptr<const md::MdSchema> annex;
    std::string annex_bytes;
    {
      Span span("core.annex");
      annex = std::make_shared<const md::MdSchema>(design_->schema());
      annex_bytes = xml::Write(*annex->ToXml());
    }
    Result<uint64_t> id = Status::Internal("unset");
    {
      Span span("storage.publish");
      id = warehouse_.Publish(std::move(scratch), annex, annex_bytes);
    }
    QUARRY_RETURN_NOT_OK(id.status());
    if (persist_dir_.empty()) return id;
    QUARRY_ASSIGN_OR_RETURN(uint64_t fingerprint,
                            warehouse_.PublishedFingerprint(*id));
    QUARRY_ASSIGN_OR_RETURN(storage::GenerationStore::Pin pin,
                            warehouse_.Acquire());
    {
      Span span("storage.persist");
      QUARRY_RETURN_NOT_OK(storage::persist::PersistGeneration(
          persist_dir_, *id, pin.db(), fingerprint, annex_bytes));
    }
    Tracer::Get().Sample(
        "storage.persist_bytes",
        DirBytes(persist_dir_ + "/" +
                 storage::persist::GenerationDirName(*id)));
    // The store keeps the current and previous generation; publishing N
    // retires N-2, and a durable store deletes its directory.
    if (*id > 2) {
      Span span("storage.retire");
      QUARRY_RETURN_NOT_OK(
          storage::persist::RemoveGenerationDir(persist_dir_, *id - 2));
    }
    return id;
  }

  Result<Answer> QueryBody(const olap::CubeQuery& query,
                           const ExecContext* ctx) {
    Result<storage::GenerationStore::Pin> pin = Status::Internal("unset");
    {
      Span span("storage.pin");
      pin = warehouse_.Acquire();
    }
    QUARRY_RETURN_NOT_OK(pin.status());
    auto schema = std::static_pointer_cast<const md::MdSchema>(pin->annex());
    if (schema == nullptr) return Status::Internal("generation has no annex");
    olap::CubeQueryEngine engine(schema.get(), mapping_.get(), &pin->db());
    Clock::time_point start = Clock::now();
    {
      Span span("olap.compile");
      QUARRY_RETURN_NOT_OK(engine.Compile(query).status());
    }
    const double compile_ms = MillisSince(start);
    olap::QueryProfile profile;
    Result<etl::Dataset> data = Status::Internal("unset");
    start = Clock::now();
    {
      Span span("olap.execute");
      data = engine.Execute(query, ctx, &profile);
    }
    const double execute_ms = MillisSince(start);
    QUARRY_RETURN_NOT_OK(data.status());
    if (Tracer::Get().enabled()) {
      Tracer::Get().Sample("olap.compile_us", compile_ms * 1000.0);
      SampleQueryProfile(profile, compile_ms, execute_ms, data->rows.size());
    }
    return Answer{std::move(*data), pin->generation()};
  }

  const storage::Database* source_;
  core::QuarryConfig config_;
  std::unique_ptr<ontology::Ontology> onto_;
  std::unique_ptr<ontology::SourceMapping> mapping_;
  std::string dir_;
  /// Where the explicit warehouse commit writes; empty when the store is
  /// durable itself (after a cold start).
  std::string persist_dir_;
  interpreter::Interpreter interpreter_;
  std::unique_ptr<integrator::DesignIntegrator> design_;
  core::MetadataRepository repository_;
  core::TenantRegistry tenants_;
  core::AdmissionController admission_;
  core::AdmissionController query_admission_;
  std::mutex submit_mu_;
  storage::GenerationStore warehouse_;
  storage::persist::GenerationRecoveryStats recovery_;
};

}  // namespace

double DirBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

Result<std::unique_ptr<Instance>> CreateReplayInstance(
    const storage::Database* source, const std::string& dir) {
  auto instance = std::make_unique<ReplayInstance>(
      source, ontology::BuildTpchOntology(), ontology::BuildTpchMappings(),
      dir);
  QUARRY_RETURN_NOT_OK(instance->Init());
  QUARRY_RETURN_NOT_OK(instance->EnableDurability());
  return std::unique_ptr<Instance>(std::move(instance));
}

Result<std::unique_ptr<Instance>> ColdStartReplayInstance(
    const storage::Database* source, const std::string& dir) {
  Span root("request.cold_start");
  Result<docstore::DocumentStore> store = Status::Internal("unset");
  {
    Span span("docstore.load");
    store = docstore::DocumentStore::LoadFromDirectory(dir);
  }
  QUARRY_RETURN_NOT_OK(store.status());
  QUARRY_ASSIGN_OR_RETURN(auto onto_doc, SingleDoc(*store, "ontologies"));
  QUARRY_ASSIGN_OR_RETURN(ontology::Ontology onto,
                          ontology::Ontology::FromXml(*onto_doc));
  QUARRY_ASSIGN_OR_RETURN(auto mapping_doc, SingleDoc(*store, "mappings"));
  QUARRY_ASSIGN_OR_RETURN(ontology::SourceMapping mapping,
                          ontology::SourceMapping::FromXml(*mapping_doc));
  auto instance = std::make_unique<ReplayInstance>(
      source, std::move(onto), std::move(mapping), dir);
  QUARRY_RETURN_NOT_OK(instance->Init());
  // LoadSession replays the stored requirement stream in insertion order
  // and checks the rebuilt design against the stored unified xMD.
  if (auto xrq = store->Get("xrq"); xrq.ok()) {
    for (const std::string& id : (*xrq)->Ids()) {
      QUARRY_ASSIGN_OR_RETURN(json::Value wrapper, (*xrq)->Get(id));
      const json::Value* doc = wrapper.Find("doc");
      if (doc == nullptr) return Status::ParseError("xrq lacks 'doc'");
      QUARRY_ASSIGN_OR_RETURN(auto xml_doc, json::JsonToXml(*doc));
      QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                              req::FromXrq(*xml_doc));
      QUARRY_RETURN_NOT_OK(instance->AddRequirementBody(ir, nullptr));
    }
  }
  {
    Span span("core.session_verify");
    QUARRY_ASSIGN_OR_RETURN(auto saved, SingleDoc(*store, "unified_xmd"));
    if (!xml::DeepEqual(*saved, *instance->schema().ToXml())) {
      return Status::ValidationError("rebuilt design differs from '" + dir +
                                     "'");
    }
  }
  QUARRY_RETURN_NOT_OK(instance->Reopen());
  return std::unique_ptr<Instance>(std::move(instance));
}

}  // namespace quarry::perfbench
