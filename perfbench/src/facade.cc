// The untraced way of driving Quarry: its public entry points, with the
// library-default QuarryConfig and QueryOptions, as a user calls them.
#include "core/quarry.h"
#include "core/session.h"
#include "harness.h"
#include "ontology/tpch_ontology.h"

namespace quarry::perfbench {

namespace {

Status RegisterRoles(core::Quarry* quarry) {
  for (const char* role : {"designer", "ops", "analyst"}) {
    QUARRY_RETURN_NOT_OK(quarry->RegisterTenant(role, core::TenantQuota{}));
  }
  return Status::OK();
}

class FacadeInstance : public Instance {
 public:
  FacadeInstance(std::unique_ptr<core::Quarry> quarry, std::string dir)
      : quarry_(std::move(quarry)), dir_(std::move(dir)) {}

  Status AddRequirement(const req::InformationRequirement& ir) override {
    ExecContext ctx;
    ctx.set_tenant("designer");
    return quarry_->SubmitRequirement(ir, &ctx).status();
  }

  Result<DeployInfo> Deploy() override {
    ExecContext ctx;
    ctx.set_tenant("designer");
    QUARRY_ASSIGN_OR_RETURN(deployer::DeploymentOutcome outcome,
                            quarry_->DeployServing({}, &ctx));
    if (!outcome.success) {
      return outcome.failure ? outcome.failure->cause
                             : Status::Internal("deployment not successful");
    }
    return DeployInfo{outcome.report.referential_integrity_ok};
  }

  Result<etl::ExecutionReport> Refresh() override {
    ExecContext ctx;
    ctx.set_tenant("ops");
    return quarry_->RefreshServing(&ctx);
  }

  Result<Answer> Query(const olap::CubeQuery& query) override {
    ExecContext ctx;
    ctx.set_tenant("analyst");
    QUARRY_ASSIGN_OR_RETURN(core::QueryResult result,
                            quarry_->SubmitQuery(query, {}, &ctx));
    return Answer{std::move(result.data), result.generation};
  }

  Status Save() override { return core::SaveSession(*quarry_, dir_); }

  const storage::GenerationStore& warehouse() const override {
    return quarry_->warehouse();
  }

  uint64_t recovered_fingerprint() const override {
    return quarry_->recovery_report().warehouse.recovered_fingerprint;
  }

 private:
  std::unique_ptr<core::Quarry> quarry_;
  std::string dir_;
};

}  // namespace

Result<std::unique_ptr<Instance>> CreateFacadeInstance(
    const storage::Database* source, const std::string& dir) {
  QUARRY_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Quarry> quarry,
      core::Quarry::Create(ontology::BuildTpchOntology(),
                           ontology::BuildTpchMappings(), source));
  QUARRY_RETURN_NOT_OK(quarry->EnableDurability(dir));
  QUARRY_RETURN_NOT_OK(quarry->EnableServingDurability(
      dir + "/" + core::kWarehouseSubdir));
  QUARRY_RETURN_NOT_OK(RegisterRoles(quarry.get()));
  return std::unique_ptr<Instance>(
      new FacadeInstance(std::move(quarry), dir));
}

Result<std::unique_ptr<Instance>> ColdStartFacadeInstance(
    const storage::Database* source, const std::string& dir) {
  QUARRY_ASSIGN_OR_RETURN(std::unique_ptr<core::Quarry> quarry,
                          core::OpenDurableServingSession(dir, source));
  QUARRY_RETURN_NOT_OK(RegisterRoles(quarry.get()));
  return std::unique_ptr<Instance>(
      new FacadeInstance(std::move(quarry), dir));
}

}  // namespace quarry::perfbench
