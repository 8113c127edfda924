#include "core/session.h"

#include "json/xml_json.h"
#include "ontology/mapping.h"
#include "ontology/ontology.h"
#include "requirements/requirement.h"
#include "xml/xml.h"

namespace quarry::core {

namespace {

/// Unwraps the {"_id","kind","doc"} envelope StoreXml writes.
Result<std::unique_ptr<xml::Element>> UnwrapDoc(const json::Value& wrapper) {
  const json::Value* payload = wrapper.Find("doc");
  if (payload == nullptr) {
    return Status::ParseError("repository document lacks a 'doc' field");
  }
  return json::JsonToXml(*payload);
}

/// First (and only expected) document of a collection, as XML.
Result<std::unique_ptr<xml::Element>> SingleDoc(
    const docstore::DocumentStore& store, const std::string& collection) {
  QUARRY_ASSIGN_OR_RETURN(const docstore::Collection* c,
                          store.Get(collection));
  std::vector<std::string> ids = c->Ids();
  if (ids.empty()) {
    return Status::NotFound("collection '" + collection + "' is empty");
  }
  QUARRY_ASSIGN_OR_RETURN(json::Value doc, c->Get(ids.front()));
  return UnwrapDoc(doc);
}

}  // namespace

Status SaveSession(const Quarry& quarry, const std::string& dir) {
  return quarry.repository().store().SaveToDirectory(dir);
}

Result<std::unique_ptr<Quarry>> LoadSession(const std::string& dir,
                                            const storage::Database* source,
                                            QuarryConfig config,
                                            docstore::RecoveryStats* stats) {
  docstore::RecoveryStats recovery;
  QUARRY_ASSIGN_OR_RETURN(
      docstore::DocumentStore store,
      docstore::DocumentStore::LoadFromDirectory(dir, &recovery));
  QUARRY_ASSIGN_OR_RETURN(auto onto_doc, SingleDoc(store, "ontologies"));
  QUARRY_ASSIGN_OR_RETURN(ontology::Ontology onto,
                          ontology::Ontology::FromXml(*onto_doc));
  QUARRY_ASSIGN_OR_RETURN(auto mapping_doc, SingleDoc(store, "mappings"));
  QUARRY_ASSIGN_OR_RETURN(ontology::SourceMapping mapping,
                          ontology::SourceMapping::FromXml(*mapping_doc));
  QUARRY_ASSIGN_OR_RETURN(
      auto quarry,
      Quarry::Create(std::move(onto), std::move(mapping), source,
                     std::move(config)));

  // Replay the requirement stream in its stored (insertion) order.
  auto xrq_collection = store.Get("xrq");
  if (xrq_collection.ok()) {
    for (const std::string& id : (*xrq_collection)->Ids()) {
      QUARRY_ASSIGN_OR_RETURN(json::Value wrapper,
                              (*xrq_collection)->Get(id));
      QUARRY_ASSIGN_OR_RETURN(auto xrq, UnwrapDoc(wrapper));
      QUARRY_ASSIGN_OR_RETURN(req::InformationRequirement ir,
                              req::FromXrq(*xrq));
      QUARRY_RETURN_NOT_OK(quarry->AddRequirement(ir).status().WithContext(
          "replaying requirement '" + ir.id + "'"));
    }
  }

  // Verify the rebuilt unified design matches the stored snapshot.
  auto stored_xmd = store.Get("unified_xmd");
  if (stored_xmd.ok() && (*stored_xmd)->size() > 0) {
    QUARRY_ASSIGN_OR_RETURN(json::Value wrapper,
                            (*stored_xmd)->Get("unified"));
    QUARRY_ASSIGN_OR_RETURN(auto saved, UnwrapDoc(wrapper));
    auto rebuilt = quarry->schema().ToXml();
    if (!xml::DeepEqual(*saved, *rebuilt)) {
      return Status::ValidationError(
          "rebuilt unified design differs from the stored snapshot in '" +
          dir + "' (source data or code version changed?)");
    }
  }
  quarry->recovery_report_.metadata = recovery;
  if (stats != nullptr) *stats = std::move(recovery);
  return quarry;
}

Result<std::unique_ptr<Quarry>> OpenDurableSession(
    const std::string& dir, const storage::Database* source,
    QuarryConfig config, docstore::RecoveryStats* stats) {
  QUARRY_ASSIGN_OR_RETURN(auto quarry,
                          LoadSession(dir, source, std::move(config), stats));
  QUARRY_RETURN_NOT_OK(quarry->EnableDurability(dir));
  return quarry;
}

Result<std::unique_ptr<Quarry>> OpenDurableServingSession(
    const std::string& dir, const storage::Database* source,
    QuarryConfig config, RecoveryReport* report) {
  QUARRY_ASSIGN_OR_RETURN(
      auto quarry, OpenDurableSession(dir, source, std::move(config)));
  QUARRY_RETURN_NOT_OK(quarry->EnableServingDurability(
      dir + "/" + kWarehouseSubdir));
  if (report != nullptr) *report = quarry->recovery_report();
  return quarry;
}

}  // namespace quarry::core
