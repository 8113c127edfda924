#include "olap/cube_query.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str_util.h"
#include "etl/expr.h"

namespace quarry::olap {

using etl::Flow;
using etl::Node;
using etl::OpType;

namespace {

Node MakeNode(std::string id, OpType type,
              std::map<std::string, std::string> params) {
  Node node;
  node.id = std::move(id);
  node.type = type;
  node.params = std::move(params);
  return node;
}

}  // namespace

Result<Flow> CubeQueryEngine::Compile(const CubeQuery& query) const {
  QUARRY_ASSIGN_OR_RETURN(const md::Fact* fact, schema_->GetFact(query.fact));
  QUARRY_ASSIGN_OR_RETURN(const storage::Table* fact_table,
                          warehouse_->GetTable(query.fact));
  if (query.measures.empty()) {
    return Status::InvalidArgument("cube query requests no measures");
  }
  std::set<std::string> outputs(query.group_by.begin(), query.group_by.end());
  for (const QueryMeasure& m : query.measures) {
    if (fact->FindMeasure(m.measure) == nullptr) {
      return Status::NotFound("measure '" + m.measure + "' in fact '" +
                              fact->name + "'");
    }
    outputs.insert(m.alias.empty() ? m.measure : m.alias);
  }
  if (outputs.size() != query.group_by.size() + query.measures.size()) {
    return Status::InvalidArgument("cube query names an output column twice");
  }

  // Every non-fact column (group attribute or filter input) must be
  // provided by a dimension level referenced by the fact.
  std::set<std::string> wanted_columns(query.group_by.begin(),
                                       query.group_by.end());
  for (const std::string& filter : query.filters) {
    QUARRY_ASSIGN_OR_RETURN(etl::Expr::Ptr predicate, etl::ParseExpr(filter));
    for (const std::string& column : predicate->ReferencedColumns()) {
      wanted_columns.insert(column);
    }
  }
  auto fact_has = [&](const std::string& column) {
    return fact_table->schema().ColumnIndex(column).has_value();
  };
  // concept -> columns it must contribute. A level is joined on its
  // concept's key columns, so the fact table must carry every one of them:
  // dim tables hold no parent keys to roll up through.
  std::map<std::string, std::set<std::string>> dim_needs;
  for (const std::string& column : wanted_columns) {
    if (fact_has(column)) continue;
    const md::Level* unreachable = nullptr;
    bool found = false;
    for (const md::DimensionRef& ref : fact->dimension_refs) {
      QUARRY_ASSIGN_OR_RETURN(const md::Dimension* dim,
                              schema_->GetDimension(ref.dimension));
      for (const md::Level& level : dim->levels) {
        if (std::none_of(level.attributes.begin(), level.attributes.end(),
                         [&](const md::LevelAttribute& attr) {
                           return attr.name == column;
                         })) {
          continue;
        }
        QUARRY_ASSIGN_OR_RETURN(auto cm,
                                mapping_->ForConcept(level.concept_id));
        if (!std::all_of(cm.key_columns.begin(), cm.key_columns.end(),
                         fact_has)) {
          unreachable = &level;
          continue;
        }
        dim_needs[level.concept_id].insert(column);
        found = true;
      }
    }
    if (!found && unreachable != nullptr) {
      return Status::InvalidArgument(
          "attribute '" + column + "' of level '" + unreachable->name +
          "' is not reachable from fact '" + fact->name +
          "': the fact table lacks the level's key columns");
    }
    if (!found) {
      return Status::NotFound("column '" + column +
                              "' is neither a fact column nor a dimension "
                              "attribute reachable from fact '" +
                              fact->name + "'");
    }
  }

  Flow flow("query_" + query.fact);
  QUARRY_RETURN_NOT_OK(flow.AddNode(
      MakeNode("q_fact", OpType::kDatastore, {{"table", query.fact}})));
  std::string current = "q_fact";

  // Join each contributing dimension table. Keys are aliased on the dim
  // side (via Function nodes) so the join output has no duplicate columns.
  for (const auto& [concept_id, columns] : dim_needs) {
    QUARRY_ASSIGN_OR_RETURN(auto cm, mapping_->ForConcept(concept_id));
    std::string dim_table = "dim_" + concept_id;
    std::string ds_id = "q_dim_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(
        MakeNode(ds_id, OpType::kDatastore, {{"table", dim_table}})));
    std::string side = ds_id;
    std::vector<std::string> aliases;
    for (const std::string& key : cm.key_columns) {
      std::string alias = "__" + concept_id + "_" + key;
      std::string fn_id = "q_alias_" + alias;
      QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
          fn_id, OpType::kFunction, {{"column", alias}, {"expr", key}})));
      QUARRY_RETURN_NOT_OK(flow.AddEdge(side, fn_id));
      side = fn_id;
      aliases.push_back(alias);
    }
    std::vector<std::string> projected = aliases;
    for (const std::string& column : columns) {
      if (std::find(projected.begin(), projected.end(), column) ==
          projected.end()) {
        projected.push_back(column);
      }
    }
    std::string proj_id = "q_proj_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
        proj_id, OpType::kProjection, {{"columns", Join(projected, ",")}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(side, proj_id));
    std::string join_id = "q_join_" + concept_id;
    QUARRY_RETURN_NOT_OK(flow.AddNode(
        MakeNode(join_id, OpType::kJoin,
                 {{"left", Join(cm.key_columns, ",")},
                  {"right", Join(aliases, ",")}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(current, join_id));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(proj_id, join_id));
    current = join_id;
  }

  for (size_t i = 0; i < query.filters.size(); ++i) {
    std::string sel_id = "q_filter_" + std::to_string(i);
    QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
        sel_id, OpType::kSelection, {{"predicate", query.filters[i]}})));
    QUARRY_RETURN_NOT_OK(flow.AddEdge(current, sel_id));
    current = sel_id;
  }

  // Group + aggregate; q_agg is the plan's sink and its dataset the answer.
  std::vector<std::string> projected = query.group_by;
  std::vector<std::string> agg_parts;
  for (const QueryMeasure& m : query.measures) {
    if (std::find(projected.begin(), projected.end(), m.measure) ==
        projected.end()) {
      projected.push_back(m.measure);
    }
    std::string alias = m.alias.empty() ? m.measure : m.alias;
    agg_parts.push_back(std::string(md::AggFuncToEtlName(m.function)) + "(" +
                        m.measure + ") AS " + alias);
  }
  QUARRY_RETURN_NOT_OK(flow.AddNode(MakeNode(
      "q_project", OpType::kProjection, {{"columns", Join(projected, ",")}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge(current, "q_project"));
  QUARRY_RETURN_NOT_OK(
      flow.AddNode(MakeNode("q_agg", OpType::kAggregation,
                            {{"group", Join(query.group_by, ",")},
                             {"aggs", Join(agg_parts, ";")}})));
  QUARRY_RETURN_NOT_OK(flow.AddEdge("q_project", "q_agg"));
  return flow;
}

Result<etl::Dataset> CubeQueryEngine::Execute(const CubeQuery& query,
                                              const ExecContext* ctx,
                                              QueryProfile* profile) const {
  QUARRY_RETURN_NOT_OK(CheckContext(ctx, "cube query compile"));
  QUARRY_ASSIGN_OR_RETURN(Flow flow, Compile(query));
  // No Loader, so no target: the executor hands back q_agg's dataset.
  // (Flow::Validate requires loader sinks and is never called on query
  // plans.) Fail fast, no retries: an interactive query surfaces an
  // operator fault instead of hiding latency in backoff sleeps; lifecycle
  // errors are never retried anyway.
  etl::Executor executor(warehouse_, /*target=*/nullptr);
  etl::Dataset answer;
  Result<etl::ExecutionReport> run = executor.Run(
      flow, etl::ExecOptions{}, etl::RetryPolicy{}, nullptr, ctx, &answer);
  if (profile != nullptr) {
    // Move, don't copy (run keeps its status for the check below). A
    // failed run leaves the report empty, which still yields the full plan
    // shape with zeroed stats — what a failed EXPLAIN ANALYZE should show.
    if (run.ok()) profile->report = std::move(run).value();
    profile->plan = etl::BuildProfileTrees(flow, profile->report);
  }
  QUARRY_RETURN_NOT_OK(run.status());
  // No int<->double cast is needed (a loader used to apply one): every
  // answer column holds one type (DESIGN.md §8, CubeQueryFastPathTest).
  etl::Dataset out;
  out.columns = std::move(answer.columns);
  out.rows = answer.MaterializeRows();
  return out;
}

}  // namespace quarry::olap
