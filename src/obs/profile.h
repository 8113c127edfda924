#ifndef QUARRY_OBS_PROFILE_H_
#define QUARRY_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace quarry::obs {

/// \brief One plan node of a per-request profile tree (EXPLAIN ANALYZE
/// style, docs/OBSERVABILITY.md §"HTTP endpoints & request profiles").
///
/// The executor folds its per-node ExecutionReport stats into this shape;
/// children are the node's inputs (predecessors in the flow), so the tree
/// reads top-down from the sink: "this Loader was fed by this Aggregation,
/// which was fed by ...".
struct ProfileNode {
  std::string id;      ///< Flow node id (e.g. "q_agg", "q_join_Product").
  std::string op;      ///< Operator type name (e.g. "Aggregation").
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double wall_micros = 0.0;
  int attempts = 1;    ///< >1 when the node was retried after a fault.
  std::vector<ProfileNode> children;  ///< Inputs of this node.
};

/// \brief A request's complete EXPLAIN ANALYZE profile: attribution
/// (request id, kind, admission lane, generation served), end-to-end
/// timing, and the per-plan-node tree.
///
/// Returned inline in results (core::QueryResult::profile) and rendered by
/// ToText() for humans / ToJson() for tools. Lives in obs so the executor,
/// the cube engine and the HTTP exporter can all speak it without a
/// dependency on core.
struct RequestProfile {
  uint64_t request_id = 0;
  std::string kind;       ///< "query", "deploy_serving", ...
  std::string lane;       ///< Admission lane ("query", "stale", "" = design).
  std::string status = "ok";
  uint64_t generation = 0;  ///< Warehouse generation served / published.
  bool stale = false;
  double admission_wait_micros = 0.0;
  double total_micros = 0.0;
  int64_t rows = 0;       ///< Result rows (queries) / rows processed (ETL).
  std::vector<ProfileNode> roots;  ///< Sink nodes of the executed flow.

  /// Human-readable EXPLAIN ANALYZE rendering: a header line followed by
  /// the indented plan tree, one node per line.
  std::string ToText() const;

  /// Compact single-object JSON rendering (parseable by quarry::json).
  std::string ToJson() const;
};

}  // namespace quarry::obs

#endif  // QUARRY_OBS_PROFILE_H_
