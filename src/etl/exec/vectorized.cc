// The ETL executor's operator kernels (DESIGN.md §8): the one runtime of
// every deploy, refresh and cube query.
//
// Each kernel processes its input as storage::Chunks: a lifecycle check, a
// fault point ("etl.exec.vec.chunk") and a budget charge run once per
// chunk, so cancellation/deadline/budget trips land at chunk granularity
// while the totals stay independent of the chunk size (ApproxRowsBytes is
// linear in rows). No chunk size may change a byte of the output: row
// order, Values and error statuses match the frozen row-at-a-time records
// of the golden corpus (tests/golden_corpus.h) at every chunk size and
// worker count.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "etl/exec/executor.h"
#include "etl/expr.h"
#include "etl/schema_inference.h"
#include "obs/metrics.h"

namespace quarry::etl {

using storage::Chunk;
using storage::DataType;
using storage::Row;
using storage::Value;
using storage::ValueSegment;

namespace {

// ---- parameter parsing, column lookup, Row keys and aggregate state ----

std::vector<std::string> SplitNonEmpty(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& part : Split(text, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

Result<std::vector<size_t>> ColumnPositions(
    const std::vector<std::string>& columns,
    const std::vector<std::string>& wanted, const std::string& node_id) {
  std::vector<size_t> out;
  out.reserve(wanted.size());
  for (const std::string& name : wanted) {
    auto it = std::find(columns.begin(), columns.end(), name);
    if (it == columns.end()) {
      return Status::ExecutionError("node '" + node_id +
                                    "': unknown column '" + name + "'");
    }
    out.push_back(static_cast<size_t>(it - columns.begin()));
  }
  return out;
}

struct RowKeyHash {
  size_t operator()(const storage::Row& r) const {
    return storage::HashRow(r);
  }
};
struct RowKeyEq {
  bool operator()(const storage::Row& a, const storage::Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].SameAs(b[i])) return false;
    }
    return true;
  }
};

storage::Row ExtractKey(const storage::Row& row,
                        const std::vector<size_t>& positions) {
  storage::Row key;
  key.reserve(positions.size());
  for (size_t p : positions) key.push_back(row[p]);
  return key;
}

std::string Param(const Node& node, const std::string& key) {
  auto it = node.params.find(key);
  return it == node.params.end() ? "" : it->second;
}

/// Running state of one aggregate.
struct AggState {
  double sum = 0;
  int64_t int_sum = 0;
  bool all_int = true;
  bool any = false;
  int64_t count = 0;
  storage::Value min, max;
};

/// Folds one COUNT(*) observation.
void AccumulateAggStar(AggState* st) {
  ++st->count;
  st->any = true;
}

/// Folds one column value; NULLs are skipped per SQL aggregate semantics.
void AccumulateAgg(AggState* st, const storage::Value& v) {
  if (v.is_null()) return;
  ++st->count;
  if (v.is_numeric()) {
    st->sum += v.as_double();
    if (v.is_int()) {
      st->int_sum += v.as_int();
    } else {
      st->all_int = false;
    }
  }
  if (!st->any || v.Compare(st->min) < 0) st->min = v;
  if (!st->any || v.Compare(st->max) > 0) st->max = v;
  st->any = true;
}

/// The aggregate's output value: COUNT of an empty group is 0, every other
/// function NULLs out; SUM stays INT while every input was INT.
storage::Value FinalizeAgg(const std::string& function,
                           const AggState& st) {
  if (function == "COUNT") return Value::Int(st.count);
  if (!st.any) return Value::Null();
  if (function == "SUM") {
    return st.all_int ? Value::Int(st.int_sum) : Value::Double(st.sum);
  }
  if (function == "AVG") {
    return Value::Double(st.sum / static_cast<double>(st.count));
  }
  if (function == "MIN") return st.min;
  return st.max;
}

// ---- chunk accounting --------------------------------------------------

obs::Counter& ChunkRowsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_chunk_rows_total",
      "Rows processed by the chunk kernels");
  return c;
}

void CountChunk(const Node& node, int64_t rows) {
  obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_batches_total",
               "Chunks processed by the kernels, by operator type",
               {{"op", OpTypeToString(node.type)}})
      .Increment();
  ChunkRowsCounter().Increment(rows);
}

/// Per-chunk lifecycle gate: the context check names the node exactly like
/// the per-node pre-check, and the fault site lets the fault matrix kill a
/// node mid-stream.
Status ChunkGate(const ExecContext* ctx, const std::string& node_id) {
  if (ctx != nullptr) {
    QUARRY_RETURN_NOT_OK(ctx->Check("node '" + node_id + "'"));
  }
  QUARRY_FAULT_POINT("etl.exec.vec.chunk");
  return Status::OK();
}

/// Budget charges for the rows a kernel emits, chunk by chunk. Finish()
/// charges once for a node that emitted no chunks, so every node charges
/// at least once, even for zero rows.
class OutputCharger {
 public:
  OutputCharger(const ExecContext* ctx, const std::string& node_id,
                size_t columns)
      : ctx_(ctx), node_id_(node_id), columns_(columns) {}

  Status Charge(int64_t rows) {
    charged_ = true;
    if (ctx_ == nullptr) return Status::OK();
    QUARRY_RETURN_NOT_OK(ctx_->ChargeRows(rows, "node '" + node_id_ + "'"));
    return ctx_->ChargeBytes(
        ApproxRowsBytes(rows, columns_),
        "node '" + node_id_ + "'");
  }

  Status Finish() { return charged_ ? Status::OK() : Charge(0); }

 private:
  const ExecContext* ctx_;
  const std::string& node_id_;
  size_t columns_;
  bool charged_ = false;
};

/// Expression evaluation against a chunk row. A hash map replaces RowView's
/// linear name scan (first occurrence wins, like RowView::Get), values come
/// straight from the segments, and the tree walk mirrors Expr::Eval
/// case-for-case — including AND/OR short-circuiting, so an unknown column
/// in a short-circuited branch stays unnoticed exactly like Expr::Eval.
class ChunkEval {
 public:
  explicit ChunkEval(const std::vector<std::string>& columns) {
    for (size_t i = 0; i < columns.size(); ++i) {
      index_.emplace(columns[i], i);  // Keeps the first duplicate, as Get().
    }
  }

  Result<Value> Eval(const Expr& e, const Chunk& chunk, uint32_t phys) const {
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return e.literal();
      case Expr::Kind::kColumn: {
        auto it = index_.find(e.column());
        if (it == index_.end()) {
          return Status::NotFound("column '" + e.column() + "' in row");
        }
        return chunk.segment(it->second).At(phys);
      }
      case Expr::Kind::kUnary: {
        QUARRY_ASSIGN_OR_RETURN(Value v, Eval(*e.args()[0], chunk, phys));
        if (e.op() == "-") {
          if (v.is_null()) return Value::Null();
          if (v.is_int()) return Value::Int(-v.as_int());
          if (v.is_double()) return Value::Double(-v.as_double());
          return Status::InvalidArgument("negation of non-numeric value");
        }
        if (e.op() == "NOT") return Value::Bool(!ExprTruthy(v));
        return Status::Internal("unknown unary op '" + e.op() + "'");
      }
      case Expr::Kind::kBinary: {
        if (e.op() == "AND") {
          QUARRY_ASSIGN_OR_RETURN(Value a, Eval(*e.args()[0], chunk, phys));
          if (!ExprTruthy(a)) return Value::Bool(false);
          QUARRY_ASSIGN_OR_RETURN(Value b, Eval(*e.args()[1], chunk, phys));
          return Value::Bool(ExprTruthy(b));
        }
        if (e.op() == "OR") {
          QUARRY_ASSIGN_OR_RETURN(Value a, Eval(*e.args()[0], chunk, phys));
          if (ExprTruthy(a)) return Value::Bool(true);
          QUARRY_ASSIGN_OR_RETURN(Value b, Eval(*e.args()[1], chunk, phys));
          return Value::Bool(ExprTruthy(b));
        }
        QUARRY_ASSIGN_OR_RETURN(Value a, Eval(*e.args()[0], chunk, phys));
        QUARRY_ASSIGN_OR_RETURN(Value b, Eval(*e.args()[1], chunk, phys));
        if (e.op() == "+" || e.op() == "-" || e.op() == "*" ||
            e.op() == "/") {
          return EvalArithmetic(e.op(), a, b);
        }
        return EvalComparison(e.op(), a, b);
      }
    }
    return Status::Internal("corrupt expression");
  }

 private:
  std::unordered_map<std::string, size_t> index_;
};

// ---------------------------------------------------------------------------
// Fast filter path: `col cmp literal` / `col cmp col` predicates over
// numeric or date segments compare on the typed payloads directly. The
// comparison must agree with Value::Compare: exact int64 when both sides
// are INT, sign-of-difference through double otherwise, raw day counts for
// dates. Anything the fast path cannot prove equivalent falls back to
// ChunkEval for that chunk (segment reps can differ chunk to chunk).

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::optional<CmpOp> ParseCmpOp(const std::string& op) {
  if (op == "=") return CmpOp::kEq;
  if (op == "<>") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  if (op == ">=") return CmpOp::kGe;
  return std::nullopt;
}

CmpOp MirrorCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;
  }
}

bool CmpKeep(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

struct FastCompare {
  CmpOp op = CmpOp::kEq;
  size_t lhs_col = 0;
  bool rhs_is_col = false;
  size_t rhs_col = 0;
  Value literal;  // When !rhs_is_col; always non-NULL numeric or date.
};

std::optional<size_t> FirstIndexOf(const std::vector<std::string>& columns,
                                   const std::string& name) {
  auto it = std::find(columns.begin(), columns.end(), name);
  if (it == columns.end()) return std::nullopt;
  return static_cast<size_t>(it - columns.begin());
}

std::optional<FastCompare> TryFastCompare(
    const Expr& pred, const std::vector<std::string>& columns) {
  if (pred.kind() != Expr::Kind::kBinary) return std::nullopt;
  std::optional<CmpOp> op = ParseCmpOp(pred.op());
  if (!op.has_value()) return std::nullopt;
  const Expr& lhs = *pred.args()[0];
  const Expr& rhs = *pred.args()[1];

  auto build = [&](const Expr& col_side, const Expr& other,
                   CmpOp cmp) -> std::optional<FastCompare> {
    std::optional<size_t> ci = FirstIndexOf(columns, col_side.column());
    if (!ci.has_value()) return std::nullopt;  // Generic path errors as Get.
    FastCompare f;
    f.op = cmp;
    f.lhs_col = *ci;
    if (other.kind() == Expr::Kind::kColumn) {
      std::optional<size_t> ri = FirstIndexOf(columns, other.column());
      if (!ri.has_value()) return std::nullopt;
      f.rhs_is_col = true;
      f.rhs_col = *ri;
      return f;
    }
    if (other.kind() != Expr::Kind::kLiteral) return std::nullopt;
    const Value& lit = other.literal();
    if (!lit.is_numeric() && !lit.is_date()) return std::nullopt;
    f.literal = lit;
    return f;
  };

  if (lhs.kind() == Expr::Kind::kColumn) return build(lhs, rhs, *op);
  if (rhs.kind() == Expr::Kind::kColumn &&
      lhs.kind() == Expr::Kind::kLiteral) {
    return build(rhs, lhs, MirrorCmpOp(*op));
  }
  return std::nullopt;
}

bool NumericRep(ValueSegment::Rep rep) {
  return rep == ValueSegment::Rep::kInt64 ||
         rep == ValueSegment::Rep::kDouble;
}

/// True when the fast comparison is provably Value::Compare-equivalent for
/// this chunk's segment representations.
bool FastCompareEligible(const FastCompare& f, const Chunk& chunk) {
  const ValueSegment& ls = chunk.segment(f.lhs_col);
  if (f.rhs_is_col) {
    const ValueSegment& rs = chunk.segment(f.rhs_col);
    return (NumericRep(ls.rep()) && NumericRep(rs.rep())) ||
           (ls.rep() == ValueSegment::Rep::kDate &&
            rs.rep() == ValueSegment::Rep::kDate);
  }
  return (NumericRep(ls.rep()) && f.literal.is_numeric()) ||
         (ls.rep() == ValueSegment::Rep::kDate && f.literal.is_date());
}

double SegDouble(const ValueSegment& s, uint32_t phys) {
  return s.rep() == ValueSegment::Rep::kInt64
             ? static_cast<double>(s.ints()[phys])
             : s.doubles()[phys];
}

/// Fills `sel` with the physical rows of `chunk` passing the fast
/// comparison. NULL on either side never passes (EvalComparison → NULL).
void RunFastCompare(const FastCompare& f, const Chunk& chunk,
                    std::vector<uint32_t>* sel) {
  const ValueSegment& ls = chunk.segment(f.lhs_col);
  const ValueSegment* rs = f.rhs_is_col ? &chunk.segment(f.rhs_col) : nullptr;
  const size_t n = chunk.num_rows();
  const bool date_cmp = ls.rep() == ValueSegment::Rep::kDate;
  const bool int_cmp =
      !date_cmp && ls.rep() == ValueSegment::Rep::kInt64 &&
      (f.rhs_is_col ? rs->rep() == ValueSegment::Rep::kInt64
                    : f.literal.is_int());
  const int64_t lit_int = !f.rhs_is_col && f.literal.is_int()
                              ? f.literal.as_int()
                              : 0;
  const double lit_dbl =
      !f.rhs_is_col && f.literal.is_numeric() ? f.literal.as_double() : 0.0;
  const int32_t lit_date =
      !f.rhs_is_col && f.literal.is_date() ? f.literal.as_date_days() : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t phys = chunk.PhysicalRow(i);
    if (ls.IsNull(phys) || (rs != nullptr && rs->IsNull(phys))) continue;
    int cmp;
    if (date_cmp) {
      int32_t a = ls.dates()[phys];
      int32_t b = rs != nullptr ? rs->dates()[phys] : lit_date;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else if (int_cmp) {
      int64_t a = ls.ints()[phys];
      int64_t b = rs != nullptr ? rs->ints()[phys] : lit_int;
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else {
      double a = SegDouble(ls, phys);
      double b = rs != nullptr ? SegDouble(*rs, phys) : lit_dbl;
      cmp = Sign(a - b);
    }
    if (CmpKeep(f.op, cmp)) sel->push_back(phys);
  }
}

/// Group key of `chunk`'s physical row at `positions`.
Row ChunkKey(const Chunk& chunk, const std::vector<size_t>& positions,
             uint32_t phys) {
  Row key;
  key.reserve(positions.size());
  for (size_t p : positions) key.push_back(chunk.segment(p).At(phys));
  return key;
}

/// First non-NULL value's type across the chunks' live rows, in row order:
/// the type a Loader gives a column it creates.
Result<DataType> InferColumnType(const std::vector<Chunk>& chunks,
                                 size_t column) {
  for (const Chunk& chunk : chunks) {
    const ValueSegment& seg = chunk.segment(column);
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      Value v = seg.At(chunk.PhysicalRow(i));
      if (!v.is_null()) return v.type();
    }
  }
  return DataType::kString;  // All-NULL column: arbitrary but stable.
}

// ---------------------------------------------------------------------------
// Hash join, hash aggregation and surrogate keys. A key that is one column
// whose segments all hold the same physical type — int64, date days or
// string — is hashed on its payload (TypedKey) instead of a
// std::vector<Value> per row (GenericKey). Payload equality within one type
// is exactly Value::SameAs (Compare is exact for INT-INT, DATE-DATE and
// STRING-STRING), and NULL is decided from the null mask before any
// payload is read. Keys whose
// segments mix types (kMixed, INT in one chunk and DOUBLE in another) and
// cross-type join pairs such as INT vs DOUBLE, where 1 and 1.0 are the same
// key, stay generic. Both key forms share the kernels below, so NULL-key
// semantics, probe-order output and first-seen group and id order cannot
// drift.

enum class KeyKind { kNone, kInt64, kDate, kString, kGeneric };

/// Folds `column` of `chunks` into a running key kind. All-NULL segments
/// say nothing (their rep is arbitrary); kNone means no value seen yet.
KeyKind FoldKeyKind(KeyKind kind, const std::vector<Chunk>& chunks,
                    size_t column) {
  for (const Chunk& chunk : chunks) {
    const ValueSegment& seg = chunk.segment(column);
    if (kind == KeyKind::kGeneric) return kind;
    if (seg.all_null()) continue;
    KeyKind mine = KeyKind::kGeneric;
    switch (seg.rep()) {
      case ValueSegment::Rep::kInt64: mine = KeyKind::kInt64; break;
      case ValueSegment::Rep::kDate: mine = KeyKind::kDate; break;
      case ValueSegment::Rep::kString: mine = KeyKind::kString; break;
      default: break;
    }
    kind = kind == KeyKind::kNone || kind == mine ? mine : KeyKind::kGeneric;
  }
  return kind;
}

/// A single-column key read straight from the segment payload; nullopt
/// for NULL. Dates widen to int64 — a date key never meets an INT key,
/// because the kind check admits one physical type per key.
template <KeyKind K>
struct TypedKey {
  using Type =
      std::conditional_t<K == KeyKind::kString, std::string_view, int64_t>;
  size_t column;
  std::optional<Type> operator()(const Chunk& chunk, uint32_t phys) const {
    const ValueSegment& seg = chunk.segment(column);
    if (seg.IsNull(phys)) return std::nullopt;
    if constexpr (K == KeyKind::kString) {
      return std::string_view(seg.strings()[phys]);
    } else if constexpr (K == KeyKind::kDate) {
      return seg.dates()[phys];
    } else {
      return seg.ints()[phys];
    }
  }
};

/// Any key as a Row of Values. `null_is_absent` (joins) maps a key with a
/// NULL component to nullopt — SQL NULL never matches; group keys keep
/// NULLs, which SameAs treats as one group.
struct GenericKey {
  using Type = Row;
  const std::vector<size_t>* positions;
  bool null_is_absent;
  std::optional<Row> operator()(const Chunk& chunk, uint32_t phys) const {
    Row key = ChunkKey(chunk, *positions, phys);
    if (null_is_absent &&
        std::any_of(key.begin(), key.end(),
                    [](const Value& v) { return v.is_null(); })) {
      return std::nullopt;
    }
    return key;
  }
};

template <typename Key>
using KeyHash = std::conditional_t<std::is_same_v<Key, Row>, RowKeyHash,
                                   std::hash<Key>>;
template <typename Key>
using KeyEq = std::conditional_t<std::is_same_v<Key, Row>, RowKeyEq,
                                 std::equal_to<Key>>;

constexpr uint32_t kNoRow = UINT32_MAX;

void CountTypedKey(const Node& node) {
  obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_typed_key_total",
               "Join, aggregation and surrogate-key kernel runs that hashed "
               "a typed single-column key, by operator type",
               {{"op", OpTypeToString(node.type)}})
      .Increment();
}

/// Runs `body` with the key functor(s) for the given key columns: typed
/// when there is one column per side and every segment of both agrees on
/// its type, generic otherwise. `sides` pairs each input's chunks with its
/// key positions (one entry for aggregation and surrogate keys, build and
/// probe for joins).
template <typename Body>
Result<Dataset> WithKeys(
    const Node& node,
    const std::vector<std::pair<const std::vector<Chunk>*,
                                const std::vector<size_t>*>>& sides,
    bool null_is_absent, const Body& body) {
  KeyKind kind = KeyKind::kGeneric;
  if (sides[0].second->size() == 1) {
    kind = KeyKind::kNone;
    for (const auto& [chunks, positions] : sides) {
      kind = FoldKeyKind(kind, *chunks, (*positions)[0]);
    }
  }
  auto typed = [&](auto key_kind) {
    constexpr KeyKind K = decltype(key_kind)::value;
    CountTypedKey(node);
    std::vector<TypedKey<K>> keys;
    for (const auto& side : sides) keys.push_back({(*side.second)[0]});
    return body(keys);
  };
  switch (kind) {
    case KeyKind::kNone:  // Every key is NULL: any typed form works.
    case KeyKind::kInt64:
      return typed(std::integral_constant<KeyKind, KeyKind::kInt64>{});
    case KeyKind::kDate:
      return typed(std::integral_constant<KeyKind, KeyKind::kDate>{});
    case KeyKind::kString:
      return typed(std::integral_constant<KeyKind, KeyKind::kString>{});
    case KeyKind::kGeneric:
      break;
  }
  std::vector<GenericKey> keys;
  for (const auto& side : sides) keys.push_back({side.second, null_is_absent});
  return body(keys);
}

/// Inner/left hash join over chunks: builds on the right input in its row
/// order (NULL keys never enter), probes the left chunk by chunk and emits
/// one output chunk per left chunk, matches in build order. Duplicate build
/// keys chain through `next` instead of a vector per key. The right side's
/// output columns are gathered straight from its segments.
template <typename KeyFn>
Result<Dataset> HashJoin(const Node& node, const ExecContext* ctx,
                         const Dataset& left, const Dataset& right,
                         bool left_join, const KeyFn& left_key,
                         const KeyFn& right_key) {
  const std::vector<Chunk>& left_chunks = left.chunks;
  const std::vector<Chunk>& right_chunks = right.chunks;
  using Key = typename KeyFn::Type;
  using SourceRef = ValueSegment::SourceRef;
  std::vector<SourceRef> build_rows;
  for (uint32_t c = 0; c < right_chunks.size(); ++c) {
    const Chunk& chunk = right_chunks[c];
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      build_rows.push_back({c, chunk.PhysicalRow(i)});
    }
  }
  struct Chain {
    uint32_t first;
    uint32_t last;
  };
  std::unordered_map<Key, Chain, KeyHash<Key>, KeyEq<Key>> build;
  build.reserve(build_rows.size());
  std::vector<uint32_t> next(build_rows.size(), kNoRow);
  for (uint32_t g = 0; g < build_rows.size(); ++g) {
    std::optional<Key> key =
        right_key(right_chunks[build_rows[g].source], build_rows[g].row);
    if (!key.has_value()) continue;  // SQL: NULL keys never match.
    auto [it, inserted] = build.try_emplace(std::move(*key), Chain{g, g});
    if (!inserted) {
      next[it->second.last] = g;
      it->second.last = g;
    }
  }
  std::vector<std::vector<const ValueSegment*>> right_sources(
      right.columns.size());
  for (size_t c = 0; c < right.columns.size(); ++c) {
    for (const Chunk& chunk : right_chunks) {
      right_sources[c].push_back(&chunk.segment(c));
    }
  }

  Dataset out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());
  OutputCharger charge(ctx, node.id, out.columns.size());
  for (const Chunk& chunk : left_chunks) {
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    // One (left physical row, build row) pair per output row, in probe
    // order.
    std::vector<uint32_t> left_phys;
    std::vector<SourceRef> right_refs;
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      std::optional<Key> key = left_key(chunk, phys);
      auto it = key.has_value() ? build.find(*key) : build.end();
      if (it == build.end()) {
        if (left_join) {
          left_phys.push_back(phys);
          right_refs.push_back({ValueSegment::kNullSource, 0});
        }
        continue;
      }
      for (uint32_t g = it->second.first; g != kNoRow; g = next[g]) {
        left_phys.push_back(phys);
        right_refs.push_back(build_rows[g]);
      }
    }
    if (left_phys.empty()) continue;
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(out.columns.size());
    for (size_t c = 0; c < left.columns.size(); ++c) {
      segments.push_back(std::make_shared<const ValueSegment>(
          chunk.segment(c).Gather(left_phys)));
    }
    for (size_t c = 0; c < right.columns.size(); ++c) {
      segments.push_back(std::make_shared<const ValueSegment>(
          ValueSegment::GatherFrom(right_sources[c], right_refs)));
    }
    QUARRY_RETURN_NOT_OK(charge.Charge(static_cast<int64_t>(left_phys.size())));
    out.chunks.emplace_back(std::move(segments));
  }
  QUARRY_RETURN_NOT_OK(charge.Finish());
  return out;
}

/// Hash aggregation over chunks, groups in first-seen order. A typed key's
/// NULL (nullopt) is its own group, exactly like SameAs groups NULLs.
template <typename KeyFn>
Result<Dataset> HashAggregate(const Node& node, const ExecContext* ctx,
                              const std::vector<Chunk>& chunks,
                              const std::vector<std::string>& group,
                              const std::vector<size_t>& group_pos,
                              const std::vector<AggSpec>& specs,
                              const std::vector<int>& agg_pos,
                              const KeyFn& key_of) {
  using Key = typename KeyFn::Type;
  std::unordered_map<Key, uint32_t, KeyHash<Key>, KeyEq<Key>> index;
  uint32_t null_group = kNoRow;
  std::vector<Row> group_keys;   // First-seen order.
  std::vector<AggState> states;  // specs.size() per group, group-major.
  for (const Chunk& chunk : chunks) {
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      const uint32_t fresh = static_cast<uint32_t>(group_keys.size());
      std::optional<Key> key = key_of(chunk, phys);
      uint32_t g;
      if (!key.has_value()) {
        if (null_group == kNoRow) null_group = fresh;
        g = null_group;
      } else {
        g = index.try_emplace(std::move(*key), fresh).first->second;
      }
      if (g == fresh) {
        group_keys.push_back(ChunkKey(chunk, group_pos, phys));
        states.resize(states.size() + specs.size());
      }
      AggState* st = &states[static_cast<size_t>(g) * specs.size()];
      for (size_t s = 0; s < specs.size(); ++s) {
        if (specs[s].input == "*") {
          AccumulateAggStar(&st[s]);
          continue;
        }
        AccumulateAgg(
            &st[s], chunk.segment(static_cast<size_t>(agg_pos[s])).At(phys));
      }
    }
  }

  Dataset out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  OutputCharger charge(ctx, node.id, out.columns.size());
  if (out.columns.empty() && !group_keys.empty()) {
    // No group and no aggregate: the one group's row has no columns.
    out.chunks.push_back(Chunk::Columnless(group_keys.size()));
  } else if (!group_keys.empty()) {
    std::vector<std::vector<Value>> cols(out.columns.size());
    for (auto& col : cols) col.reserve(group_keys.size());
    for (size_t g = 0; g < group_keys.size(); ++g) {
      for (size_t k = 0; k < group_pos.size(); ++k) {
        cols[k].push_back(std::move(group_keys[g][k]));
      }
      for (size_t s = 0; s < specs.size(); ++s) {
        cols[group_pos.size() + s].push_back(FinalizeAgg(
            specs[s].function, states[g * specs.size() + s]));
      }
    }
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(cols.size());
    for (auto& col : cols) {
      segments.push_back(std::make_shared<const ValueSegment>(
          ValueSegment::FromValues(std::move(col))));
    }
    out.chunks.emplace_back(std::move(segments));
  }
  QUARRY_RETURN_NOT_OK(
      charge.Charge(static_cast<int64_t>(group_keys.size())));
  return out;
}

/// Surrogate keys in first-seen order: the first row of each distinct key
/// gets the next id (1, 2, ...); a typed key's NULL (nullopt) is one key,
/// exactly like SameAs treats NULLs. Each input chunk keeps its segments
/// and selection and gains the id column.
template <typename KeyFn>
Result<Dataset> AssignSurrogateKeys(const Node& node, const ExecContext* ctx,
                                    const Dataset& in,
                                    const std::string& column,
                                    const KeyFn& key_of) {
  using Key = typename KeyFn::Type;
  std::unordered_map<Key, int64_t, KeyHash<Key>, KeyEq<Key>> ids;
  int64_t null_id = 0;  // 0 until a NULL key is seen.
  int64_t last_id = 0;
  Dataset out;
  out.columns = in.columns;
  out.columns.push_back(column);
  OutputCharger charge(ctx, node.id, out.columns.size());
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    std::vector<Value> values(chunk.capacity());  // Dead slots stay NULL.
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      std::optional<Key> key = key_of(chunk, phys);
      int64_t id;
      if (!key.has_value()) {
        if (null_id == 0) null_id = ++last_id;
        id = null_id;
      } else {
        auto [it, inserted] = ids.try_emplace(std::move(*key), last_id + 1);
        if (inserted) ++last_id;
        id = it->second;
      }
      values[phys] = Value::Int(id);
    }
    std::vector<Chunk::SegmentPtr> segments = chunk.segments();
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromValues(std::move(values))));
    QUARRY_RETURN_NOT_OK(charge.Charge(static_cast<int64_t>(chunk.num_rows())));
    out.chunks.emplace_back(std::move(segments), chunk.selection());
  }
  QUARRY_RETURN_NOT_OK(charge.Finish());
  return out;
}

/// Stable sort: the sort key of every live row is read once, a permutation
/// over (chunk, physical row) is stable-sorted on Value::Compare, and the
/// output is gathered from the input segments in chunks of `chunk_size`
/// rows.
Result<Dataset> SortChunks(const Node& node, const ExecContext* ctx,
                           const Dataset& in,
                           const std::vector<size_t>& positions, bool desc,
                           int64_t chunk_size) {
  using SourceRef = ValueSegment::SourceRef;
  std::vector<SourceRef> refs;
  std::vector<Row> keys;
  for (uint32_t c = 0; c < in.chunks.size(); ++c) {
    const Chunk& chunk = in.chunks[c];
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      refs.push_back({c, phys});
      keys.push_back(ChunkKey(chunk, positions, phys));
    }
  }
  std::vector<uint32_t> order(refs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < positions.size(); ++k) {
      int cmp = keys[a][k].Compare(keys[b][k]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    return false;
  });

  std::vector<std::vector<const ValueSegment*>> sources(in.columns.size());
  for (size_t col = 0; col < in.columns.size(); ++col) {
    for (const Chunk& chunk : in.chunks) {
      sources[col].push_back(&chunk.segment(col));
    }
  }
  Dataset out;
  out.columns = in.columns;
  OutputCharger charge(ctx, node.id, out.columns.size());
  const size_t step = static_cast<size_t>(std::max<int64_t>(1, chunk_size));
  for (size_t begin = 0; begin < order.size(); begin += step) {
    const size_t end = std::min(order.size(), begin + step);
    std::vector<SourceRef> slice;
    slice.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) slice.push_back(refs[order[i]]);
    QUARRY_RETURN_NOT_OK(charge.Charge(static_cast<int64_t>(slice.size())));
    if (in.columns.empty()) {
      out.chunks.push_back(Chunk::Columnless(slice.size()));
      continue;
    }
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(in.columns.size());
    for (size_t col = 0; col < in.columns.size(); ++col) {
      segments.push_back(std::make_shared<const ValueSegment>(
          ValueSegment::GatherFrom(sources[col], slice)));
    }
    out.chunks.emplace_back(std::move(segments));
  }
  QUARRY_RETURN_NOT_OK(charge.Finish());
  return out;
}

/// Passes `in`'s chunks through unchanged (their segments are shared), with
/// the per-chunk gate and charge.
Status ForwardChunks(const Node& node, const ExecContext* ctx,
                     const Dataset& in, OutputCharger* charge, Dataset* out) {
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    QUARRY_RETURN_NOT_OK(
        charge->Charge(static_cast<int64_t>(chunk.num_rows())));
    out->chunks.push_back(chunk);
  }
  return Status::OK();
}

}  // namespace

Result<Dataset> Executor::RunNode(const Node& node,
                                  const std::vector<const Dataset*>& inputs,
                                  LoaderEffect* loader, const ExecContext* ctx,
                                  const ExecOptions& options) {
  QUARRY_FAULT_POINT(std::string("etl.exec.") + OpTypeToString(node.type));
  auto input = [&](size_t i) -> const Dataset& { return *inputs[i]; };
  switch (node.type) {
    case OpType::kDatastore: {
      QUARRY_ASSIGN_OR_RETURN(const storage::Table* table,
                              source_->GetTable(Param(node, "table")));
      Dataset out;
      for (const storage::Column& c : table->schema().columns()) {
        out.columns.push_back(c.name);
      }
      OutputCharger charge(ctx, node.id, out.columns.size());
      for (Chunk& chunk : table->ScanChunks(options.chunk_size)) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
        QUARRY_RETURN_NOT_OK(
            charge.Charge(static_cast<int64_t>(chunk.num_rows())));
        out.chunks.push_back(std::move(chunk));
      }
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kExtraction: {
      Dataset out;
      out.columns = input(0).columns;
      OutputCharger charge(ctx, node.id, out.columns.size());
      QUARRY_RETURN_NOT_OK(ForwardChunks(node, ctx, input(0), &charge, &out));
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kSelection: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr pred,
                              ParseExpr(Param(node, "predicate")));
      const Dataset& in = input(0);
      Dataset out;
      out.columns = in.columns;
      ChunkEval eval(in.columns);
      std::optional<FastCompare> fast = TryFastCompare(*pred, in.columns);
      OutputCharger charge(ctx, node.id, out.columns.size());
      for (const Chunk& chunk : in.chunks) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
        std::vector<uint32_t> sel;
        if (fast.has_value() && FastCompareEligible(*fast, chunk)) {
          RunFastCompare(*fast, chunk, &sel);
        } else {
          for (size_t i = 0; i < chunk.num_rows(); ++i) {
            const uint32_t phys = chunk.PhysicalRow(i);
            QUARRY_ASSIGN_OR_RETURN(Value v, eval.Eval(*pred, chunk, phys));
            if (ExprTruthy(v)) sel.push_back(phys);
          }
        }
        if (sel.empty()) continue;  // Fully filtered chunks are dropped.
        QUARRY_RETURN_NOT_OK(
            charge.Charge(static_cast<int64_t>(sel.size())));
        if (sel.size() == chunk.num_rows()) {
          out.chunks.push_back(chunk);  // Nothing filtered: reuse as-is.
        } else {
          out.chunks.push_back(chunk.WithSelection(
              std::make_shared<const std::vector<uint32_t>>(std::move(sel))));
        }
      }
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kProjection: {
      std::vector<std::string> keep = SplitNonEmpty(Param(node, "columns"));
      const Dataset& in = input(0);
      QUARRY_ASSIGN_OR_RETURN(auto positions,
                              ColumnPositions(in.columns, keep, node.id));
      Dataset out;
      out.columns = keep;
      OutputCharger charge(ctx, node.id, out.columns.size());
      for (const Chunk& chunk : in.chunks) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
        QUARRY_RETURN_NOT_OK(
            charge.Charge(static_cast<int64_t>(chunk.num_rows())));
        if (positions.empty()) {
          out.chunks.push_back(
              Chunk::Columnless(chunk.capacity(), chunk.selection()));
          continue;
        }
        std::vector<Chunk::SegmentPtr> segments;
        segments.reserve(positions.size());
        for (size_t p : positions) segments.push_back(chunk.segment_ptr(p));
        out.chunks.emplace_back(std::move(segments), chunk.selection());
      }
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kFunction: {
      QUARRY_ASSIGN_OR_RETURN(Expr::Ptr expr, ParseExpr(Param(node, "expr")));
      std::string column = Param(node, "column");
      if (column.empty()) {
        return Status::ExecutionError("function '" + node.id +
                                      "' lacks a column param");
      }
      const Dataset& in = input(0);
      Dataset out;
      out.columns = in.columns;
      out.columns.push_back(column);
      ChunkEval eval(in.columns);
      OutputCharger charge(ctx, node.id, out.columns.size());
      for (const Chunk& chunk : in.chunks) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
        // Dead (filtered-out) slots stay NULL and are never evaluated, so
        // an expression that would error on a filtered row doesn't.
        std::vector<Value> values(chunk.capacity());
        for (size_t i = 0; i < chunk.num_rows(); ++i) {
          const uint32_t phys = chunk.PhysicalRow(i);
          QUARRY_ASSIGN_OR_RETURN(Value v, eval.Eval(*expr, chunk, phys));
          values[phys] = std::move(v);
        }
        std::vector<Chunk::SegmentPtr> segments = chunk.segments();
        segments.push_back(std::make_shared<const ValueSegment>(
            ValueSegment::FromValues(std::move(values))));
        QUARRY_RETURN_NOT_OK(
            charge.Charge(static_cast<int64_t>(chunk.num_rows())));
        out.chunks.emplace_back(std::move(segments), chunk.selection());
      }
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kJoin: {
      if (inputs.size() != 2) {
        return Status::ExecutionError("join '" + node.id +
                                      "' needs exactly 2 inputs");
      }
      const Dataset& left = input(0);
      const Dataset& right = input(1);
      std::vector<std::string> left_keys = SplitNonEmpty(Param(node, "left"));
      std::vector<std::string> right_keys =
          SplitNonEmpty(Param(node, "right"));
      if (left_keys.empty() || left_keys.size() != right_keys.size()) {
        return Status::ExecutionError("join '" + node.id +
                                      "' has mismatched key lists");
      }
      std::string join_type = Param(node, "type");
      if (join_type.empty()) join_type = "inner";
      if (join_type != "inner" && join_type != "left") {
        return Status::ExecutionError(
            "join '" + node.id + "': unsupported type '" + join_type + "'");
      }
      QUARRY_ASSIGN_OR_RETURN(
          auto left_pos, ColumnPositions(left.columns, left_keys, node.id));
      QUARRY_ASSIGN_OR_RETURN(
          auto right_pos,
          ColumnPositions(right.columns, right_keys, node.id));
      // Keys: [0] probes the left input, [1] builds on the right one.
      return WithKeys(
          node, {{&left.chunks, &left_pos}, {&right.chunks, &right_pos}},
          /*null_is_absent=*/true, [&](const auto& keys) {
            return HashJoin(node, ctx, left, right, join_type == "left",
                            keys[0], keys[1]);
          });
    }
    case OpType::kAggregation: {
      const Dataset& in = input(0);
      std::vector<std::string> group = SplitNonEmpty(Param(node, "group"));
      QUARRY_ASSIGN_OR_RETURN(auto specs, ParseAggSpecs(Param(node, "aggs")));
      QUARRY_ASSIGN_OR_RETURN(auto group_pos,
                              ColumnPositions(in.columns, group, node.id));
      std::vector<int> agg_pos(specs.size(), -1);
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].input == "*") continue;
        QUARRY_ASSIGN_OR_RETURN(
            auto pos, ColumnPositions(in.columns, {specs[i].input}, node.id));
        agg_pos[i] = static_cast<int>(pos[0]);
      }
      return WithKeys(node, {{&in.chunks, &group_pos}},
                      /*null_is_absent=*/false, [&](const auto& keys) {
                        return HashAggregate(node, ctx, in.chunks, group,
                                             group_pos, specs, agg_pos,
                                             keys[0]);
                      });
    }
    case OpType::kSort: {
      const Dataset& in = input(0);
      std::vector<std::string> by = SplitNonEmpty(Param(node, "by"));
      QUARRY_ASSIGN_OR_RETURN(auto positions,
                              ColumnPositions(in.columns, by, node.id));
      return SortChunks(node, ctx, in, positions,
                        Param(node, "desc") == "true", options.chunk_size);
    }
    case OpType::kUnion: {
      if (inputs.size() < 2) {
        return Status::ExecutionError("union '" + node.id +
                                      "' needs >= 2 inputs");
      }
      Dataset out;
      out.columns = input(0).columns;
      for (const Dataset* in : inputs) {
        if (in->columns != out.columns) {
          return Status::ExecutionError("union '" + node.id +
                                        "' inputs have different schemas");
        }
      }
      OutputCharger charge(ctx, node.id, out.columns.size());
      for (const Dataset* in : inputs) {
        QUARRY_RETURN_NOT_OK(ForwardChunks(node, ctx, *in, &charge, &out));
      }
      QUARRY_RETURN_NOT_OK(charge.Finish());
      return out;
    }
    case OpType::kSurrogateKey: {
      const Dataset& in = input(0);
      std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
      std::string column = Param(node, "column");
      if (column.empty() || keys.empty()) {
        return Status::ExecutionError("surrogate key '" + node.id +
                                      "' needs column and keys params");
      }
      QUARRY_ASSIGN_OR_RETURN(auto positions,
                              ColumnPositions(in.columns, keys, node.id));
      return WithKeys(node, {{&in.chunks, &positions}},
                      /*null_is_absent=*/false, [&](const auto& key_fns) {
                        return AssignSurrogateKeys(node, ctx, in, column,
                                                   key_fns[0]);
                      });
    }
    case OpType::kLoader: {
      const Dataset& data = input(0);
      std::string table_name = Param(node, "table");
      if (table_name.empty()) {
        return Status::ExecutionError("loader '" + node.id +
                                      "' lacks a table param");
      }
      std::vector<std::string> keys = SplitNonEmpty(Param(node, "keys"));
      const std::vector<Chunk>& chunks = data.chunks;
      int64_t total_rows = 0;
      for (const Chunk& c : chunks) {
        total_rows += static_cast<int64_t>(c.num_rows());
      }
      auto charge_rows = [&](int64_t rows) -> Status {
        if (ctx == nullptr) return Status::OK();
        return ctx->ChargeRows(rows, "node '" + node.id + "'");
      };
      if (!target_->HasTable(table_name) && total_rows == 0) {
        // No rows and no pre-created table: defer creation (column types
        // cannot be inferred from an empty dataset; guessing would poison
        // later loads into the same table). Deployed designs always
        // pre-create their tables via DDL, so this only affects ad-hoc
        // runs.
        QUARRY_RETURN_NOT_OK(charge_rows(0));
        loader->table = table_name;
        loader->fired = true;  // rows stays 0
        Dataset out;
        out.columns = data.columns;
        return out;
      }
      if (!target_->HasTable(table_name)) {
        storage::TableSchema schema(table_name);
        for (size_t c = 0; c < data.columns.size(); ++c) {
          QUARRY_ASSIGN_OR_RETURN(DataType type,
                                  InferColumnType(chunks, c));
          QUARRY_RETURN_NOT_OK(
              schema.AddColumn({data.columns[c], type, true}));
        }
        if (!keys.empty()) QUARRY_RETURN_NOT_OK(schema.SetPrimaryKey(keys));
        QUARRY_RETURN_NOT_OK(
            target_->CreateTable(std::move(schema)).status());
      }
      QUARRY_ASSIGN_OR_RETURN(storage::Table * table,
                              target_->GetTable(table_name));
      for (size_t c = 0; c < data.columns.size(); ++c) {
        if (table->schema().ColumnIndex(data.columns[c]).has_value()) {
          continue;
        }
        QUARRY_ASSIGN_OR_RETURN(DataType type,
                                InferColumnType(chunks, c));
        QUARRY_RETURN_NOT_OK(
            table->AddColumn({data.columns[c], type, true}));
      }
      std::vector<int> positions;  // per target column; -1 = NULL
      for (const storage::Column& c : table->schema().columns()) {
        auto it =
            std::find(data.columns.begin(), data.columns.end(), c.name);
        positions.push_back(
            it == data.columns.end()
                ? -1
                : static_cast<int>(it - data.columns.begin()));
      }
      std::vector<size_t> key_positions;
      if (!keys.empty()) {
        QUARRY_ASSIGN_OR_RETURN(
            auto kp, ColumnPositions(data.columns, keys, node.id));
        key_positions = kp;
      }
      int64_t written = 0;
      std::unordered_map<Row, size_t, RowKeyHash, RowKeyEq> existing_rows;
      if (!key_positions.empty()) {
        std::vector<size_t> tk;
        for (const std::string& k : keys) {
          tk.push_back(*table->schema().ColumnIndex(k));
        }
        for (size_t r = 0; r < table->num_rows(); ++r) {
          existing_rows.emplace(ExtractKey(table->rows()[r], tk), r);
        }
      }
      for (const Chunk& chunk : chunks) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
        for (size_t i = 0; i < chunk.num_rows(); ++i) {
          const uint32_t phys = chunk.PhysicalRow(i);
          Row row;
          row.reserve(data.columns.size());
          for (size_t c = 0; c < data.columns.size(); ++c) {
            row.push_back(chunk.segment(c).At(phys));
          }
          if (!key_positions.empty()) {
            Row key = ExtractKey(row, key_positions);
            auto it = existing_rows.find(key);
            if (it != existing_rows.end()) {
              // Merge: fill NULL cells the dataset can provide.
              size_t target_row = it->second;
              for (size_t c = 0; c < positions.size(); ++c) {
                if (positions[c] < 0) continue;
                const Value& incoming =
                    row[static_cast<size_t>(positions[c])];
                if (incoming.is_null()) continue;
                if (!table->rows()[target_row][c].is_null()) continue;
                QUARRY_RETURN_NOT_OK(
                    table->SetCell(target_row, c, incoming));
              }
              continue;
            }
            Row out;
            out.reserve(positions.size());
            for (int p : positions) {
              out.push_back(p < 0 ? Value::Null()
                                  : row[static_cast<size_t>(p)]);
            }
            QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
            existing_rows.emplace(std::move(key), table->num_rows() - 1);
            ++written;
            continue;
          }
          Row out;
          out.reserve(positions.size());
          for (int p : positions) {
            out.push_back(p < 0 ? Value::Null()
                                : row[static_cast<size_t>(p)]);
          }
          QUARRY_RETURN_NOT_OK(table->Insert(std::move(out)));
          ++written;
        }
        // Loaders charge their input (they are sinks): one charge per
        // chunk written, summing to the node's rows_in.
        QUARRY_RETURN_NOT_OK(
            charge_rows(static_cast<int64_t>(chunk.num_rows())));
      }
      if (chunks.empty()) QUARRY_RETURN_NOT_OK(charge_rows(0));
      // Mid-write fault site: fires after the rows above landed in the
      // target, leaving exactly the half-written state the loader snapshot
      // in ExecuteNode must roll back before a retry.
      QUARRY_FAULT_POINT("etl.exec.Loader.write");
      loader->table = table_name;
      loader->rows = written;
      loader->fired = true;
      Dataset out;
      out.columns = data.columns;
      return out;  // Loaders are sinks; emit an empty dataset.
    }
  }
  return Status::Internal("unknown operator type");
}

}  // namespace quarry::etl
