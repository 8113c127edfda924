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
#include <cstdint>
#include <functional>
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

// ---- chunk accounting --------------------------------------------------

obs::Counter& ChunkRowsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_chunk_rows_total",
      "Rows processed by the chunk kernels");
  return c;
}

obs::Counter& FastFilterCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Instance().counter(
      "quarry_etl_chunk_fast_filter_total",
      "Selection chunks filtered on the typed fast path (a column compared "
      "with a literal or a column on segment payloads)");
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
// numeric, date or string segments compare on the typed payloads directly.
// The comparison must agree with Value::Compare: exact int64 when both sides
// are INT, sign-of-difference through double otherwise, raw day counts for
// dates, std::string::compare for strings. Anything the fast path cannot
// prove equivalent falls back to ChunkEval for that chunk (segment reps can
// differ chunk to chunk).

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

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

int CompareStrings(std::string_view a, std::string_view b) {
  const int cmp = a.compare(b);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

struct FastCompare {
  CmpOp op = CmpOp::kEq;
  size_t lhs_col = 0;
  bool rhs_is_col = false;
  size_t rhs_col = 0;
  Value literal;  // When !rhs_is_col; always non-NULL numeric, date or string.
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
    if (!lit.is_numeric() && !lit.is_date() && !lit.is_string()) {
      return std::nullopt;
    }
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

/// The segment rep a non-NULL numeric, date or string literal would have.
ValueSegment::Rep LiteralRep(const Value& literal) {
  if (literal.is_int()) return ValueSegment::Rep::kInt64;
  if (literal.is_double()) return ValueSegment::Rep::kDouble;
  if (literal.is_date()) return ValueSegment::Rep::kDate;
  return ValueSegment::Rep::kString;
}

/// True when the fast comparison is provably Value::Compare-equivalent for
/// this chunk's segment representations: numeric against numeric, or date
/// against date, or string against string.
bool FastCompareEligible(const FastCompare& f, const Chunk& chunk) {
  const ValueSegment::Rep lhs = chunk.segment(f.lhs_col).rep();
  const ValueSegment::Rep rhs = f.rhs_is_col
                                    ? chunk.segment(f.rhs_col).rep()
                                    : LiteralRep(f.literal);
  return (NumericRep(lhs) && NumericRep(rhs)) ||
         (lhs == rhs && (lhs == ValueSegment::Rep::kDate ||
                         lhs == ValueSegment::Rep::kString));
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
  auto select = [&](const auto& compare) {
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      if (ls.IsNull(phys) || (rs != nullptr && rs->IsNull(phys))) continue;
      if (CmpKeep(f.op, compare(phys))) sel->push_back(phys);
    }
  };
  switch (ls.rep()) {
    case ValueSegment::Rep::kDate: {
      const int32_t lit = rs == nullptr ? f.literal.as_date_days() : 0;
      select([&](uint32_t p) {
        return ThreeWay(ls.dates()[p], rs != nullptr ? rs->dates()[p] : lit);
      });
      return;
    }
    case ValueSegment::Rep::kString: {
      const std::string_view lit =
          rs == nullptr ? std::string_view(f.literal.as_string())
                        : std::string_view();
      select([&](uint32_t p) {
        return CompareStrings(
            ls.strings()[p],
            rs != nullptr ? std::string_view(rs->strings()[p]) : lit);
      });
      return;
    }
    default:
      break;
  }
  const bool int_cmp =
      ls.rep() == ValueSegment::Rep::kInt64 &&
      (rs != nullptr ? rs->rep() == ValueSegment::Rep::kInt64
                     : f.literal.is_int());
  if (int_cmp) {
    const int64_t lit = rs == nullptr ? f.literal.as_int() : 0;
    select([&](uint32_t p) {
      return ThreeWay(ls.ints()[p], rs != nullptr ? rs->ints()[p] : lit);
    });
    return;
  }
  const double lit = rs == nullptr ? f.literal.as_double() : 0.0;
  select([&](uint32_t p) {
    return Sign(SegDouble(ls, p) - (rs != nullptr ? SegDouble(*rs, p) : lit));
  });
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
// Hash join, hash aggregation and surrogate keys map each live row's key to
// a dense id (0, 1, ... in first-seen order) through a key map.
//
// TypedKeys serves a key of any arity whose columns each hold one physical
// type — int64, date days or string — across every chunk and side. It packs
// the key into fixed-width words: a NULL bitmask, then one word per column
// (a date widens to int64; a string becomes its id in a per-column
// dictionary that a join's build and probe sides share, viewing the segment
// payloads). Word equality within one column type is exactly Value::SameAs,
// and NULL is read from the null mask before any payload, so NULL stays one
// group and never joins. GenericKeys hashes a Row of Values and serves the
// rest: DOUBLE and kMixed columns, columns whose type differs between chunks,
// and cross-type join pairs such as INT vs DOUBLE, where 1 and 1.0 are the
// same key. Both maps feed the same kernels, so NULL-key semantics,
// probe-order output and first-seen group and id order cannot drift.

constexpr uint32_t kNoRow = UINT32_MAX;

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

uint64_t Mix64(uint64_t h) {  // MurmurHash3's 64-bit finalizer.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Open-addressing index from hashed keys to dense ids 0, 1, ... in
/// insertion order. It stores ids and hashes only: the caller keeps the
/// keys and says whether id `i` holds the probed key (`same(i)`).
class IdTable {
 public:
  size_t size() const { return hashes_.size(); }

  /// The id of the key hashing to `hash`, or kNoRow.
  template <typename Same>
  uint32_t Find(uint64_t hash, const Same& same) const {
    if (slots_.empty()) return kNoRow;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == kEmpty) return kNoRow;
      const uint32_t id = static_cast<uint32_t>(slot);
      if ((slot >> 32) == (hash >> 32) && same(id)) return id;
    }
  }

  /// Like Find, but a missing key is added under the next id (size()).
  template <typename Same>
  uint32_t FindOrAdd(uint64_t hash, const Same& same) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const uint64_t slot = slots_[i];
      if (slot == kEmpty) {
        const uint32_t id = static_cast<uint32_t>(size());
        slots_[i] = Slot(hash, id);
        hashes_.push_back(hash);
        return id;
      }
      const uint32_t id = static_cast<uint32_t>(slot);
      if ((slot >> 32) == (hash >> 32) && same(id)) return id;
    }
  }

 private:
  static constexpr uint64_t kEmpty = UINT64_MAX;

  /// A slot packs the hash's high half (a cheap pre-check) with the id.
  static uint64_t Slot(uint64_t hash, uint32_t id) {
    return (hash >> 32 << 32) | id;
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kEmpty);
    mask_ = slots_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = Slot(hashes_[id], id);
    }
  }

  std::vector<uint64_t> slots_;
  std::vector<uint64_t> hashes_;  // By id; only Grow reads them.
  size_t mask_ = 0;
};

/// Distinct strings of one key column under dense ids. The views point
/// into segment payloads, which outlive the kernel that interns them.
class StringDict {
 public:
  uint32_t FindOrAdd(std::string_view s) {
    const uint32_t id = table_.FindOrAdd(
        Hash(s), [&](uint32_t i) { return strings_[i] == s; });
    if (id == strings_.size()) strings_.push_back(s);
    return id;
  }
  uint32_t Find(std::string_view s) const {
    return table_.Find(Hash(s),
                       [&](uint32_t i) { return strings_[i] == s; });
  }

 private:
  static uint64_t Hash(std::string_view s) {
    return std::hash<std::string_view>{}(s);
  }
  IdTable table_;
  std::vector<std::string_view> strings_;
};

/// Maximum arity of a TypedKeys key: the NULL mask is one word.
constexpr size_t kMaxTypedKeyColumns = 64;

class TypedKeys {
 public:
  /// `positions[side]` are the key columns of input `side`; column k has
  /// kind `kinds[k]` (kInt64, kDate or kString) on every side.
  TypedKeys(std::vector<KeyKind> kinds,
            std::vector<const std::vector<size_t>*> positions,
            bool null_is_absent)
      : kinds_(std::move(kinds)),
        positions_(std::move(positions)),
        null_is_absent_(null_is_absent),
        width_(kinds_.size() + 1),
        dicts_(kinds_.size()) {}

  /// Sets `ids` to the key id of each live row of `chunk`, a chunk of input
  /// `side`. Keys not seen before get the next ids when `add`, else kNoRow.
  /// With `null_is_absent` (joins) a key with a NULL component is kNoRow.
  void Map(size_t side, const Chunk& chunk, bool add,
           std::vector<uint32_t>* ids) {
    const size_t n = chunk.num_rows();
    const std::vector<size_t>& positions = *positions_[side];
    words_.assign(n * width_, 0);
    ids->assign(n, 0);  // kNoRow marks a key known to be absent.
    for (size_t k = 0; k < kinds_.size(); ++k) {
      const ValueSegment& seg = chunk.segment(positions[k]);
      const uint64_t null_bit = uint64_t{1} << k;
      // `word(phys, &w)` stores the payload word; false = absent key.
      auto fill = [&](const auto& word) {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t phys = chunk.PhysicalRow(i);
          uint64_t* w = &words_[i * width_];
          if (seg.IsNull(phys)) {
            w[0] |= null_bit;
            if (null_is_absent_) (*ids)[i] = kNoRow;
          } else if (!word(phys, &w[k + 1])) {
            (*ids)[i] = kNoRow;
          }
        }
      };
      switch (kinds_[k]) {
        case KeyKind::kDate:
          fill([&](uint32_t p, uint64_t* w) {
            *w = static_cast<uint64_t>(static_cast<int64_t>(seg.dates()[p]));
            return true;
          });
          break;
        case KeyKind::kString: {
          StringDict& dict = dicts_[k];
          fill([&](uint32_t p, uint64_t* w) {
            const std::string_view s = seg.strings()[p];
            *w = add ? dict.FindOrAdd(s) : dict.Find(s);
            return *w != kNoRow;
          });
          break;
        }
        default:
          fill([&](uint32_t p, uint64_t* w) {
            *w = static_cast<uint64_t>(seg.ints()[p]);
            return true;
          });
          break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if ((*ids)[i] == kNoRow) continue;
      const uint64_t* w = &words_[i * width_];
      uint64_t hash = 0;
      for (size_t k = 0; k < width_; ++k) hash = Mix64(hash ^ w[k]);
      auto same = [&](uint32_t id) {
        return std::equal(w, w + width_, keys_.begin() + id * width_);
      };
      if (!add) {
        (*ids)[i] = table_.Find(hash, same);
        continue;
      }
      const uint32_t id = table_.FindOrAdd(hash, same);
      if (id * width_ == keys_.size()) keys_.insert(keys_.end(), w, w + width_);
      (*ids)[i] = id;
    }
  }

 private:
  std::vector<KeyKind> kinds_;
  std::vector<const std::vector<size_t>*> positions_;
  bool null_is_absent_;
  size_t width_;                 // Words per key: the NULL mask + columns.
  std::vector<StringDict> dicts_;  // Used by kString columns only.
  IdTable table_;
  std::vector<uint64_t> keys_;   // width_ words per id.
  std::vector<uint64_t> words_;  // Scratch: the keys of one chunk.
};

class GenericKeys {
 public:
  GenericKeys(std::vector<const std::vector<size_t>*> positions,
              bool null_is_absent)
      : positions_(std::move(positions)), null_is_absent_(null_is_absent) {}

  /// As TypedKeys::Map, on Rows of Values compared with SameAs.
  void Map(size_t side, const Chunk& chunk, bool add,
           std::vector<uint32_t>* ids) {
    ids->clear();
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      Row key = ChunkKey(chunk, *positions_[side], chunk.PhysicalRow(i));
      if (null_is_absent_ &&
          std::any_of(key.begin(), key.end(),
                      [](const Value& v) { return v.is_null(); })) {
        ids->push_back(kNoRow);
        continue;
      }
      if (add) {
        const uint32_t fresh = static_cast<uint32_t>(ids_.size());
        ids->push_back(ids_.try_emplace(std::move(key), fresh).first->second);
        continue;
      }
      auto it = ids_.find(key);
      ids->push_back(it == ids_.end() ? kNoRow : it->second);
    }
  }

 private:
  std::vector<const std::vector<size_t>*> positions_;
  bool null_is_absent_;
  std::unordered_map<Row, uint32_t, RowKeyHash, RowKeyEq> ids_;
};

void CountTypedKey(const Node& node) {
  obs::MetricsRegistry::Instance()
      .counter("quarry_etl_chunk_typed_key_total",
               "Join, aggregation and surrogate-key kernel runs that hashed "
               "a typed key (one payload word per key column), by operator "
               "type",
               {{"op", OpTypeToString(node.type)}})
      .Increment();
}

/// Runs `body` with the key map for the given key columns: TypedKeys when
/// every key column holds one of int64, date or string across every
/// segment of every side, GenericKeys otherwise. `sides` pairs each input's
/// chunks with its key positions (one entry for aggregation and surrogate
/// keys; probe and build for joins).
template <typename Body>
Result<Dataset> WithKeys(
    const Node& node,
    const std::vector<std::pair<const std::vector<Chunk>*,
                                const std::vector<size_t>*>>& sides,
    bool null_is_absent, const Body& body) {
  const size_t arity = sides[0].second->size();
  std::vector<const std::vector<size_t>*> positions;
  for (const auto& side : sides) positions.push_back(side.second);
  std::vector<KeyKind> kinds;
  for (size_t k = 0; k < arity; ++k) {
    KeyKind kind = KeyKind::kNone;
    for (const auto& [chunks, pos] : sides) {
      kind = FoldKeyKind(kind, *chunks, (*pos)[k]);
    }
    if (kind == KeyKind::kGeneric) break;
    // Every value NULL: any typed form works.
    kinds.push_back(kind == KeyKind::kNone ? KeyKind::kInt64 : kind);
  }
  if (kinds.size() == arity && arity <= kMaxTypedKeyColumns) {
    CountTypedKey(node);
    TypedKeys keys(std::move(kinds), std::move(positions), null_is_absent);
    return body(keys);
  }
  GenericKeys keys(std::move(positions), null_is_absent);
  return body(keys);
}

/// Inner/left hash join over chunks: builds on the right input in its row
/// order (NULL keys never enter), probes the left chunk by chunk and emits
/// one output chunk per left chunk, matches in build order. Duplicate build
/// keys chain through `next` instead of a vector per key. The right side's
/// output columns are gathered straight from its segments.
template <typename Keys>
Result<Dataset> HashJoin(const Node& node, const ExecContext* ctx,
                         const Dataset& left, const Dataset& right,
                         bool left_join, Keys& keys) {
  const std::vector<Chunk>& left_chunks = left.chunks;
  const std::vector<Chunk>& right_chunks = right.chunks;
  using SourceRef = ValueSegment::SourceRef;
  std::vector<SourceRef> build_rows;   // The right input's live rows.
  std::vector<uint32_t> first, last;   // Chain ends, by key id.
  std::vector<uint32_t> next;          // Chain links, by build row.
  std::vector<uint32_t> ids;
  for (uint32_t c = 0; c < right_chunks.size(); ++c) {
    const Chunk& chunk = right_chunks[c];
    keys.Map(/*side=*/1, chunk, /*add=*/true, &ids);
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t g = static_cast<uint32_t>(build_rows.size());
      build_rows.push_back({c, chunk.PhysicalRow(i)});
      next.push_back(kNoRow);
      const uint32_t id = ids[i];
      if (id == kNoRow) continue;  // SQL: NULL keys never match.
      if (id == first.size()) {
        first.push_back(g);
        last.push_back(g);
        continue;
      }
      next[last[id]] = g;
      last[id] = g;
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
    keys.Map(/*side=*/0, chunk, /*add=*/false, &ids);
    // One (left physical row, build row) pair per output row, in probe
    // order.
    std::vector<uint32_t> left_phys;
    std::vector<SourceRef> right_refs;
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      if (ids[i] == kNoRow) {
        if (left_join) {
          left_phys.push_back(phys);
          right_refs.push_back({ValueSegment::kNullSource, 0});
        }
        continue;
      }
      for (uint32_t g = first[ids[i]]; g != kNoRow; g = next[g]) {
        left_phys.push_back(phys);
        right_refs.push_back(build_rows[g]);
      }
    }
    if (left_phys.empty()) continue;
    // When every physical row is emitted once, in order (a foreign-key join
    // over an unfiltered chunk), the left segments are shared, not copied.
    bool identity = !chunk.has_selection() &&
                    left_phys.size() == chunk.capacity();
    for (size_t i = 0; identity && i < left_phys.size(); ++i) {
      identity = left_phys[i] == i;
    }
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(out.columns.size());
    for (size_t c = 0; c < left.columns.size(); ++c) {
      segments.push_back(identity ? chunk.segment_ptr(c)
                                  : std::make_shared<const ValueSegment>(
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

/// `a + b` wrapping on overflow (two's complement) instead of undefined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Each column's segment in every chunk, in chunk order: the sources of
/// ValueSegment::GatherFrom.
std::vector<const ValueSegment*> ColumnSources(const std::vector<Chunk>& chunks,
                                               size_t column) {
  std::vector<const ValueSegment*> sources;
  sources.reserve(chunks.size());
  for (const Chunk& chunk : chunks) sources.push_back(&chunk.segment(column));
  return sources;
}

/// One aggregate's running state for every group, folded a chunk at a
/// time. The fold is typed on the input column's rep when every chunk that
/// holds a value shares it, and runs on Values when reps mix (kMixed, or
/// INT in one chunk and DOUBLE in another). Either way it keeps SQL
/// aggregate semantics exactly: NULLs are skipped (COUNT(*) counts rows),
/// SUM stays INT while every input is INT, doubles add in row order,
/// non-numeric inputs add nothing, and MIN/MAX keep the first row that
/// Value::Compare ranks lowest/highest — by reference, so a string is
/// never copied until the output is gathered.
class AggFold {
 public:
  using SourceRef = ValueSegment::SourceRef;

  /// `column` is the input's position, or -1 for COUNT(*).
  AggFold(const AggSpec& spec, int column, const std::vector<Chunk>& chunks)
      : column_(column) {
    if (spec.function == "COUNT") fn_ = Fn::kCount;
    if (spec.function == "SUM") fn_ = Fn::kSum;
    if (spec.function == "AVG") fn_ = Fn::kAvg;
    if (spec.function == "MIN") fn_ = Fn::kMin;
    if (column_ < 0) return;
    sources_ = ColumnSources(chunks, static_cast<size_t>(column_));
    bool any_value = false;
    for (const ValueSegment* src : sources_) {
      if (src->all_null()) continue;
      if (src->rep() == ValueSegment::Rep::kMixed ||
          (any_value && src->rep() != rep_)) {
        typed_ = false;
        return;
      }
      rep_ = src->rep();
      any_value = true;
    }
  }

  /// Folds the live rows of chunk `c`, whose group ids are `gids`, into
  /// `groups` groups.
  void Add(uint32_t c, const Chunk& chunk, const std::vector<uint32_t>& gids,
           size_t groups) {
    count_.resize(groups, 0);
    if (fn_ == Fn::kSum || fn_ == Fn::kAvg) {
      int_sum_.resize(groups, 0);
      sum_.resize(groups, 0.0);
      all_int_.resize(groups, 1);
    }
    if (fn_ == Fn::kMin || fn_ == Fn::kMax) best_.resize(groups);
    if (column_ < 0) {
      for (uint32_t g : gids) ++count_[g];
      return;
    }
    const ValueSegment& seg = chunk.segment(static_cast<size_t>(column_));
    if (!typed_) {
      AddValues(c, chunk, seg, gids);
      return;
    }
    if (seg.all_null()) return;  // Its rep is arbitrary; nothing to fold.
    switch (rep_) {
      case ValueSegment::Rep::kInt64:
        AddTyped(c, chunk, seg, gids, &ValueSegment::ints,
                 ThreeWay<int64_t>);
        break;
      case ValueSegment::Rep::kDouble:
        AddTyped(c, chunk, seg, gids, &ValueSegment::doubles,
                 [](double a, double b) { return Sign(a - b); });
        break;
      case ValueSegment::Rep::kString:
        AddTyped(c, chunk, seg, gids, &ValueSegment::strings,
                 [](const std::string& a, const std::string& b) {
                   return CompareStrings(a, b);
                 });
        break;
      case ValueSegment::Rep::kDate:
        AddTyped(c, chunk, seg, gids, &ValueSegment::dates,
                 ThreeWay<int32_t>);
        break;
      case ValueSegment::Rep::kBool:
        AddTyped(c, chunk, seg, gids, &ValueSegment::bools,
                 [](uint8_t a, uint8_t b) {
                   return (a != 0 ? 1 : 0) - (b != 0 ? 1 : 0);
                 });
        break;
      case ValueSegment::Rep::kMixed:
        break;  // Unreachable: typed_ is false.
    }
  }

  /// The output column, one slot per group: COUNT of an empty group is 0,
  /// every other function NULLs out.
  ValueSegment Finish() const {
    const size_t groups = count_.size();
    std::vector<uint8_t> empty(groups);
    for (size_t g = 0; g < groups; ++g) empty[g] = count_[g] == 0;
    switch (fn_) {
      case Fn::kCount:
        return ValueSegment::FromInts(count_);
      case Fn::kAvg: {
        std::vector<double> avg(groups);
        for (size_t g = 0; g < groups; ++g) {
          if (!empty[g]) avg[g] = sum_[g] / static_cast<double>(count_[g]);
        }
        return ValueSegment::FromDoubles(std::move(avg), std::move(empty));
      }
      case Fn::kSum: {
        if (typed_ && rep_ == ValueSegment::Rep::kDouble) {
          return ValueSegment::FromDoubles(sum_, std::move(empty));
        }
        if (typed_) return ValueSegment::FromInts(int_sum_, std::move(empty));
        std::vector<Value> sums(groups);
        for (size_t g = 0; g < groups; ++g) {
          if (empty[g]) continue;
          sums[g] = all_int_[g] != 0 ? Value::Int(int_sum_[g])
                                     : Value::Double(sum_[g]);
        }
        return ValueSegment::FromValues(std::move(sums));
      }
      case Fn::kMin:
      case Fn::kMax: {
        std::vector<SourceRef> refs = best_;
        for (size_t g = 0; g < groups; ++g) {
          if (empty[g]) refs[g] = {ValueSegment::kNullSource, 0};
        }
        return ValueSegment::GatherFrom(sources_, refs);
      }
    }
    return ValueSegment();
  }

 private:
  enum class Fn { kCount, kSum, kAvg, kMin, kMax };

  /// Typed fold over `seg`'s payload `(seg.*payload)()`; `order` is
  /// Value::Compare on two payload values.
  template <typename T, typename Order>
  void AddTyped(uint32_t c, const Chunk& chunk, const ValueSegment& seg,
                const std::vector<uint32_t>& gids,
                const std::vector<T>& (ValueSegment::*payload)() const,
                const Order& order) {
    const std::vector<T>& values = (seg.*payload)();
    auto each = [&](const auto& fold) {
      for (size_t i = 0; i < chunk.num_rows(); ++i) {
        const uint32_t phys = chunk.PhysicalRow(i);
        if (!seg.IsNull(phys)) fold(gids[i], phys);
      }
    };
    switch (fn_) {
      case Fn::kCount:
        each([&](uint32_t g, uint32_t) { ++count_[g]; });
        return;
      case Fn::kSum:
      case Fn::kAvg:
        each([&](uint32_t g, uint32_t p) {
          ++count_[g];
          if constexpr (std::is_same_v<T, int64_t>) {
            int_sum_[g] = WrapAdd(int_sum_[g], values[p]);
            sum_[g] += static_cast<double>(values[p]);
          } else if constexpr (std::is_same_v<T, double>) {
            sum_[g] += values[p];
          }
        });
        return;
      case Fn::kMin:
      case Fn::kMax: {
        const int want = fn_ == Fn::kMin ? -1 : 1;
        each([&](uint32_t g, uint32_t p) {
          SourceRef& best = best_[g];
          if (count_[g]++ == 0 ||
              order(values[p], (sources_[best.source]->*payload)()[best.row]) ==
                  want) {
            best = {c, p};
          }
        });
        return;
      }
    }
  }

  /// Fold over Values, for columns whose reps mix.
  void AddValues(uint32_t c, const Chunk& chunk, const ValueSegment& seg,
                 const std::vector<uint32_t>& gids) {
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      const Value v = seg.At(phys);
      if (v.is_null()) continue;
      const uint32_t g = gids[i];
      const bool first = count_[g]++ == 0;
      if (fn_ == Fn::kSum || fn_ == Fn::kAvg) {
        if (!v.is_numeric()) continue;
        sum_[g] += v.as_double();
        if (v.is_int()) {
          int_sum_[g] = WrapAdd(int_sum_[g], v.as_int());
        } else {
          all_int_[g] = 0;
        }
      } else if (fn_ == Fn::kMin || fn_ == Fn::kMax) {
        SourceRef& best = best_[g];
        const int cmp =
            first ? 0 : v.Compare(sources_[best.source]->At(best.row));
        if (first || cmp == (fn_ == Fn::kMin ? -1 : 1)) best = {c, phys};
      }
    }
  }

  Fn fn_ = Fn::kMax;
  int column_;
  bool typed_ = true;
  ValueSegment::Rep rep_ = ValueSegment::Rep::kInt64;  // When typed_.
  std::vector<const ValueSegment*> sources_;  // The input column, by chunk.
  // By group; each function keeps only what it needs.
  std::vector<int64_t> count_;     // Values (or rows, for COUNT(*)) seen.
  std::vector<int64_t> int_sum_;   // SUM/AVG: sum of the INT inputs.
  std::vector<double> sum_;        // SUM/AVG: sum of all numeric inputs.
  std::vector<uint8_t> all_int_;   // SUM over Values: every input was INT.
  std::vector<SourceRef> best_;    // MIN/MAX: the row holding the extreme.
};

/// Hash aggregation over chunks, groups in first-seen order (a NULL key
/// part is a value of its own, so NULLs group together like SameAs). Each
/// group keeps its first row; the group columns are gathered from those
/// rows and each aggregate comes from its AggFold.
template <typename Keys>
Result<Dataset> HashAggregate(const Node& node, const ExecContext* ctx,
                              const std::vector<Chunk>& chunks,
                              const std::vector<std::string>& group,
                              const std::vector<size_t>& group_pos,
                              const std::vector<AggSpec>& specs,
                              const std::vector<int>& agg_pos, Keys& keys) {
  std::vector<AggFold> folds;
  folds.reserve(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    folds.emplace_back(specs[s], agg_pos[s], chunks);
  }
  std::vector<ValueSegment::SourceRef> group_rows;  // First-seen order.
  std::vector<uint32_t> gids;
  for (uint32_t c = 0; c < chunks.size(); ++c) {
    const Chunk& chunk = chunks[c];
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    keys.Map(/*side=*/0, chunk, /*add=*/true, &gids);
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      if (gids[i] == group_rows.size()) {
        group_rows.push_back({c, chunk.PhysicalRow(i)});
      }
    }
    for (AggFold& fold : folds) fold.Add(c, chunk, gids, group_rows.size());
  }

  Dataset out;
  out.columns = group;
  for (const AggSpec& s : specs) out.columns.push_back(s.output);
  OutputCharger charge(ctx, node.id, out.columns.size());
  if (out.columns.empty() && !group_rows.empty()) {
    // No group and no aggregate: the one group's row has no columns.
    out.chunks.push_back(Chunk::Columnless(group_rows.size()));
  } else if (!group_rows.empty()) {
    std::vector<Chunk::SegmentPtr> segments;
    segments.reserve(out.columns.size());
    for (size_t p : group_pos) {
      segments.push_back(std::make_shared<const ValueSegment>(
          ValueSegment::GatherFrom(ColumnSources(chunks, p), group_rows)));
    }
    for (const AggFold& fold : folds) {
      segments.push_back(std::make_shared<const ValueSegment>(fold.Finish()));
    }
    out.chunks.emplace_back(std::move(segments));
  }
  QUARRY_RETURN_NOT_OK(
      charge.Charge(static_cast<int64_t>(group_rows.size())));
  return out;
}

/// Surrogate keys in first-seen order: the first row of each distinct key
/// gets the next id (1, 2, ...), with NULL one key like SameAs treats it.
/// Each input chunk keeps its segments and selection and gains the id
/// column.
template <typename Keys>
Result<Dataset> AssignSurrogateKeys(const Node& node, const ExecContext* ctx,
                                    const Dataset& in,
                                    const std::string& column, Keys& keys) {
  Dataset out;
  out.columns = in.columns;
  out.columns.push_back(column);
  OutputCharger charge(ctx, node.id, out.columns.size());
  std::vector<uint32_t> ids;
  for (const Chunk& chunk : in.chunks) {
    QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
    CountChunk(node, static_cast<int64_t>(chunk.num_rows()));
    keys.Map(/*side=*/0, chunk, /*add=*/true, &ids);
    std::vector<int64_t> sids(chunk.capacity(), 0);
    // Dead (filtered-out) slots stay NULL.
    std::vector<uint8_t> dead(chunk.capacity(), chunk.has_selection());
    for (size_t i = 0; i < chunk.num_rows(); ++i) {
      const uint32_t phys = chunk.PhysicalRow(i);
      sids[phys] = static_cast<int64_t>(ids[i]) + 1;
      dead[phys] = 0;
    }
    std::vector<Chunk::SegmentPtr> segments = chunk.segments();
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromInts(std::move(sids), std::move(dead))));
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
      // Each chunk is cut from the table only once its gate passed, so a
      // cancel, deadline or fault stops the scan part-way.
      const std::vector<Row>& rows = table->rows();
      const size_t step =
          static_cast<size_t>(std::max<int64_t>(1, options.chunk_size));
      for (size_t begin = 0; begin < rows.size(); begin += step) {
        QUARRY_RETURN_NOT_OK(ChunkGate(ctx, node.id));
        Chunk chunk = storage::MakeChunk(rows, out.columns.size(), begin,
                                         std::min(rows.size(), begin + step));
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
          FastFilterCounter().Increment();
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
          /*null_is_absent=*/true, [&](auto& keys) {
            return HashJoin(node, ctx, left, right, join_type == "left",
                            keys);
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
                      /*null_is_absent=*/false, [&](auto& keys) {
                        return HashAggregate(node, ctx, in.chunks, group,
                                             group_pos, specs, agg_pos, keys);
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
                      /*null_is_absent=*/false, [&](auto& keys) {
                        return AssignSurrogateKeys(node, ctx, in, column,
                                                   keys);
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
