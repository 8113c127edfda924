// Output oracle: an independent group-by over a pinned generation's tables,
// compared order-free with what Quarry answered. It shares no code with the
// cube-query compiler or the ETL executor: it walks the fact rows, looks the
// dimension attributes up through the dim tables' primary keys, and folds
// the aggregates with SQL semantics (NULLs skipped; all-NULL gives NULL).
#include <cmath>
#include <optional>
#include <unordered_map>

#include "harness.h"

namespace quarry::perfbench {

namespace {

constexpr double kRelativeTolerance = 1e-9;

std::string KeyOf(const storage::Row& row, const std::vector<size_t>& pos) {
  std::string key;
  for (size_t p : pos) {
    key += row[p].is_null() ? std::string("\x01NULL") : row[p].ToString();
    key += '\x1f';
  }
  return key;
}

/// Where one column of the query comes from: the fact row itself, or the
/// dim-table row the fact row's key finds.
struct ColumnSource {
  std::optional<size_t> fact_pos;
  const storage::Table* dim = nullptr;
  std::vector<size_t> fact_key_pos;
  size_t dim_pos = 0;
  std::unordered_map<std::string, std::vector<size_t>> index;  ///< key->rows
};

Result<ColumnSource> Resolve(const storage::Database& db,
                             const md::MdSchema& schema, const md::Fact& fact,
                             const storage::Table& fact_table,
                             const std::string& column) {
  ColumnSource src;
  src.fact_pos = fact_table.schema().ColumnIndex(column);
  if (src.fact_pos.has_value()) return src;
  for (const md::DimensionRef& ref : fact.dimension_refs) {
    QUARRY_ASSIGN_OR_RETURN(const md::Dimension* dim,
                            schema.GetDimension(ref.dimension));
    const md::Level* level = dim->FindLevel(ref.level);
    if (level == nullptr) continue;
    for (const md::LevelAttribute& attr : level->attributes) {
      if (attr.name != column) continue;
      QUARRY_ASSIGN_OR_RETURN(src.dim,
                              db.GetTable("dim_" + level->concept_id));
      const std::vector<std::string>& keys = src.dim->schema().primary_key();
      if (keys.empty()) {
        return Status::ValidationError("dim table '" + src.dim->name() +
                                       "' has no primary key");
      }
      std::vector<size_t> dim_key_pos;
      for (const std::string& k : keys) {
        auto fp = fact_table.schema().ColumnIndex(k);
        auto dp = src.dim->schema().ColumnIndex(k);
        if (!fp || !dp) {
          return Status::NotFound("key column '" + k + "' of '" +
                                  src.dim->name() + "' in fact '" +
                                  fact.name + "'");
        }
        src.fact_key_pos.push_back(*fp);
        dim_key_pos.push_back(*dp);
      }
      auto dp = src.dim->schema().ColumnIndex(column);
      if (!dp) return Status::NotFound("column '" + column + "' in dim");
      src.dim_pos = *dp;
      for (size_t r = 0; r < src.dim->num_rows(); ++r) {
        src.index[KeyOf(src.dim->rows()[r], dim_key_pos)].push_back(r);
      }
      return src;
    }
  }
  return Status::NotFound("column '" + column + "' not reachable from '" +
                          fact.name + "'");
}

struct Fold {
  double sum = 0;
  int64_t count = 0;
  std::optional<double> max;
};

std::optional<double> Finalize(md::AggFunc f, const Fold& fold) {
  if (f == md::AggFunc::kCount) return static_cast<double>(fold.count);
  if (fold.count == 0) return std::nullopt;
  if (f == md::AggFunc::kMax) return fold.max;
  return fold.sum;  // kSum; the mix asks for no other aggregate.
}

bool Close(std::optional<double> a, std::optional<double> b) {
  if (!a.has_value() || !b.has_value()) return a.has_value() == b.has_value();
  const double scale = std::max({1.0, std::fabs(*a), std::fabs(*b)});
  return std::fabs(*a - *b) <= kRelativeTolerance * scale;
}

}  // namespace

Status CheckAnswer(const storage::Database& db, const md::MdSchema& schema,
                   const QuerySpec& spec, const etl::Dataset& answer) {
  QUARRY_ASSIGN_OR_RETURN(const md::Fact* fact, schema.GetFact(spec.fact));
  QUARRY_ASSIGN_OR_RETURN(const storage::Table* fact_table,
                          db.GetTable(spec.fact));
  auto measure_pos = fact_table->schema().ColumnIndex(spec.measure);
  if (!measure_pos) return Status::NotFound("measure '" + spec.measure + "'");
  std::vector<ColumnSource> groups;
  for (const std::string& g : spec.group_by) {
    QUARRY_ASSIGN_OR_RETURN(ColumnSource s,
                            Resolve(db, schema, *fact, *fact_table, g));
    groups.push_back(std::move(s));
  }
  std::optional<ColumnSource> slice;
  if (!spec.slice_column.empty()) {
    QUARRY_ASSIGN_OR_RETURN(
        slice, Resolve(db, schema, *fact, *fact_table, spec.slice_column));
  }

  // Inner-join semantics: a fact row whose key finds no dim row drops out;
  // one finding several dim rows counts once per match.
  auto values_of = [](const ColumnSource& s, const storage::Row& row) {
    std::vector<const storage::Value*> out;
    if (s.fact_pos) {
      out.push_back(&row[*s.fact_pos]);
      return out;
    }
    auto it = s.index.find(KeyOf(row, s.fact_key_pos));
    if (it == s.index.end()) return out;
    for (size_t r : it->second) out.push_back(&s.dim->rows()[r][s.dim_pos]);
    return out;
  };
  std::map<std::string, std::vector<Fold>> expected;
  for (const storage::Row& row : fact_table->rows()) {
    int64_t weight = 1;
    if (slice) {
      weight = 0;
      for (const storage::Value* v : values_of(*slice, row)) {
        if (!v->is_null() && v->is_string() &&
            v->as_string() == spec.slice_value) {
          ++weight;
        }
      }
      if (weight == 0) continue;
    }
    std::vector<std::string> keys = {""};
    for (const ColumnSource& s : groups) {
      std::vector<std::string> next;
      for (const storage::Value* v : values_of(s, row)) {
        const std::string part =
            (v->is_null() ? std::string("\x01NULL") : v->ToString()) + '\x1f';
        for (const std::string& k : keys) next.push_back(k + part);
      }
      keys = std::move(next);
    }
    const storage::Value& m = row[*measure_pos];
    for (const std::string& key : keys) {
      std::vector<Fold>& folds = expected[key];
      folds.resize(spec.aggregates.size());
      if (m.is_null()) continue;
      for (Fold& f : folds) {
        for (int64_t w = 0; w < weight; ++w) {
          f.sum += m.as_double();
          ++f.count;
          f.max = f.max ? std::max(*f.max, m.as_double()) : m.as_double();
        }
      }
    }
  }

  const size_t width = spec.group_by.size() + spec.aggregates.size();
  if (answer.columns.size() != width) {
    return Status::ValidationError(
        "answer has " + std::to_string(answer.columns.size()) +
        " columns, expected " + std::to_string(width));
  }
  std::vector<size_t> group_pos(spec.group_by.size());
  for (size_t i = 0; i < group_pos.size(); ++i) group_pos[i] = i;
  const std::vector<storage::Row> rows = answer.MaterializeRows();
  if (rows.size() != expected.size()) {
    return Status::ValidationError(
        "answer has " + std::to_string(rows.size()) + " groups, oracle " +
        std::to_string(expected.size()));
  }
  for (const storage::Row& row : rows) {
    auto it = expected.find(KeyOf(row, group_pos));
    if (it == expected.end()) {
      return Status::ValidationError("answer group '" + KeyOf(row, group_pos) +
                             "' not in oracle");
    }
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      const storage::Value& got = row[spec.group_by.size() + a];
      std::optional<double> got_d;
      if (!got.is_null()) got_d = got.as_double();
      const std::optional<double> want =
          Finalize(spec.aggregates[a], it->second[a]);
      if (!Close(got_d, want)) {
        return Status::ValidationError(
            "group '" + it->first + "' aggregate " + std::to_string(a) +
            ": got " + (got_d ? std::to_string(*got_d) : "NULL") +
            ", oracle " + (want ? std::to_string(*want) : "NULL"));
      }
    }
  }
  return Status::OK();
}

}  // namespace quarry::perfbench
