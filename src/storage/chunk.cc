#include "storage/chunk.h"

#include <algorithm>
#include <utility>

namespace quarry::storage {

namespace {

/// Rep for one value; never called on NULL.
ValueSegment::Rep RepOf(const Value& v) {
  if (v.is_bool()) return ValueSegment::Rep::kBool;
  if (v.is_int()) return ValueSegment::Rep::kInt64;
  if (v.is_double()) return ValueSegment::Rep::kDouble;
  if (v.is_string()) return ValueSegment::Rep::kString;
  return ValueSegment::Rep::kDate;
}

}  // namespace

ValueSegment ValueSegment::FromRows(const std::vector<Row>& rows,
                                    size_t column, size_t begin, size_t end) {
  std::vector<Value> values;
  values.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) values.push_back(rows[r][column]);
  return FromValues(std::move(values));
}

ValueSegment ValueSegment::FromValues(std::vector<Value> values) {
  ValueSegment seg;
  seg.size_ = values.size();

  // Pass 1: pick the representation — the uniform non-NULL type, or kMixed.
  bool any_value = false;
  bool mixed = false;
  Rep rep = Rep::kInt64;  // All-NULL default; the mask hides it anyway.
  for (const Value& v : values) {
    if (v.is_null()) continue;
    Rep r = RepOf(v);
    if (!any_value) {
      rep = r;
      any_value = true;
    } else if (r != rep) {
      mixed = true;
      break;
    }
  }
  if (mixed) {
    seg.rep_ = Rep::kMixed;
    seg.values_ = std::move(values);
    return seg;
  }
  seg.rep_ = rep;

  // Pass 2: typed payload plus a null mask (allocated only when needed).
  bool any_null = false;
  for (const Value& v : values) {
    if (v.is_null()) {
      any_null = true;
      break;
    }
  }
  if (any_null) seg.nulls_.assign(values.size(), 0);
  switch (rep) {
    case Rep::kBool:
      seg.bools_.resize(values.size(), 0);
      break;
    case Rep::kInt64:
      seg.ints_.resize(values.size(), 0);
      break;
    case Rep::kDouble:
      seg.doubles_.resize(values.size(), 0.0);
      break;
    case Rep::kString:
      seg.strings_.resize(values.size());
      break;
    case Rep::kDate:
      seg.dates_.resize(values.size(), 0);
      break;
    case Rep::kMixed:
      break;  // Unreachable.
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Value& v = values[i];
    if (v.is_null()) {
      seg.nulls_[i] = 1;
      continue;
    }
    switch (rep) {
      case Rep::kBool:
        seg.bools_[i] = v.as_bool() ? 1 : 0;
        break;
      case Rep::kInt64:
        seg.ints_[i] = v.as_int();
        break;
      case Rep::kDouble:
        seg.doubles_[i] = v.as_double();
        break;
      case Rep::kString:
        seg.strings_[i] = std::move(const_cast<std::string&>(v.as_string()));
        break;
      case Rep::kDate:
        seg.dates_[i] = v.as_date_days();
        break;
      case Rep::kMixed:
        break;  // Unreachable.
    }
  }
  return seg;
}

namespace {

/// Zeroes the payload under NULL slots and drops a mask without NULLs.
template <typename T>
void NormalizeNulls(std::vector<T>* payload, std::vector<uint8_t>* nulls) {
  bool any_null = false;
  for (size_t i = 0; i < nulls->size(); ++i) {
    if ((*nulls)[i] == 0) continue;
    (*payload)[i] = T{};
    any_null = true;
  }
  if (!any_null) nulls->clear();
}

}  // namespace

ValueSegment ValueSegment::FromInts(std::vector<int64_t> ints,
                                    std::vector<uint8_t> nulls) {
  ValueSegment seg;
  seg.rep_ = Rep::kInt64;
  seg.size_ = ints.size();
  NormalizeNulls(&ints, &nulls);
  seg.ints_ = std::move(ints);
  seg.nulls_ = std::move(nulls);
  return seg;
}

ValueSegment ValueSegment::FromDoubles(std::vector<double> doubles,
                                       std::vector<uint8_t> nulls) {
  ValueSegment seg;
  seg.rep_ = Rep::kDouble;
  seg.size_ = doubles.size();
  NormalizeNulls(&doubles, &nulls);
  seg.doubles_ = std::move(doubles);
  seg.nulls_ = std::move(nulls);
  return seg;
}

Value ValueSegment::At(size_t i) const {
  if (rep_ == Rep::kMixed) return values_[i];
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case Rep::kBool:
      return Value::Bool(bools_[i] != 0);
    case Rep::kInt64:
      return Value::Int(ints_[i]);
    case Rep::kDouble:
      return Value::Double(doubles_[i]);
    case Rep::kString:
      return Value::String(strings_[i]);
    case Rep::kDate:
      return Value::Date(dates_[i]);
    case Rep::kMixed:
      break;  // Handled above.
  }
  return Value::Null();
}

ValueSegment ValueSegment::Gather(const std::vector<uint32_t>& positions) const {
  ValueSegment seg;
  seg.rep_ = rep_;
  seg.size_ = positions.size();
  if (rep_ == Rep::kMixed) {
    seg.values_.reserve(positions.size());
    for (uint32_t p : positions) seg.values_.push_back(values_[p]);
    return seg;
  }
  if (!nulls_.empty()) {
    seg.nulls_.reserve(positions.size());
    for (uint32_t p : positions) seg.nulls_.push_back(nulls_[p]);
  }
  switch (rep_) {
    case Rep::kBool:
      seg.bools_.reserve(positions.size());
      for (uint32_t p : positions) seg.bools_.push_back(bools_[p]);
      break;
    case Rep::kInt64:
      seg.ints_.reserve(positions.size());
      for (uint32_t p : positions) seg.ints_.push_back(ints_[p]);
      break;
    case Rep::kDouble:
      seg.doubles_.reserve(positions.size());
      for (uint32_t p : positions) seg.doubles_.push_back(doubles_[p]);
      break;
    case Rep::kString:
      seg.strings_.reserve(positions.size());
      for (uint32_t p : positions) seg.strings_.push_back(strings_[p]);
      break;
    case Rep::kDate:
      seg.dates_.reserve(positions.size());
      for (uint32_t p : positions) seg.dates_.push_back(dates_[p]);
      break;
    case Rep::kMixed:
      break;  // Handled above.
  }
  return seg;
}

bool ValueSegment::all_null() const {
  if (size_ == 0) return true;
  if (rep_ == Rep::kMixed || nulls_.empty()) return false;
  return std::all_of(nulls_.begin(), nulls_.end(),
                     [](uint8_t null) { return null != 0; });
}

ValueSegment ValueSegment::GatherFrom(
    const std::vector<const ValueSegment*>& sources,
    const std::vector<SourceRef>& refs) {
  Rep rep = Rep::kInt64;  // All sources NULL: arbitrary, as in FromValues.
  bool typed = true;
  bool any_value = false;
  for (const ValueSegment* src : sources) {
    if (src->all_null()) continue;
    if (src->rep_ == Rep::kMixed || (any_value && src->rep_ != rep)) {
      typed = false;
      break;
    }
    rep = src->rep_;
    any_value = true;
  }
  if (!typed) {
    std::vector<Value> values;
    values.reserve(refs.size());
    for (const SourceRef& ref : refs) {
      values.push_back(ref.source == kNullSource
                           ? Value::Null()
                           : sources[ref.source]->At(ref.row));
    }
    return FromValues(std::move(values));
  }

  ValueSegment seg;
  seg.rep_ = rep;
  seg.size_ = refs.size();
  auto is_null = [&](const SourceRef& ref) {
    return ref.source == kNullSource || sources[ref.source]->IsNull(ref.row);
  };
  if (std::any_of(refs.begin(), refs.end(), is_null)) {
    seg.nulls_.assign(refs.size(), 0);
  }
  // NULL slots keep a zero payload and set their mask bit; a value is read
  // only from a source slot that holds one, whatever that source's rep.
  auto fill = [&](auto* payload, auto read) {
    payload->resize(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      const SourceRef& ref = refs[i];
      if (is_null(ref)) {
        seg.nulls_[i] = 1;
        continue;
      }
      (*payload)[i] = read(*sources[ref.source], ref.row);
    }
  };
  switch (rep) {
    case Rep::kBool:
      fill(&seg.bools_,
           [](const ValueSegment& s, uint32_t r) { return s.bools_[r]; });
      break;
    case Rep::kInt64:
      fill(&seg.ints_,
           [](const ValueSegment& s, uint32_t r) { return s.ints_[r]; });
      break;
    case Rep::kDouble:
      fill(&seg.doubles_,
           [](const ValueSegment& s, uint32_t r) { return s.doubles_[r]; });
      break;
    case Rep::kString:
      fill(&seg.strings_, [](const ValueSegment& s, uint32_t r) {
        return s.strings_[r];
      });
      break;
    case Rep::kDate:
      fill(&seg.dates_,
           [](const ValueSegment& s, uint32_t r) { return s.dates_[r]; });
      break;
    case Rep::kMixed:
      break;  // Unreachable: mixed sources take the Value path above.
  }
  return seg;
}

void Chunk::AppendRowsTo(std::vector<Row>* out) const {
  const size_t n = num_rows();
  const size_t cols = num_columns();
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t phys = PhysicalRow(i);
    Row row;
    row.reserve(cols);
    for (size_t c = 0; c < cols; ++c) row.push_back(segments_[c]->At(phys));
    out->push_back(std::move(row));
  }
}

Chunk MakeChunk(const std::vector<Row>& rows, size_t num_columns,
                size_t begin, size_t end) {
  if (num_columns == 0) return Chunk::Columnless(end - begin);
  std::vector<Chunk::SegmentPtr> segments;
  segments.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    segments.push_back(std::make_shared<const ValueSegment>(
        ValueSegment::FromRows(rows, c, begin, end)));
  }
  return Chunk(std::move(segments));
}

}  // namespace quarry::storage
