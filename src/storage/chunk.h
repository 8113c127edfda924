#ifndef QUARRY_STORAGE_CHUNK_H_
#define QUARRY_STORAGE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace quarry::storage {

/// \brief A typed, immutable column slice: the unit of the ETL runtime's
/// chunk execution (DESIGN.md §8).
///
/// A segment stores one column's values for a contiguous run of rows. When
/// every non-NULL value shares one runtime type the payload is a plain
/// typed vector (tight loops, no variant dispatch) plus an optional null
/// mask; columns that genuinely mix types — e.g. a SUM output whose groups
/// split between INT and DOUBLE — fall back to a `std::vector<Value>`
/// (Rep::kMixed). Either way `At(i)` reconstructs the original Value
/// exactly, including NULLs, so no chunk size changes a byte of a loaded
/// table (the golden-corpus tests depend on this round-trip).
class ValueSegment {
 public:
  enum class Rep { kBool, kInt64, kDouble, kString, kDate, kMixed };

  /// One row of GatherFrom's output: physical row `row` of source segment
  /// `source`, or NULL when `source` is kNullSource.
  struct SourceRef {
    uint32_t source = 0;
    uint32_t row = 0;
  };
  static constexpr uint32_t kNullSource = UINT32_MAX;

  ValueSegment() = default;

  /// Segment over column `column` of rows [begin, end).
  static ValueSegment FromRows(const std::vector<Row>& rows, size_t column,
                               size_t begin, size_t end);

  /// Segment over a freshly computed value vector (takes ownership).
  static ValueSegment FromValues(std::vector<Value> values);

  /// Typed segments over a computed payload (takes ownership). `nulls` is
  /// empty (no NULL) or holds one flag per slot; a NULL slot's payload is
  /// reset to zero.
  static ValueSegment FromInts(std::vector<int64_t> ints,
                               std::vector<uint8_t> nulls = {});
  static ValueSegment FromDoubles(std::vector<double> doubles,
                                  std::vector<uint8_t> nulls = {});

  size_t size() const { return size_; }
  Rep rep() const { return rep_; }
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }
  /// True when no slot holds a value (an empty segment included). The rep
  /// of such a segment is arbitrary, so typed readers may skip it.
  bool all_null() const;

  /// Exact reconstruction of the value at physical row `i`.
  Value At(size_t i) const;

  /// Typed payloads; valid only for the matching rep. NULL slots hold
  /// zero values — readers must consult IsNull first.
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<int32_t>& dates() const { return dates_; }
  /// Rep::kMixed payload.
  const std::vector<Value>& values() const { return values_; }

  /// New segment holding this segment's values at `positions`, in order.
  ValueSegment Gather(const std::vector<uint32_t>& positions) const;

  /// New segment holding, in order, the value each of `refs` points at in
  /// `sources` (one segment per chunk of a column). Copies typed payloads
  /// when every source that holds a value shares one typed rep; otherwise
  /// goes through Values like FromValues.
  static ValueSegment GatherFrom(
      const std::vector<const ValueSegment*>& sources,
      const std::vector<SourceRef>& refs);

 private:
  Rep rep_ = Rep::kInt64;  ///< An all-NULL segment stays kInt64 (arbitrary).
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  ///< Empty = no NULLs in this segment.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<int32_t> dates_;
  std::vector<Value> values_;
};

/// \brief A horizontal partition: aligned segments (one per column) over the
/// same physical rows, plus an optional selection vector.
///
/// Segments are shared immutably, so projection is a pointer copy and a
/// selection just attaches a position list — neither touches the data.
/// `num_rows()` counts *live* rows (selection applied); `capacity()` is the
/// physical segment length. Live row `i` maps to physical row
/// `PhysicalRow(i)`; with no selection the mapping is the identity. A chunk
/// without segments keeps an explicit physical row count (Columnless), so
/// a projection onto no columns still carries its rows.
class Chunk {
 public:
  using SegmentPtr = std::shared_ptr<const ValueSegment>;
  using SelectionPtr = std::shared_ptr<const std::vector<uint32_t>>;

  Chunk() = default;
  explicit Chunk(std::vector<SegmentPtr> segments,
                 SelectionPtr selection = nullptr)
      : segments_(std::move(segments)),
        selection_(std::move(selection)),
        capacity_(segments_.empty() ? 0 : segments_[0]->size()) {}

  /// `rows` physical rows over zero columns.
  static Chunk Columnless(size_t rows, SelectionPtr selection = nullptr) {
    Chunk chunk({}, std::move(selection));
    chunk.capacity_ = rows;
    return chunk;
  }

  /// The same segments and physical rows under `selection`.
  Chunk WithSelection(SelectionPtr selection) const {
    Chunk chunk = *this;
    chunk.selection_ = std::move(selection);
    return chunk;
  }

  size_t num_columns() const { return segments_.size(); }
  size_t capacity() const { return capacity_; }
  size_t num_rows() const {
    return selection_ != nullptr ? selection_->size() : capacity();
  }
  bool has_selection() const { return selection_ != nullptr; }
  const SelectionPtr& selection() const { return selection_; }

  const std::vector<SegmentPtr>& segments() const { return segments_; }
  const SegmentPtr& segment_ptr(size_t c) const { return segments_[c]; }
  const ValueSegment& segment(size_t c) const { return *segments_[c]; }

  uint32_t PhysicalRow(size_t live) const {
    return selection_ != nullptr ? (*selection_)[live]
                                 : static_cast<uint32_t>(live);
  }

  /// Value of column `c` at *live* row `live`.
  Value ValueAt(size_t c, size_t live) const {
    return segments_[c]->At(PhysicalRow(live));
  }

  /// Appends the live rows, in order, as materialized Rows.
  void AppendRowsTo(std::vector<Row>* out) const;

 private:
  std::vector<SegmentPtr> segments_;
  SelectionPtr selection_;
  size_t capacity_ = 0;
};

/// One chunk over columns [0, num_columns) of rows [begin, end). A scan
/// cuts its table one such range at a time, so it builds no chunk it does
/// not emit.
Chunk MakeChunk(const std::vector<Row>& rows, size_t num_columns,
                size_t begin, size_t end);

}  // namespace quarry::storage

#endif  // QUARRY_STORAGE_CHUNK_H_
