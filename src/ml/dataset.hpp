#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace caml {

/// Dense binary-classification dataset with small-integer features —
/// the shape of CA-matrix data. Row-major, int8 features, {0,1} labels.
///
/// Rows carry an integer weight (default 1). CA-matrix training sets
/// contain many exactly repeated rows (structurally identical sibling
/// cells produce identical matrices), so the flow deduplicates them
/// into weighted rows — the tree learner then trains on the *full*
/// information at a fraction of the cost. Weight-blind consumers (k-NN,
/// the linear baselines) treat each distinct row once.
class Dataset {
 public:
  explicit Dataset(std::size_t num_features) : num_features_(num_features) {}

  std::size_t num_features() const { return num_features_; }
  std::size_t num_rows() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  void reserve(std::size_t rows) {
    features_.reserve(rows * num_features_);
    labels_.reserve(rows);
    weights_.reserve(rows);
  }

  /// Appends one row; `row` must hold num_features() values.
  void add_row(const std::int8_t* row, std::uint8_t label, std::uint32_t weight = 1);

  /// Appends every row of `other`, merging rows whose (features, label)
  /// already exist in this dataset by adding their weights. Distinct
  /// rows keep their first-occurrence order. `this` must have been
  /// built exclusively through add_deduplicated (it maintains the
  /// lookup index).
  void add_deduplicated(const Dataset& other);

  /// As above for `n` weight-1 rows read straight from a row-major
  /// buffer (`rows` holds n * num_features() values, `labels` n labels)
  /// — a CA-matrix merges without an intermediate Dataset copy.
  void add_deduplicated(const std::int8_t* rows, const std::uint8_t* labels, std::size_t n);

  /// Sizes the lookup index for `rows` input rows to add_deduplicated
  /// (an upper bound on the distinct rows), so merging them never
  /// rehashes.
  void reserve_deduplicated(std::size_t rows);

  /// Returns a copy of this dataset with `other`'s row weights
  /// subtracted (matched by (features, label)); rows whose weight drops
  /// to zero are omitted. `this` must have been built through
  /// add_deduplicated, and every row of `other` must be present with at
  /// least its weight (throws caml::Error otherwise). This is the
  /// leave-one-out fast path: master-minus-one instead of rebuilding
  /// the training set per held-out cell.
  Dataset subtract_deduplicated(const Dataset& other) const;

  /// Hash of one (row, label) key in the deduplication index: the low
  /// bits pick the home slot, the high 32 bits are the slot's tag.
  static std::uint64_t row_hash(const std::int8_t* row, std::size_t num_features,
                                std::uint8_t label);

  const std::int8_t* row(std::size_t r) const { return features_.data() + r * num_features_; }
  std::span<const std::int8_t> row_span(std::size_t r) const {
    return {row(r), num_features_};
  }
  std::uint8_t label(std::size_t r) const { return labels_[r]; }
  const std::vector<std::uint8_t>& labels() const { return labels_; }
  std::uint32_t weight(std::size_t r) const { return weights_[r]; }

  /// Sum of all row weights (the "virtual" row count before dedup).
  std::uint64_t total_weight() const;

  /// Count of rows with label 1.
  std::size_t num_positive() const;

 private:
  std::size_t num_features_;
  std::vector<std::int8_t> features_;
  std::vector<std::uint8_t> labels_;
  std::vector<std::uint32_t> weights_;

  /// Probes the (non-empty) index for (row, label): returns the slot
  /// holding the equal row, or the empty slot where it would go.
  std::size_t probe_deduplicated(const std::int8_t* row, std::uint8_t label,
                                 std::uint64_t hash) const;
  /// Merges one row whose row_hash is `hash`.
  void add_deduplicated_row(const std::int8_t* row, std::uint8_t label, std::uint32_t weight,
                            std::uint64_t hash);
  void rehash_deduplicated(std::size_t capacity);

  /// Open-addressing deduplication index maintained by add_deduplicated:
  /// a power-of-two table probed linearly, load factor <= 0.5. A slot is
  /// 0 when empty, else (hash tag << 32) | (row index + 1); rows are
  /// compared against features_ only when the tag matches.
  std::vector<std::uint64_t> dedup_slots_;
};

/// Column-major (feature-major) transpose of a Dataset's rows.
///
/// The tree learner's histogram fill reads one feature across many rows;
/// on the row-major Dataset those reads are strided by num_features(),
/// so every access touches a new cache line. A ColumnView stores each
/// feature's values contiguously — column(f)[i] is the value of feature
/// f in view row i — turning the fill into a sequential-ish walk of one
/// num_rows()-byte array. It carries the rows' labels and weights and
/// their feature value range, so a tree fit reads nothing else.
/// Built once per training run (RandomForest::fit shares one view
/// across all trees) and read-only afterwards, so concurrent tree fits
/// can share it freely.
class ColumnView {
 public:
  /// Every row of `data`: view row i is data row i.
  explicit ColumnView(const Dataset& data);

  /// The listed rows of `data` (ascending, distinct): view row i is
  /// data row rows[i]. A forest transposes only the rows its trees drew.
  ColumnView(const Dataset& data, const std::vector<std::uint32_t>& rows);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return num_features_; }

  /// Contiguous values of one feature, indexed by view row.
  const std::int8_t* column(std::size_t f) const { return data_.data() + f * num_rows(); }
  std::uint8_t label(std::size_t i) const { return labels_[i]; }
  std::uint32_t weight(std::size_t i) const { return weights_[i]; }

  /// Smallest / largest feature value in the view ({0, 0} when empty).
  std::int8_t min_value() const { return min_value_; }
  std::int8_t max_value() const { return max_value_; }

 private:
  template <typename RowAt>
  void transpose(const Dataset& data, std::size_t rows, RowAt row_at);

  std::size_t num_features_;
  std::vector<std::int8_t> data_;
  std::vector<std::uint8_t> labels_;
  std::vector<std::uint32_t> weights_;
  std::int8_t min_value_ = 0;
  std::int8_t max_value_ = 0;
};

}  // namespace caml
