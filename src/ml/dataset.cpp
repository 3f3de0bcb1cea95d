#include "ml/dataset.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>

#include "util/error.hpp"

namespace caml {

void Dataset::add_row(const std::int8_t* row, std::uint8_t label, std::uint32_t weight) {
  features_.insert(features_.end(), row, row + num_features_);
  labels_.push_back(label);
  weights_.push_back(weight);
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;

/// Smallest table of the deduplication index.
constexpr std::size_t kMinDedupSlots = 16;

/// Rows hashed (and their home slots prefetched) ahead of their probes
/// by the buffer merge.
constexpr std::size_t kDedupBlock = 16;

/// A dedup slot's high half is its row's hash tag, the low half the row
/// index + 1 (so an occupied slot is never 0).
constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ull;
std::size_t slot_row(std::uint64_t slot) { return static_cast<std::uint32_t>(slot) - 1; }

}  // namespace

std::uint64_t Dataset::row_hash(const std::int8_t* row, std::size_t num_features,
                                std::uint8_t label) {
  // xxHash64-style rounds over 8-byte words (the tail word zero-padded;
  // the width is fixed per dataset), then the splitmix64 finalizer so
  // both the low (slot) and high (tag) bits depend on every byte.
  const auto round = [](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kPrime2, 31) * kPrime1;
  };
  std::uint64_t h = kPrime1 + label;
  std::size_t f = 0;
  for (; f + 8 <= num_features; f += 8) {
    std::uint64_t word;
    std::memcpy(&word, row + f, 8);
    h = round(h, word);
  }
  if (f < num_features) {
    std::uint64_t word = 0;
    std::memcpy(&word, row + f, num_features - f);
    h = round(h, word);
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

std::size_t Dataset::probe_deduplicated(const std::int8_t* row, std::uint8_t label,
                                        std::uint64_t hash) const {
  const std::size_t mask = dedup_slots_.size() - 1;
  const std::uint64_t tag = hash >> 32;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const std::uint64_t slot = dedup_slots_[pos];
    if (slot == 0) return pos;
    if ((slot >> 32) != tag) continue;
    const std::size_t r = slot_row(slot);
    if (labels_[r] == label && std::memcmp(this->row(r), row, num_features_) == 0) return pos;
  }
}

void Dataset::rehash_deduplicated(std::size_t capacity) {
  dedup_slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t r = 0; r < num_rows(); ++r) {
    const std::uint64_t hash = row_hash(row(r), num_features_, labels_[r]);
    std::size_t pos = hash & mask;
    while (dedup_slots_[pos] != 0) pos = (pos + 1) & mask;
    dedup_slots_[pos] = (hash & kTagMask) | (r + 1);
  }
}

void Dataset::reserve_deduplicated(std::size_t rows) {
  const std::size_t capacity =
      std::bit_ceil(std::max(kMinDedupSlots, 2 * (num_rows() + rows)));
  if (capacity > dedup_slots_.size()) rehash_deduplicated(capacity);
}

void Dataset::add_deduplicated_row(const std::int8_t* row, std::uint8_t label,
                                   std::uint32_t weight, std::uint64_t hash) {
  if (2 * (num_rows() + 1) > dedup_slots_.size()) {
    rehash_deduplicated(std::max(kMinDedupSlots, 2 * dedup_slots_.size()));
  }
  const std::size_t pos = probe_deduplicated(row, label, hash);
  const std::uint64_t slot = dedup_slots_[pos];
  if (slot != 0) {
    weights_[slot_row(slot)] += weight;
    return;
  }
  CAML_ASSERT(num_rows() < 0xFFFFFFFFull);
  dedup_slots_[pos] = (hash & kTagMask) | (num_rows() + 1);
  add_row(row, label, weight);
}

void Dataset::add_deduplicated(const Dataset& other) {
  CAML_ASSERT(other.num_features() == num_features_);
  for (std::size_t r = 0; r < other.num_rows(); ++r) {
    const std::int8_t* row = other.row(r);
    add_deduplicated_row(row, other.label(r), other.weight(r),
                         row_hash(row, num_features_, other.label(r)));
  }
}

void Dataset::add_deduplicated(const std::int8_t* rows, const std::uint8_t* labels,
                               std::size_t n) {
  // A block's home slots are prefetched while the block is hashed, so
  // its probes overlap their cache misses instead of taking them one at
  // a time. Rows are still inserted in input order: the hash only
  // places slots, so the dataset is the same as row-by-row insertion.
  std::uint64_t hashes[kDedupBlock];
  for (std::size_t first = 0; first < n; first += kDedupBlock) {
    const std::size_t count = std::min(kDedupBlock, n - first);
    const std::size_t mask = dedup_slots_.empty() ? 0 : dedup_slots_.size() - 1;
    for (std::size_t i = 0; i < count; ++i) {
      hashes[i] = row_hash(rows + (first + i) * num_features_, num_features_, labels[first + i]);
      if (mask != 0) __builtin_prefetch(dedup_slots_.data() + (hashes[i] & mask));
    }
    for (std::size_t i = 0; i < count; ++i) {
      add_deduplicated_row(rows + (first + i) * num_features_, labels[first + i], 1, hashes[i]);
    }
  }
}

Dataset Dataset::subtract_deduplicated(const Dataset& other) const {
  CAML_ASSERT(other.num_features() == num_features_);
  std::vector<std::uint32_t> remaining = weights_;
  for (std::size_t r = 0; r < other.num_rows(); ++r) {
    const std::int8_t* key = other.row(r);
    const std::uint8_t label = other.label(r);
    const std::uint64_t slot =
        dedup_slots_.empty()
            ? 0
            : dedup_slots_[probe_deduplicated(key, label, row_hash(key, num_features_, label))];
    if (slot == 0 || remaining[slot_row(slot)] < other.weight(r)) {
      throw Error("subtract_deduplicated: row not present with sufficient weight");
    }
    remaining[slot_row(slot)] -= other.weight(r);
  }
  Dataset out(num_features_);
  out.reserve(num_rows());
  for (std::size_t r = 0; r < num_rows(); ++r) {
    if (remaining[r] > 0) out.add_row(row(r), labels_[r], remaining[r]);
  }
  return out;
}

template <typename RowAt>
void ColumnView::transpose(const Dataset& data, std::size_t rows, RowAt row_at) {
  data_.resize(rows * num_features_);
  labels_.resize(rows);
  weights_.resize(rows);
  std::int8_t lo = std::numeric_limits<std::int8_t>::max();
  std::int8_t hi = std::numeric_limits<std::int8_t>::min();
  // Row-major pass over the source (ascending reads), scattering into
  // the per-feature columns.
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t r = row_at(i);
    const std::int8_t* row = data.row(r);
    for (std::size_t f = 0; f < num_features_; ++f) {
      data_[f * rows + i] = row[f];
      lo = std::min(lo, row[f]);
      hi = std::max(hi, row[f]);
    }
    labels_[i] = data.label(r);
    weights_[i] = data.weight(r);
  }
  if (!data_.empty()) {
    min_value_ = lo;
    max_value_ = hi;
  }
}

ColumnView::ColumnView(const Dataset& data) : num_features_(data.num_features()) {
  transpose(data, data.num_rows(), [](std::size_t i) { return i; });
}

ColumnView::ColumnView(const Dataset& data, const std::vector<std::uint32_t>& rows)
    : num_features_(data.num_features()) {
  CAML_ASSERT(std::adjacent_find(rows.begin(), rows.end(), std::greater_equal<>()) ==
              rows.end());
  CAML_ASSERT(rows.empty() || rows.back() < data.num_rows());
  transpose(data, rows.size(), [&](std::size_t i) { return std::size_t{rows[i]}; });
}

std::uint64_t Dataset::total_weight() const {
  std::uint64_t w = 0;
  for (std::uint32_t x : weights_) w += x;
  return w;
}

std::size_t Dataset::num_positive() const {
  std::size_t n = 0;
  for (std::uint8_t l : labels_) n += l;
  return n;
}

}  // namespace caml
