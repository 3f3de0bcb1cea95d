#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/model_store.hpp"
#include "ml/forest_view.hpp"
#include "util/io.hpp"

namespace caml::store {

/// Binary model-store section: a CAMLF1 container of kind "models.bin"
/// whose payload is a fixed-layout, offset-indexed binary image of a
/// GroupModelStore. The layout is designed for zero-parse mmap serving:
/// a 64-byte header, a sorted group-key index table, then per-group
/// forest sections whose node arrays are the packed 16-byte hot-node
/// layout the in-memory traversal kernel uses — MappedModelStore walks
/// trees directly over the mapping.
///
/// Payload layout (all integers native little-endian, offsets relative
/// to the payload start; every field is read through memcpy so the
/// payload may begin at any byte alignment after the variable-length
/// container header):
///
///   BinHeader (64 bytes)
///     0  magic[8]        "CAMLBIN1"
///     8  endian u32      0x01020304 (byte-order canary)
///    12  version u32     1
///    16  payload_size u64  total payload bytes (== container len)
///    24  group_count u32
///    28  matrix_flags u32  bit0 activity, bit1 response,
///                          bit2 truth table, bit3 defect kind
///    32  index_offset u64  == 64
///    40  data_offset u64   == 64 + 32 * group_count
///    48  index_crc32 u32   CRC-32 of the index table bytes
///    52  payload_crc32 u32 CRC-32 of [data_offset, payload_size)
///    56  reserved u64      0
///
///   IndexEntry (32 bytes each, sorted by (inputs, transistors),
///   forest sections contiguous in index order)
///     0  num_inputs u32
///     4  num_transistors u32
///     8  forest_offset u64
///    16  forest_size u64
///    24  num_trees u32
///    28  num_features u32
///
///   Forest section: num_trees tree sections back to back, each
///     0  node_count u64
///     8  reserved u64    0
///    16  nodes   node_count * 16 bytes (packed hot nodes, ml/forest_view.hpp)
///        count0  node_count * u64 (leaf votes, class 0)
///        count1  node_count * u64
///
/// See docs/FORMATS.md for the normative spec.
inline constexpr std::string_view kBinaryStoreKind = "models.bin";
inline constexpr char kBinaryMagic[8] = {'C', 'A', 'M', 'L', 'B', 'I', 'N', '1'};
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kBinaryVersion = 1;
inline constexpr std::size_t kBinHeaderBytes = 64;
inline constexpr std::size_t kIndexEntryBytes = 32;
inline constexpr std::size_t kTreeHeaderBytes = 16;

/// Converts `store` to the binary section and publishes it atomically at
/// `path` (streaming writer, fault point "store" — same crash-safety
/// guarantees as the text save). Throws caml::Error on I/O failure.
void write_binary_store_file(const std::string& path, const GroupModelStore& store);

/// True when the file starts with a CAMLF1 "models.bin" container
/// header — the sniff `open_model_store` and the CLI use to pick the
/// binary or the text loader. False for missing/short files.
bool is_binary_store_file(const std::string& path);

/// Read-only model store over a memory-mapped binary section: open cost
/// is O(header + index + one header per tree), independent of forest
/// node counts, and predictions traverse the packed node arrays in
/// place — zero parse, zero copy. Implements the same ModelStore
/// contract as GroupModelStore and answers bit-identically (enforced by
/// tests/store_test.cpp).
class MappedModelStore final : public ModelStore {
 public:
  /// kFull (default, used by serve and the CLI) additionally checks the
  /// container CRC, the data-section CRC and every node's structural
  /// invariants (children forward-pointing and in range, feature index
  /// within the group's feature count) — a corrupt or adversarial file
  /// fails with a ParseError naming the file and byte offset, never UB.
  /// kMapOnly skips the O(payload) work and trusts the index CRC plus
  /// section-bounds walk; it exists so bench_store_load can demonstrate
  /// the size-independent open cost.
  enum class Verify { kFull, kMapOnly };

  /// Maps and validates `path`. Throws caml::ParseError (naming the file
  /// and byte offset) on any validation failure, caml::Error when the
  /// file cannot be opened or mapped.
  static MappedModelStore open(const std::string& path, Verify verify = Verify::kFull);

  MappedModelStore(MappedModelStore&&) noexcept = default;
  MappedModelStore& operator=(MappedModelStore&&) noexcept = default;

  std::size_t num_groups() const override { return keys_.size(); }
  const MatrixOptions& matrix_options() const override { return matrix_; }
  const Classifier* classifier_for(const GroupKey& key) const override;

  /// Size revalidation against the pinned fd: false once the backing
  /// file was truncated or rewritten in place (its on-disk size differs
  /// from the mapped size) — accesses past the new EOF would SIGBUS.
  /// The serve plane checks this before every batch and treats false as
  /// a store fault.
  bool healthy() const override { return !file_.size_changed(); }

  /// Per-group section facts for `caml store --info`.
  struct GroupInfo {
    GroupKey key;
    std::uint64_t forest_offset = 0;
    std::uint64_t forest_size = 0;
    std::uint32_t num_trees = 0;
    std::uint32_t num_features = 0;
  };
  const std::vector<GroupInfo>& group_infos() const { return infos_; }

  /// Size of the underlying mapping (whole file) — feeds the
  /// caml_store_bytes_mapped gauge.
  std::size_t bytes_mapped() const { return file_.size(); }
  const std::string& path() const { return path_; }

  /// Copies the mapped forests back into an owning GroupModelStore (the
  /// `caml store --to-text` conversion path). Trees are rebuilt through
  /// DecisionTree::from_records, so the result round-trips through the
  /// text format byte-identically.
  GroupModelStore materialize() const;

 private:
  MappedModelStore() = default;

  io::MappedFile file_;
  std::string path_;
  MatrixOptions matrix_;
  std::vector<GroupKey> keys_;          ///< sorted, parallel to forests_
  std::vector<MappedForest> forests_;
  std::vector<GroupInfo> infos_;
};

/// Opens `path` as whichever store format it holds: the mmap-backed
/// binary store when the container kind is "models.bin" (verified kFull),
/// otherwise the framed text loader (GroupModelStore::load_file). This
/// is the single entry point `caml serve` / `caml predict` load through,
/// so a daemon prefers the binary store automatically.
std::shared_ptr<const ModelStore> open_model_store(const std::string& path);

}  // namespace caml::store
