#include "store/binary_store.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace caml::store {

namespace {

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint32_t matrix_to_flags(const MatrixOptions& m) {
  std::uint32_t flags = 0;
  if (m.include_activity) flags |= 1u << 0;
  if (m.include_response) flags |= 1u << 1;
  if (m.include_truth_table) flags |= 1u << 2;
  if (m.include_defect_kind) flags |= 1u << 3;
  return flags;
}

MatrixOptions flags_to_matrix(std::uint32_t flags) {
  MatrixOptions m;
  m.include_activity = (flags & (1u << 0)) != 0;
  m.include_response = (flags & (1u << 1)) != 0;
  m.include_truth_table = (flags & (1u << 2)) != 0;
  m.include_defect_kind = (flags & (1u << 3)) != 0;
  return m;
}

std::uint64_t tree_section_bytes(std::uint64_t node_count) {
  // header + packed nodes + count0 + count1.
  return kTreeHeaderBytes + node_count * (kPackedNodeBytes + 8 + 8);
}

/// Encodes one tree section (header, nodes, count0, count1) appended to
/// `out`. Shared by the CRC pre-pass and the write pass so both see the
/// exact same bytes.
void encode_tree(const DecisionTree& tree, std::string& out) {
  const std::size_t nc = tree.num_nodes();
  out.clear();
  out.reserve(tree_section_bytes(nc));
  append_u64(out, nc);
  append_u64(out, 0);  // reserved
  unsigned char node[kPackedNodeBytes];
  std::vector<DecisionTree::NodeRecord> records(nc);
  for (std::size_t i = 0; i < nc; ++i) records[i] = tree.node_record(i);
  for (std::size_t i = 0; i < nc; ++i) {
    encode_packed_node(records[i], node);
    out.append(reinterpret_cast<const char*>(node), kPackedNodeBytes);
  }
  for (std::size_t i = 0; i < nc; ++i) append_u64(out, records[i].count0);
  for (std::size_t i = 0; i < nc; ++i) append_u64(out, records[i].count1);
}

struct SectionPlan {
  GroupKey key;
  const RandomForest* forest = nullptr;
  std::uint64_t offset = 0;  ///< within the payload
  std::uint64_t size = 0;
};

}  // namespace

void write_binary_store_file(const std::string& path, const GroupModelStore& store) {
  // Plan the sections: sizes, offsets, index.
  std::vector<SectionPlan> plan;
  for (const GroupKey& key : store.group_keys()) {
    SectionPlan s;
    s.key = key;
    s.forest = store.forest_for(key);
    CAML_ASSERT(s.forest != nullptr);
    CAML_ASSERT(key.num_inputs <= std::numeric_limits<std::uint32_t>::max());
    CAML_ASSERT(key.num_transistors <= std::numeric_limits<std::uint32_t>::max());
    CAML_ASSERT(s.forest->num_features() <= std::numeric_limits<std::uint32_t>::max());
    for (const DecisionTree& tree : s.forest->trees()) {
      s.size += tree_section_bytes(tree.num_nodes());
    }
    plan.push_back(s);
  }
  const std::uint64_t index_offset = kBinHeaderBytes;
  const std::uint64_t data_offset = index_offset + plan.size() * kIndexEntryBytes;
  std::uint64_t at = data_offset;
  for (SectionPlan& s : plan) {
    s.offset = at;
    at += s.size;
  }
  const std::uint64_t payload_size = at;

  std::string index;
  index.reserve(plan.size() * kIndexEntryBytes);
  for (const SectionPlan& s : plan) {
    append_u32(index, static_cast<std::uint32_t>(s.key.num_inputs));
    append_u32(index, static_cast<std::uint32_t>(s.key.num_transistors));
    append_u64(index, s.offset);
    append_u64(index, s.size);
    append_u32(index, static_cast<std::uint32_t>(s.forest->trees().size()));
    append_u32(index, static_cast<std::uint32_t>(s.forest->num_features()));
  }

  // Pre-pass: the data-section CRC must land in the header, which is
  // written before the data — encode each tree once into a reusable
  // scratch buffer and feed the CRC, so memory stays O(largest tree)
  // instead of O(store).
  io::Crc32 data_crc;
  std::string scratch;
  for (const SectionPlan& s : plan) {
    for (const DecisionTree& tree : s.forest->trees()) {
      encode_tree(tree, scratch);
      data_crc.update(scratch);
    }
  }

  std::string header;
  header.reserve(kBinHeaderBytes);
  header.append(kBinaryMagic, sizeof(kBinaryMagic));
  append_u32(header, kEndianTag);
  append_u32(header, kBinaryVersion);
  append_u64(header, payload_size);
  append_u32(header, static_cast<std::uint32_t>(plan.size()));
  append_u32(header, matrix_to_flags(store.matrix_options()));
  append_u64(header, index_offset);
  append_u64(header, data_offset);
  append_u32(header, io::crc32(index));
  append_u32(header, data_crc.value());
  append_u64(header, 0);  // reserved
  CAML_ASSERT(header.size() == kBinHeaderBytes);

  io::ChecksummedFileWriter writer(path, std::string(kBinaryStoreKind), "store");
  writer.write(header.data(), header.size());
  writer.write(index.data(), index.size());
  for (const SectionPlan& s : plan) {
    for (const DecisionTree& tree : s.forest->trees()) {
      encode_tree(tree, scratch);
      writer.write(scratch.data(), scratch.size());
    }
  }
  writer.commit();  // flushes the tail chunk, then publishes
  CAML_ASSERT(writer.bytes_written() == payload_size);
}

bool is_binary_store_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string want =
      std::string(io::kContainerMagic) + " " + std::string(kBinaryStoreKind) + " ";
  std::string head(want.size(), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  return static_cast<std::size_t>(in.gcount()) == want.size() && head == want;
}

namespace {

/// Container-header scan done in place over the mapping (no payload
/// copy, unlike io::unwrap_checksummed). Returns the payload view and
/// its absolute file offset; `declared_crc` is checked by the caller
/// only under Verify::kFull, because hashing the whole payload is the
/// O(file) cost the mapped open exists to avoid.
struct Container {
  std::string_view payload;
  std::size_t payload_base = 0;  ///< file offset of payload start
  std::uint32_t declared_crc = 0;
};

[[noreturn]] void fail_at(const std::string& path, std::uint64_t offset,
                          const std::string& what) {
  throw ParseError::in_file(
      path, ParseError(what + " (at byte offset " + std::to_string(offset) + ")", 1));
}

Container parse_container(const std::string& path, std::string_view bytes) {
  if (!io::is_checksummed(bytes)) {
    fail_at(path, 0, "not a " + std::string(io::kContainerMagic) + " container (bad magic)");
  }
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string_view::npos) {
    fail_at(path, bytes.size(), "container header has no newline (file truncated)");
  }
  const std::vector<std::string> tok = split(bytes.substr(0, header_end));
  if (tok.size() != 4 || tok[2].rfind("len=", 0) != 0 || tok[3].rfind("crc32=", 0) != 0) {
    fail_at(path, 0, "malformed container header '" +
                         std::string(bytes.substr(0, header_end)) + "'");
  }
  if (tok[1] != kBinaryStoreKind) {
    fail_at(path, 0, "container holds a '" + tok[1] + "' payload, expected '" +
                         std::string(kBinaryStoreKind) + "'");
  }
  const auto declared_len = try_parse_uint64(std::string_view(tok[2]).substr(4));
  if (!declared_len) {
    fail_at(path, 0, "malformed container header '" +
                         std::string(bytes.substr(0, header_end)) + "'");
  }
  Container c;
  c.payload_base = header_end + 1;
  c.payload = bytes.substr(c.payload_base);
  if (c.payload.size() != *declared_len) {
    fail_at(path, bytes.size(),
            "truncated container: header declares " + std::to_string(*declared_len) +
                " payload bytes but " + std::to_string(c.payload.size()) + " are present");
  }
  // crc32= token: 8 hex digits (validated by width + parse).
  const std::string_view crc_text = std::string_view(tok[3]).substr(6);
  std::uint32_t crc = 0;
  if (crc_text.size() != 8) fail_at(path, 0, "malformed container crc field");
  for (const char ch : crc_text) {
    crc <<= 4;
    if (ch >= '0' && ch <= '9') crc |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') crc |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else if (ch >= 'A' && ch <= 'F') crc |= static_cast<std::uint32_t>(ch - 'A' + 10);
    else fail_at(path, 0, "malformed container crc field");
  }
  c.declared_crc = crc;
  return c;
}

}  // namespace

MappedModelStore MappedModelStore::open(const std::string& path, Verify verify) {
  MappedModelStore store;
  store.path_ = path;
  store.file_ = io::MappedFile(path);
  const Container c = parse_container(path, store.file_.bytes());
  const unsigned char* payload =
      reinterpret_cast<const unsigned char*>(c.payload.data());
  const std::uint64_t size = c.payload.size();
  // Errors report absolute file offsets (payload offset + container
  // header length) so a hexdump of the named offset shows the bad bytes.
  const auto file_off = [&](std::uint64_t payload_off) {
    return payload_off + c.payload_base;
  };

  if (verify == Verify::kFull) {
    const std::uint32_t actual = io::crc32(c.payload);
    if (actual != c.declared_crc) {
      fail_at(path, file_off(0), "container checksum mismatch over the payload");
    }
  }

  if (size < kBinHeaderBytes) {
    fail_at(path, file_off(size),
            "binary store truncated: " + std::to_string(size) + " payload bytes, header needs " +
                std::to_string(kBinHeaderBytes));
  }
  if (std::memcmp(payload, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    fail_at(path, file_off(0), "bad binary store magic");
  }
  if (read_u32(payload + 8) != kEndianTag) {
    fail_at(path, file_off(8),
            "binary store byte order does not match this host (endian tag mismatch)");
  }
  const std::uint32_t version = read_u32(payload + 12);
  if (version != kBinaryVersion) {
    fail_at(path, file_off(12),
            "unsupported binary store version " + std::to_string(version) + " (expected " +
                std::to_string(kBinaryVersion) + ")");
  }
  if (read_u64(payload + 16) != size) {
    fail_at(path, file_off(16),
            "header payload_size " + std::to_string(read_u64(payload + 16)) +
                " does not match actual payload size " + std::to_string(size));
  }
  const std::uint64_t group_count = read_u32(payload + 24);
  const std::uint32_t matrix_flags = read_u32(payload + 28);
  if ((matrix_flags & ~0xFu) != 0) {
    fail_at(path, file_off(28), "unknown matrix flag bits");
  }
  const std::uint64_t index_offset = read_u64(payload + 32);
  const std::uint64_t data_offset = read_u64(payload + 40);
  const std::uint32_t index_crc = read_u32(payload + 48);
  const std::uint32_t data_crc = read_u32(payload + 52);
  const std::uint64_t index_bytes = group_count * kIndexEntryBytes;
  if (index_offset != kBinHeaderBytes) {
    fail_at(path, file_off(32), "index_offset must be " + std::to_string(kBinHeaderBytes));
  }
  // group_count is a u32 and kIndexEntryBytes is 32, so index_bytes
  // cannot overflow u64; the bound checks below are plain comparisons.
  if (data_offset != index_offset + index_bytes) {
    fail_at(path, file_off(40),
            "data_offset " + std::to_string(data_offset) + " does not follow the index (" +
                std::to_string(index_offset + index_bytes) + ")");
  }
  if (data_offset > size) {
    fail_at(path, file_off(40), "index table extends past the payload end");
  }
  const std::string_view index_view = c.payload.substr(index_offset, index_bytes);
  if (io::crc32(index_view) != index_crc) {
    fail_at(path, file_off(index_offset), "index table checksum mismatch");
  }
  if (verify == Verify::kFull) {
    if (io::crc32(c.payload.substr(data_offset)) != data_crc) {
      fail_at(path, file_off(data_offset), "data section checksum mismatch");
    }
  }

  store.matrix_ = flags_to_matrix(matrix_flags);
  store.keys_.reserve(group_count);
  store.forests_.reserve(group_count);
  store.infos_.reserve(group_count);

  std::uint64_t expected_offset = data_offset;
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const unsigned char* entry = payload + index_offset + g * kIndexEntryBytes;
    const std::uint64_t entry_off = file_off(index_offset + g * kIndexEntryBytes);
    GroupInfo info;
    info.key = GroupKey{read_u32(entry), read_u32(entry + 4)};
    info.forest_offset = read_u64(entry + 8);
    info.forest_size = read_u64(entry + 16);
    info.num_trees = read_u32(entry + 24);
    info.num_features = read_u32(entry + 28);
    if (!store.keys_.empty() && !(store.keys_.back() < info.key)) {
      fail_at(path, entry_off, "index keys not in strictly ascending order");
    }
    if (info.num_trees == 0) fail_at(path, entry_off, "group declares zero trees");
    if (info.num_features == 0) fail_at(path, entry_off, "group declares zero features");
    // Sections are contiguous in index order, so bounds reduce to a
    // running cursor: any gap, overlap or out-of-bounds offset trips.
    if (info.forest_offset != expected_offset) {
      fail_at(path, entry_off,
              "forest section offset " + std::to_string(info.forest_offset) +
                  " does not match the running layout (" + std::to_string(expected_offset) +
                  ")");
    }
    if (info.forest_size > size - expected_offset) {
      fail_at(path, entry_off, "forest section extends past the payload end");
    }
    expected_offset += info.forest_size;

    // Walk the tree sections: O(1) per tree (header only), so opening a
    // store stays independent of node counts.
    std::vector<MappedForest::TreeRef> trees;
    trees.reserve(info.num_trees);
    std::uint64_t at = info.forest_offset;
    const std::uint64_t section_end = info.forest_offset + info.forest_size;
    for (std::uint32_t t = 0; t < info.num_trees; ++t) {
      if (section_end - at < kTreeHeaderBytes) {
        fail_at(path, file_off(at), "tree header extends past its forest section");
      }
      const std::uint64_t node_count = read_u64(payload + at);
      if (node_count == 0) fail_at(path, file_off(at), "tree declares zero nodes");
      if (node_count > static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
        fail_at(path, file_off(at), "tree node count exceeds the index range");
      }
      const std::uint64_t body = node_count * (kPackedNodeBytes + 16);
      if (section_end - at - kTreeHeaderBytes < body) {
        fail_at(path, file_off(at),
                "tree section (" + std::to_string(node_count) +
                    " nodes) extends past its forest section");
      }
      MappedForest::TreeRef ref;
      ref.node_count = node_count;
      ref.nodes = payload + at + kTreeHeaderBytes;
      ref.count0 = ref.nodes + node_count * kPackedNodeBytes;
      ref.count1 = ref.count0 + node_count * 8;
      trees.push_back(ref);
      at += kTreeHeaderBytes + body;
    }
    if (at != section_end) {
      fail_at(path, file_off(at),
              "forest section length mismatch: " + std::to_string(section_end - at) +
                  " trailing bytes after the last tree");
    }

    if (verify == Verify::kFull) {
      // Structural node validation: everything the traversal dereferences
      // is proven in range up front, so even a crafted file with valid
      // checksums cannot push predict() out of bounds or into a cycle
      // (children must point strictly forward).
      for (const MappedForest::TreeRef& ref : trees) {
        for (std::uint64_t i = 0; i < ref.node_count; ++i) {
          const PackedNode node = decode_packed_node(ref.nodes + i * kPackedNodeBytes);
          const std::uint64_t node_off = file_off(
              static_cast<std::uint64_t>(ref.nodes - payload) + i * kPackedNodeBytes);
          if (node.is_leaf()) continue;
          if (node.left <= static_cast<std::int64_t>(i) || node.right <= static_cast<std::int64_t>(i) ||
              static_cast<std::uint64_t>(node.left) >= ref.node_count ||
              static_cast<std::uint64_t>(node.right) >= ref.node_count) {
            fail_at(path, node_off, "tree node children out of range");
          }
          if (node.feature >= info.num_features) {
            fail_at(path, node_off, "tree node feature index out of range");
          }
        }
      }
    }

    store.keys_.push_back(info.key);
    store.forests_.emplace_back(std::move(trees),
                                static_cast<std::size_t>(info.num_features));
    store.infos_.push_back(info);
  }
  if (expected_offset != size) {
    fail_at(path, file_off(expected_offset),
            "payload has " + std::to_string(size - expected_offset) +
                " trailing bytes after the last forest section");
  }
  return store;
}

const Classifier* MappedModelStore::classifier_for(const GroupKey& key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &forests_[static_cast<std::size_t>(it - keys_.begin())];
}

GroupModelStore MappedModelStore::materialize() const {
  std::map<GroupKey, RandomForest> models;
  for (std::size_t g = 0; g < keys_.size(); ++g) {
    const MappedForest& view = forests_[g];
    std::vector<DecisionTree> trees;
    trees.reserve(view.num_trees());
    for (std::size_t t = 0; t < view.num_trees(); ++t) {
      const MappedForest::TreeRef& ref = view.tree(t);
      std::vector<DecisionTree::NodeRecord> records(ref.node_count);
      for (std::size_t i = 0; i < ref.node_count; ++i) {
        const PackedNode node = decode_packed_node(ref.nodes + i * kPackedNodeBytes);
        records[i].left = node.left;
        records[i].right = node.right;
        records[i].feature = node.feature;
        records[i].threshold = node.threshold;
        records[i].count0 = read_u64(ref.count0 + i * 8);
        records[i].count1 = read_u64(ref.count1 + i * 8);
      }
      trees.push_back(DecisionTree::from_records(records, view.num_features()));
    }
    models.emplace(keys_[g], RandomForest::assemble(std::move(trees), view.num_features()));
  }
  return GroupModelStore::assemble(std::move(models), matrix_);
}

std::shared_ptr<const ModelStore> open_model_store(const std::string& path) {
  if (is_binary_store_file(path)) {
    auto store = std::make_shared<MappedModelStore>(MappedModelStore::open(path));
    log_info() << "opened binary model store " << path << " (" << store->num_groups()
               << " groups, " << store->bytes_mapped() << " bytes mapped)";
    return store;
  }
  return std::make_shared<GroupModelStore>(GroupModelStore::load_file(path));
}

}  // namespace caml::store
