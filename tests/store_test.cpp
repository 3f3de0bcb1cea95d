// Binary model-store tests: text <-> binary round-trip identity,
// byte-identical predictions across text-loaded / materialized /
// mmap-backed stores (serial and parallel), adversarial inputs
// (truncation, flipped bytes, out-of-bounds sections, crafted nodes —
// every case a ParseError naming the file, never UB; run the suite
// under -DCAML_SANITIZE for the memory-safety proof), and serve
// end-to-end on a mapped store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>

#include "camatrix/canonical.hpp"
#include "camodel/model_io.hpp"
#include "defect/universe.hpp"
#include "flow/ml_flow.hpp"
#include "flow/model_store.hpp"
#include "ml/forest_view.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/binary_store.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/sigguard.hpp"
#include "util/thread_pool.hpp"

namespace caml {
namespace {

namespace fs = std::filesystem;

using store::is_binary_store_file;
using store::MappedModelStore;
using store::open_model_store;
using store::write_binary_store_file;
using testing::build_function;
using testing::characterize;
using testing::hexfloats;
using testing::row_wise_votes;

std::string temp_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("caml_store_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Two-group store (NAND2 and NAND3), trained once for the whole file.
const GroupModelStore& shared_store() {
  static const GroupModelStore store = [] {
    const Technology tech = technology_28soi();
    std::vector<CharacterizedCell> training;
    training.push_back(
        characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1), tech));
    training.push_back(
        characterize(build_function("NAND3", tech, {1, StructureVariant::kWide}, 2), tech));
    MlOptions options;
    options.forest.num_trees = 8;
    return GroupModelStore::train(training, options);
  }();
  return store;
}

/// A valid binary store file on disk, written once.
const std::string& shared_binary_path() {
  static const std::string path = [] {
    const std::string p = temp_dir("shared") + "/models.bin.caml";
    write_binary_store_file(p, shared_store());
    return p;
  }();
  return path;
}

/// Deterministic pseudo-random feature rows in the small-int domain the
/// trees split on — enough to hit many leaves of every tree.
std::vector<std::int8_t> make_rows(std::size_t n, std::size_t features) {
  std::vector<std::int8_t> rows(n * features);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::int8_t& v : rows) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::int8_t>(static_cast<int>(x % 3) - 1);  // {-1, 0, 1}
  }
  return rows;
}

/// Probability and margin of `n` plain rows, `features` apart, through
/// the classifier's one evaluation (a one-defect product).
ProductVotes row_votes(const Classifier& c, const std::int8_t* rows, std::size_t n,
                       std::size_t features) {
  return c.predict_product(ProductView::row_block(rows, n, features));
}

// ---------------------------------------------------------------------------
// Round-trip identity

TEST(BinaryStore, TextBinaryTextRoundTripIsByteIdentical) {
  const std::string dir = temp_dir("roundtrip");
  const std::string text1 = dir + "/models.caml";
  const std::string binary = dir + "/models.bin.caml";
  const std::string text2 = dir + "/models2.caml";

  shared_store().save_file(text1);
  write_binary_store_file(binary, GroupModelStore::load_file(text1));
  ASSERT_TRUE(is_binary_store_file(binary));
  ASSERT_FALSE(is_binary_store_file(text1));
  MappedModelStore::open(binary).materialize().save_file(text2);

  EXPECT_EQ(slurp(text1), slurp(text2))
      << "text -> binary -> text must be byte-identical";
}

TEST(BinaryStore, MappedStoreReportsSections) {
  const MappedModelStore mapped = MappedModelStore::open(shared_binary_path());
  ASSERT_EQ(mapped.num_groups(), shared_store().num_groups());
  EXPECT_EQ(mapped.bytes_mapped(), fs::file_size(shared_binary_path()));
  ASSERT_EQ(mapped.group_infos().size(), mapped.num_groups());
  for (const MappedModelStore::GroupInfo& info : mapped.group_infos()) {
    EXPECT_EQ(info.num_trees, 8u);
    const RandomForest* forest = shared_store().forest_for(info.key);
    ASSERT_NE(forest, nullptr);
    EXPECT_EQ(info.num_features, forest->num_features());
  }
  // kMapOnly opens the same file without the O(payload) checks.
  EXPECT_EQ(MappedModelStore::open(shared_binary_path(), MappedModelStore::Verify::kMapOnly)
                .num_groups(),
            mapped.num_groups());
}

// ---------------------------------------------------------------------------
// Prediction identity

TEST(BinaryStore, HexfloatProbasIdenticalAcrossAllStoreBackends) {
  const MappedModelStore mapped = MappedModelStore::open(shared_binary_path());
  const GroupModelStore materialized = mapped.materialize();
  for (const GroupKey& key : shared_store().group_keys()) {
    const RandomForest* trained = shared_store().forest_for(key);
    ASSERT_NE(trained, nullptr);
    const std::size_t features = trained->num_features();
    const std::vector<std::int8_t> rows = make_rows(257, features);
    const std::size_t n = rows.size() / features;

    const auto* view = dynamic_cast<const MappedForest*>(mapped.classifier_for(key));
    ASSERT_NE(view, nullptr);
    const auto* rebuilt =
        dynamic_cast<const RandomForest*>(materialized.classifier_for(key));
    ASSERT_NE(rebuilt, nullptr);

    const std::string expected =
        hexfloats(row_wise_votes(*trained, rows.data(), n, features).proba);
    EXPECT_EQ(hexfloats(row_votes(*trained, rows.data(), n, features).proba), expected)
        << "the trained forest's walk must match the per-row referee to the last bit";
    EXPECT_EQ(hexfloats(row_votes(*view, rows.data(), n, features).proba), expected)
        << "mmap-backed probabilities must match the trained forest to the last bit";
    EXPECT_EQ(hexfloats(row_votes(*rebuilt, rows.data(), n, features).proba), expected)
        << "materialized probabilities must match the trained forest to the last bit";
    // One-row walks agree with the batched one.
    for (std::size_t r = 0; r < 5; ++r) {
      const std::int8_t* row = rows.data() + r * features;
      EXPECT_EQ(hexfloats(row_votes(*view, row, 1, features).proba),
                hexfloats(row_votes(*trained, row, 1, features).proba));
      EXPECT_EQ(view->predict(row), trained->predict(row));
    }
  }
}

TEST(BinaryStore, HexfloatProbaAndMarginParityAcrossJobCounts) {
  // Probabilities and vote margins must be bit-identical between the
  // trained forest (as the per-row referee computes them) and the
  // mapped view, for any sharding of the rows across worker threads —
  // the property the active-learning scorer leans on for
  // jobs-independent acquisition order.
  const MappedModelStore mapped = MappedModelStore::open(shared_binary_path());
  for (const GroupKey& key : shared_store().group_keys()) {
    const RandomForest* trained = shared_store().forest_for(key);
    ASSERT_NE(trained, nullptr);
    const auto* view = dynamic_cast<const MappedForest*>(mapped.classifier_for(key));
    ASSERT_NE(view, nullptr);
    const std::size_t features = trained->num_features();
    const std::vector<std::int8_t> rows = make_rows(64, features);
    const std::size_t n = rows.size() / features;

    // One row index per work item: jobs=4 classifies each row in its own
    // batch on a pool worker, jobs=1 inline — both must reproduce the
    // single 64-row batch byte for byte.
    std::vector<std::size_t> indices(n);
    for (std::size_t i = 0; i < n; ++i) indices[i] = i;
    const auto sharded = [&](const Classifier& c, std::size_t jobs,
                             auto member) -> std::string {
      const std::vector<std::vector<double>> per_row =
          parallel_map(indices, jobs, [&](const std::size_t& r) {
            return member(row_votes(c, rows.data() + r * features, 1, 0));
          });
      std::vector<double> flat;
      for (const std::vector<double>& v : per_row) flat.push_back(v.at(0));
      return hexfloats(flat);
    };
    const auto proba_of = [](const ProductVotes& v) { return v.proba; };
    const auto margin_of = [](const ProductVotes& v) { return v.margin; };

    const ProductVotes want = row_wise_votes(*trained, rows.data(), n, features);
    const std::string probas = hexfloats(want.proba);
    const std::string margins = hexfloats(want.margin);
    const ProductVotes mapped_votes = row_votes(*view, rows.data(), n, features);
    EXPECT_EQ(hexfloats(mapped_votes.proba), probas)
        << "mapped probabilities must match the trained forest to the last bit";
    EXPECT_EQ(hexfloats(mapped_votes.margin), margins)
        << "mapped vote margins must match the trained forest to the last bit";
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(sharded(*trained, jobs, proba_of), probas) << "jobs=" << jobs;
      EXPECT_EQ(sharded(*view, jobs, proba_of), probas) << "jobs=" << jobs;
      EXPECT_EQ(sharded(*trained, jobs, margin_of), margins) << "jobs=" << jobs;
      EXPECT_EQ(sharded(*view, jobs, margin_of), margins) << "jobs=" << jobs;
    }
  }
}

TEST(BinaryStore, FactoredProductMatchesRowWiseAcrossBackendsAndJobCounts) {
  // Every group's real CA-matrices, classified by the factored
  // predict_product on the trained, mapped and materialized forests,
  // must reproduce the per-row referee's proba and margin over the
  // trained forest to the last bit, whether the cells are classified
  // inline or on 4 workers.
  const MappedModelStore mapped = MappedModelStore::open(shared_binary_path());
  const GroupModelStore materialized = mapped.materialize();
  const Technology tech = technology_28soi();
  std::vector<PreparedPrediction> prepared;
  std::uint64_t seed = 20;
  for (const char* function : {"NAND2", "NAND3"}) {
    for (int copy = 0; copy < 2; ++copy) {
      const Cell cell = build_function(function, tech, {1, StructureVariant::kWide}, ++seed).cell;
      prepared.push_back(prepare_prediction(cell, canonicalize(cell),
                                            StimulusPolicy::kExhaustivePairs, SimConfig{},
                                            shared_store().matrix_options(),
                                            enumerate_defects(cell)));
    }
  }
  std::size_t checked = 0;
  for (const GroupKey& key : shared_store().group_keys()) {
    const RandomForest* trained = shared_store().forest_for(key);
    ASSERT_NE(trained, nullptr);
    std::vector<const PreparedPrediction*> members;
    std::string expected;
    for (const PreparedPrediction& p : prepared) {
      const CaMatrix& m = p.matrix;
      if (m.num_features() != trained->num_features()) continue;
      members.push_back(&p);
      const ProductVotes want =
          row_wise_votes(*trained, m.features().data(), m.num_rows(), m.num_features());
      expected += hexfloats(want.proba) + hexfloats(want.margin);
    }
    ASSERT_FALSE(members.empty());
    const auto factored = [&](const Classifier& c, std::size_t jobs) {
      std::string out;
      for (const ProductVotes& v : parallel_map(members, jobs, [&](const PreparedPrediction* p) {
             return c.predict_product(p->product());
           })) {
        out += hexfloats(v.proba) + hexfloats(v.margin);
      }
      return out;
    };
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(factored(*trained, jobs), expected) << "trained, jobs=" << jobs;
      EXPECT_EQ(factored(*mapped.classifier_for(key), jobs), expected) << "mapped, jobs=" << jobs;
      EXPECT_EQ(factored(*materialized.classifier_for(key), jobs), expected)
          << "materialized, jobs=" << jobs;
    }
    checked += members.size();
  }
  EXPECT_EQ(checked, prepared.size()) << "every prepared cell belongs to a stored group";
}

TEST(BinaryStore, PredictedModelsIdenticalAcrossBackendsAndJobCounts) {
  const std::shared_ptr<const ModelStore> opened = open_model_store(shared_binary_path());
  ASSERT_NE(dynamic_cast<const MappedModelStore*>(opened.get()), nullptr)
      << "open_model_store must pick the mmap path for a binary store";

  const Technology tech = technology_28soi();
  std::vector<Cell> targets;
  targets.push_back(build_function("NAND2", tech, {1, StructureVariant::kWide}, 9).cell);
  targets.push_back(build_function("NAND3", tech, {1, StructureVariant::kWide}, 10).cell);
  targets.push_back(build_function("NAND2", tech, {1, StructureVariant::kWide}, 11).cell);

  const auto predict_all = [&](const ModelStore& s, std::size_t jobs) {
    return parallel_map(targets, jobs, [&](const Cell& cell) {
      const CanonicalCell canon = canonicalize(cell);
      const StimulusPolicy policy = cell.num_inputs() <= 4
                                        ? StimulusPolicy::kExhaustivePairs
                                        : StimulusPolicy::kSingleInputChange;
      return ca_model_to_string(s.predict(cell, canon, policy, SimConfig{}), cell);
    });
  };

  const std::vector<std::string> expected = predict_all(shared_store(), 1);
  EXPECT_EQ(predict_all(*opened, 1), expected);
  EXPECT_EQ(predict_all(*opened, 4), expected);
  EXPECT_EQ(predict_all(MappedModelStore::open(shared_binary_path()).materialize(), 4),
            expected);
}

// ---------------------------------------------------------------------------
// Adversarial inputs

/// Expects MappedModelStore::open (both verify modes where applicable)
/// to reject `path` with a ParseError naming the file.
void expect_rejected(const std::string& path, const char* what_case) {
  try {
    MappedModelStore::open(path);
    FAIL() << what_case << ": corrupt store was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << what_case << ": error must name the file: " << e.what();
  } catch (const Error& e) {
    // Unmappable (e.g. empty) files surface as plain Errors naming the
    // file — also a structured rejection.
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(BinaryStore, TruncationSweepAlwaysRejectsStructurally) {
  const std::string bytes = slurp(shared_binary_path());
  const std::string dir = temp_dir("truncate");
  const std::string victim = dir + "/truncated.bin.caml";
  // Cut at the interesting boundaries plus a spread through the body.
  std::vector<std::size_t> cuts = {0, 1, 5, 20, 40};
  const std::size_t header_end = bytes.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  for (const std::size_t d : {0, 1, 32, 63, 64, 65, 96, 127, 128}) {
    if (header_end + 1 + d < bytes.size()) cuts.push_back(header_end + 1 + d);
  }
  for (std::size_t c = 0; c < bytes.size() - 1; c += bytes.size() / 37 + 1) cuts.push_back(c);
  cuts.push_back(bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    spit(victim, bytes.substr(0, cut));
    expect_rejected(victim, "truncation");
  }
}

TEST(BinaryStore, FlippedByteSweepAlwaysRejects) {
  const std::string bytes = slurp(shared_binary_path());
  const std::string dir = temp_dir("flip");
  const std::string victim = dir + "/flipped.bin.caml";
  // Every byte of the container header + binary header + index, then a
  // stride through the data section (CRC-32 catches any single flip; the
  // sweep proves the *reporting* path is a ParseError, not UB).
  std::vector<std::size_t> offsets;
  const std::size_t dense_end = std::min<std::size_t>(bytes.size(), 256);
  for (std::size_t i = 0; i < dense_end; ++i) offsets.push_back(i);
  for (std::size_t i = dense_end; i < bytes.size(); i += bytes.size() / 53 + 1) {
    offsets.push_back(i);
  }
  offsets.push_back(bytes.size() - 1);
  for (const std::size_t at : offsets) {
    SCOPED_TRACE("flip at=" + std::to_string(at));
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x40);
    spit(victim, mutated);
    expect_rejected(victim, "flipped byte");
  }
}

/// Rebuilds a syntactically consistent container around a mutated binary
/// payload: container CRC, index CRC and data CRC are all recomputed, so
/// only the structural validation can catch the mutation — the
/// adversarial (crafted file) case, not the bit-rot case.
std::string reframe_with_fixed_crcs(std::string payload) {
  using store::kBinHeaderBytes;
  EXPECT_GE(payload.size(), kBinHeaderBytes) << "payload too short to reframe";
  if (payload.size() < kBinHeaderBytes) {
    return io::frame_checksummed(store::kBinaryStoreKind, payload);
  }
  std::uint32_t group_count = 0;
  std::memcpy(&group_count, payload.data() + 24, 4);
  std::uint64_t data_offset = 0;
  std::memcpy(&data_offset, payload.data() + 40, 8);
  const std::uint64_t index_bytes =
      static_cast<std::uint64_t>(group_count) * store::kIndexEntryBytes;
  if (kBinHeaderBytes + index_bytes <= payload.size()) {
    const std::uint32_t index_crc = io::crc32(
        std::string_view(payload).substr(kBinHeaderBytes, index_bytes));
    std::memcpy(payload.data() + 48, &index_crc, 4);
  }
  if (data_offset <= payload.size()) {
    const std::uint32_t data_crc =
        io::crc32(std::string_view(payload).substr(data_offset));
    std::memcpy(payload.data() + 52, &data_crc, 4);
  }
  const std::uint64_t payload_size = payload.size();
  std::memcpy(payload.data() + 16, &payload_size, 8);
  return io::frame_checksummed(store::kBinaryStoreKind, payload);
}

class CraftedStore : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string bytes = slurp(shared_binary_path());
    const std::size_t header_end = bytes.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    payload_ = bytes.substr(header_end + 1);
    dir_ = temp_dir("crafted");
  }

  void expect_crafted_rejected(std::string payload, const char* what_case) {
    const std::string victim = dir_ + "/" + what_case + ".bin.caml";
    spit(victim, reframe_with_fixed_crcs(std::move(payload)));
    expect_rejected(victim, what_case);
  }

  std::string payload_;
  std::string dir_;
};

TEST_F(CraftedStore, RejectsOutOfBoundsAndInconsistentSections) {
  using store::kBinHeaderBytes;

  {  // Index entry: forest_offset pointing far out of bounds.
    std::string p = payload_;
    const std::uint64_t bogus = p.size() + 4096;
    std::memcpy(p.data() + kBinHeaderBytes + 8, &bogus, 8);
    expect_crafted_rejected(std::move(p), "oob_forest_offset");
  }
  {  // Index entry: forest_size running past the payload end.
    std::string p = payload_;
    const std::uint64_t bogus = p.size();
    std::memcpy(p.data() + kBinHeaderBytes + 16, &bogus, 8);
    expect_crafted_rejected(std::move(p), "oob_forest_size");
  }
  {  // Index entry: declared tree count inconsistent with the section.
    std::string p = payload_;
    const std::uint32_t bogus = 200;
    std::memcpy(p.data() + kBinHeaderBytes + 24, &bogus, 4);
    expect_crafted_rejected(std::move(p), "tree_count_mismatch");
  }
  {  // Tree header: node_count inconsistent with the section length.
    std::string p = payload_;
    std::uint64_t data_offset = 0;
    std::memcpy(&data_offset, p.data() + 40, 8);
    std::uint64_t node_count = 0;
    std::memcpy(&node_count, p.data() + data_offset, 8);
    node_count += 7;
    std::memcpy(p.data() + data_offset, &node_count, 8);
    expect_crafted_rejected(std::move(p), "node_count_mismatch");
  }
  {  // Header: data_offset not matching the index extent.
    std::string p = payload_;
    std::uint64_t data_offset = 0;
    std::memcpy(&data_offset, p.data() + 40, 8);
    data_offset += 32;
    std::memcpy(p.data() + 40, &data_offset, 8);
    expect_crafted_rejected(std::move(p), "data_offset_mismatch");
  }
  {  // Header: group count beyond the payload.
    std::string p = payload_;
    const std::uint32_t bogus = 0x00FFFFFF;
    std::memcpy(p.data() + 24, &bogus, 4);
    expect_crafted_rejected(std::move(p), "oob_group_count");
  }
}

TEST_F(CraftedStore, RejectsMalformedNodes) {
  std::uint64_t data_offset = 0;
  std::memcpy(&data_offset, payload_.data() + 40, 8);
  // First tree of the first forest; its nodes start after the header.
  std::uint64_t node_count = 0;
  std::memcpy(&node_count, payload_.data() + data_offset, 8);
  ASSERT_GT(node_count, 1u) << "shared store's first tree is unexpectedly a stump";
  const std::size_t nodes_at = data_offset + store::kTreeHeaderBytes;

  {  // Root's left child index far out of range.
    std::string p = payload_;
    const std::int32_t bogus = static_cast<std::int32_t>(node_count) + 5;
    std::memcpy(p.data() + nodes_at + 0, &bogus, 4);
    expect_crafted_rejected(std::move(p), "child_out_of_range");
  }
  {  // Root's right child pointing backward (cycle).
    std::string p = payload_;
    const std::int32_t bogus = 0;
    std::memcpy(p.data() + nodes_at + 4, &bogus, 4);
    expect_crafted_rejected(std::move(p), "child_cycle");
  }
  {  // Root's feature index beyond the group's feature count.
    std::string p = payload_;
    const std::uint16_t bogus = 0xFFFF;
    std::memcpy(p.data() + nodes_at + 8, &bogus, 2);
    expect_crafted_rejected(std::move(p), "feature_out_of_range");
  }
  {  // Version bump is rejected, not misparsed.
    std::string p = payload_;
    const std::uint32_t v2 = 2;
    std::memcpy(p.data() + 12, &v2, 4);
    expect_crafted_rejected(std::move(p), "future_version");
  }
  {  // Foreign byte order is rejected via the endian tag.
    std::string p = payload_;
    const std::uint32_t swapped = 0x04030201;
    std::memcpy(p.data() + 8, &swapped, 4);
    expect_crafted_rejected(std::move(p), "endian_mismatch");
  }
}

TEST(BinaryStore, RejectsWrongContainerKind) {
  // A perfectly valid *text* store container must not open as binary.
  const std::string dir = temp_dir("kind");
  const std::string text = dir + "/models.caml";
  shared_store().save_file(text);
  EXPECT_FALSE(is_binary_store_file(text));
  expect_rejected(text, "text container as binary");
  // And open_model_store routes it to the text loader instead.
  EXPECT_EQ(open_model_store(text)->num_groups(), shared_store().num_groups());
}

// ---------------------------------------------------------------------------
// Serve end-to-end on a mapped store

std::string temp_socket(const char* tag) {
  return (fs::temp_directory_path() /
          ("caml_store_srv_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
      .string();
}

TEST(BinaryStore, ServeAnswersIdenticallyFromMappedStore) {
  const Technology tech = technology_28soi();
  const Cell target = build_function("NAND2", tech, {1, StructureVariant::kWide}, 9).cell;
  const std::string netlist = SpiceWriter().to_string(target);
  const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
  ASSERT_EQ(parsed.size(), 1u);
  const std::string expected = ca_model_to_string(
      shared_store().predict(parsed.front(), canonicalize(parsed.front()),
                             PolicyProfile{}.policy_for(parsed.front().num_inputs()),
                             SimConfig{}),
      parsed.front());

  serve::ServerOptions options;
  options.socket_path = temp_socket("mapped");
  options.jobs = 2;
  serve::Server server(open_model_store(shared_binary_path()), options);
  server.start();

  serve::ClientOptions copts;
  copts.socket_path = options.socket_path;
  serve::Client client(copts);
  EXPECT_EQ(client.predict_cell(netlist), expected)
      << "daemon on a mapped store must answer byte-identically";

  // Hot reload onto a fresh mapping keeps answers identical; a corrupt
  // replacement never reaches reload() (open throws first), so the old
  // mapping keeps serving — the SIGHUP failure path of `caml serve`.
  server.reload(open_model_store(shared_binary_path()));
  EXPECT_EQ(client.predict_cell(netlist), expected);

  const std::string dir = temp_dir("reload");
  const std::string corrupt = dir + "/corrupt.bin.caml";
  std::string bytes = slurp(shared_binary_path());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  spit(corrupt, bytes);
  EXPECT_THROW(open_model_store(corrupt), ParseError);
  EXPECT_EQ(client.predict_cell(netlist), expected)
      << "failed reload must leave the serving store untouched";

  server.stop();
}

// ---------------------------------------------------------------------------
// Mapping faults: truncation under an active mapping

TEST(BinaryStore, TruncationUnderMappingFaultsStructurally) {
  // The store file shrinks under an active mapping (rotation gone wrong,
  // a partial copy over the live file): healthy() flags the size change,
  // and touching the vanished pages raises SIGBUS which the guard
  // converts into a structured io::MappingFault — never a dead process.
  const std::string dir = temp_dir("sigbus");
  const std::string victim = dir + "/live.bin.caml";
  const std::string pristine = slurp(shared_binary_path());
  ASSERT_GT(pristine.size(), std::size_t{100 * 4096})
      << "store file too small to guarantee pages past the truncation point";
  spit(victim, pristine);

  const MappedModelStore mapped =
      MappedModelStore::open(victim, MappedModelStore::Verify::kMapOnly);
  EXPECT_TRUE(mapped.healthy());

  const GroupKey key = shared_store().group_keys().front();
  const RandomForest* trained = shared_store().forest_for(key);
  ASSERT_NE(trained, nullptr);
  const std::size_t features = trained->num_features();
  const std::vector<std::int8_t> rows = make_rows(64, features);
  const auto* view = dynamic_cast<const MappedForest*>(mapped.classifier_for(key));
  ASSERT_NE(view, nullptr);
  // Baseline: the mapping answers normally before the truncation.
  EXPECT_EQ(view->predict_batch(rows.data(), 64, features).size(), 64u);

  // Shrink the backing file to one page: the node arrays live far past
  // the new EOF, so traversal faults on first touch.
  ASSERT_EQ(::truncate(victim.c_str(), 4096), 0);
  EXPECT_FALSE(mapped.healthy()) << "size revalidation must flag the truncation";
  EXPECT_THROW(view->predict_batch(rows.data(), 64, features), io::MappingFault)
      << "SIGBUS must surface as a structured fault, not kill the process";
  EXPECT_THROW(view->predict(rows.data()), io::MappingFault)
      << "SIGBUS in a one-row walk must surface as a structured fault";
  // The factored walk runs under the same guard (as an 8 × 8 product of
  // the same rows: stimulus s from row s, defect d from row 8·d).
  const ProductView product{rows.data(), features, features / 2, 8, 8};
  EXPECT_THROW(view->predict_product(product), io::MappingFault)
      << "SIGBUS in the factored walk must surface as a structured fault";
}

TEST(BinaryStore, ServerRecoversFromStoreFaultViaRefresh) {
  // End to end: the serving store's backing file is truncated in place.
  // The in-flight request fails INTERNAL (not silently garbage), the
  // server's refresh callback restores + re-opens the file, and the very
  // next request is answered byte-identically — the daemon never dies.
  const std::string dir = temp_dir("refresh");
  const std::string victim = dir + "/live.bin.caml";
  const std::string pristine = slurp(shared_binary_path());
  spit(victim, pristine);

  const Technology tech = technology_28soi();
  const Cell target = build_function("NAND2", tech, {1, StructureVariant::kWide}, 9).cell;
  const std::string netlist = SpiceWriter().to_string(target);
  const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
  const std::string expected = ca_model_to_string(
      shared_store().predict(parsed.front(), canonicalize(parsed.front()),
                             PolicyProfile{}.policy_for(parsed.front().num_inputs()),
                             SimConfig{}),
      parsed.front());

  serve::ServerOptions options;
  options.socket_path = temp_socket("refresh");
  options.jobs = 1;  // one worker: fault -> recovery -> next batch is serial
  serve::Server server(open_model_store(victim), options);
  server.set_store_refresh([victim, pristine]() -> std::shared_ptr<const ModelStore> {
    // Source-of-truth repair: put the pristine bytes back, then re-open.
    std::ofstream os(victim, std::ios::binary | std::ios::trunc);
    os.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
    os.flush();
    return open_model_store(victim);
  });
  server.start();

  serve::ClientOptions copts;
  copts.socket_path = options.socket_path;
  serve::Client client(copts);
  EXPECT_EQ(client.predict_cell(netlist), expected);

  // Pull the rug: shrink the live file under the serving mapping.
  ASSERT_EQ(::truncate(victim.c_str(), 4096), 0);
  try {
    client.predict_cell(netlist);
    FAIL() << "predict against a faulted mapping must fail INTERNAL";
  } catch (const serve::RemoteError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::kInternal) << e.what();
  }

  // Recovery already ran (the worker repairs before publishing the
  // INTERNAL answer): the next request must be answered correctly.
  EXPECT_EQ(client.predict_cell(netlist), expected)
      << "refresh callback must restore byte-identical serving";
  const serve::StatsSnapshot stats = server.stats();
  EXPECT_GE(stats.store_faults, 1u);
  EXPECT_GE(stats.reloads, 1u) << "recovery swaps the fresh store in via reload";
  server.stop();
}

TEST(BinaryStore, ReloadRacesInflightBatchesOnMappedStore) {
  // SIGHUP reload storms while pipelined batches are in flight on a
  // mapped store: every in-flight batch finishes on the snapshot it
  // started with (the old mapping stays alive until its last batch
  // drops the shared_ptr), so every answer stays byte-identical.
  const Technology tech = technology_28soi();
  std::vector<std::string> netlists;
  std::vector<std::string> expected;
  for (unsigned seed : {31u, 32u, 33u, 34u}) {
    const Cell cell = build_function("NAND2", tech, {1, StructureVariant::kWide}, seed).cell;
    const std::string netlist = SpiceWriter().to_string(cell);
    const std::vector<Cell> parsed = SpiceParser().parse_string(netlist);
    expected.push_back(ca_model_to_string(
        shared_store().predict(parsed.front(), canonicalize(parsed.front()),
                               PolicyProfile{}.policy_for(parsed.front().num_inputs()),
                               SimConfig{}),
        parsed.front()));
    netlists.push_back(netlist);
  }
  // 12 requests total, pipelined 8-deep against 2 workers.
  std::vector<std::string> batch;
  std::vector<std::string> want;
  for (int rep = 0; rep < 3; ++rep) {
    batch.insert(batch.end(), netlists.begin(), netlists.end());
    want.insert(want.end(), expected.begin(), expected.end());
  }

  serve::ServerOptions options;
  options.socket_path = temp_socket("reloadrace");
  options.jobs = 2;
  serve::Server server(open_model_store(shared_binary_path()), options);
  server.start();

  // Reload storm: fresh mappings of the same file swap in mid-batch.
  // The batch starts only once the storm has begun, so a reloader thread
  // scheduled late on a loaded machine cannot miss the batch entirely.
  std::atomic<bool> done{false};
  std::atomic<bool> storming{false};
  std::thread reloader([&] {
    while (!done.load()) {
      server.reload(open_model_store(shared_binary_path()));
      storming.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!storming.load()) std::this_thread::yield();

  serve::ClientOptions copts;
  copts.socket_path = options.socket_path;
  serve::Client client(copts);
  const std::vector<serve::BatchResult> results = client.predict_cells(batch, 8);
  done.store(true);
  reloader.join();

  ASSERT_EQ(results.size(), want.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "request " << i;
    EXPECT_EQ(results[i].payload, want[i]) << "request " << i;
  }
  EXPECT_GE(server.stats().reloads, 1u);
  server.stop();
}

}  // namespace
}  // namespace caml
