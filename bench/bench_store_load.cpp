// E14 — model-store load path: text parse vs. binary mmap.
//
// Two measurements back the binary store's design claims:
//
//   * load scaling: synthetic stores (4 groups x 20 complete binary
//     trees, node count per tree swept 1x/16x/64x) are saved as both the
//     text interchange format and the binary section, then timed:
//     GroupModelStore::load_file (read + CRC + parse + tree build) vs
//     MappedModelStore::open in kFull (mmap + CRC + structural node
//     validation) and kMapOnly (mmap + header/index/section walk only —
//     the O(header+index) open, independent of forest node counts).
//     first_answer adds one batched classification on the opened store,
//     proving the mapping serves immediately (no warm-up parse).
//   * serve cold start: wall time from `open store` to `first answered
//     prediction` through a real in-process daemon, text vs binary
//     backend, on a trained NAND2 store.
//
// Output: a load table (one row per scale) and the two cold-start
// times. Exit status 1 unless every design claim holds:
//   * the mapped and the text-loaded store answer with byte-identical
//     hexfloat probabilities;
//   * the largest store has at least 10x the nodes of the 1x store;
//   * across that growth, the map-only open grows less than 5x (it is
//     O(header+index), the slack absorbs page-fault noise);
//   * at the largest scale the map-only open is at least 10x faster
//     than the text parse.
// --quick shrinks the sweep to a seconds-scale smoke.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "libgen/builder.hpp"
#include "ml/forest_view.hpp"
#include "netlist/spice_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/binary_store.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace caml;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Complete binary tree of `depth` levels (2^depth - 1 nodes): node i is
/// internal iff both children 2i+1/2i+2 exist — the same
/// forward-pointing shape CART emits, at a size we control exactly.
DecisionTree make_synthetic_tree(std::size_t depth, std::size_t num_features,
                                 std::uint64_t salt) {
  const std::size_t n = (std::size_t{1} << depth) - 1;
  std::vector<DecisionTree::NodeRecord> records(n);
  for (std::size_t i = 0; i < n; ++i) {
    DecisionTree::NodeRecord& r = records[i];
    if (2 * i + 2 < n) {
      r.left = static_cast<std::int32_t>(2 * i + 1);
      r.right = static_cast<std::int32_t>(2 * i + 2);
      r.feature = static_cast<std::uint16_t>((i + salt) % num_features);
      r.threshold = static_cast<std::int8_t>(static_cast<int>((i + salt) % 3) - 1);
    } else {
      r.count0 = (i * 31 + salt) % 97;
      r.count1 = (i * 17 + salt) % 89;
    }
  }
  return DecisionTree::from_records(records, num_features);
}

GroupModelStore make_synthetic_store(std::size_t tree_depth) {
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kTrees = 20;
  constexpr std::size_t kFeatures = 12;
  std::map<GroupKey, RandomForest> models;
  for (std::size_t g = 0; g < kGroups; ++g) {
    std::vector<DecisionTree> trees;
    trees.reserve(kTrees);
    for (std::size_t t = 0; t < kTrees; ++t) {
      trees.push_back(make_synthetic_tree(tree_depth, kFeatures, g * 1000 + t));
    }
    models.emplace(GroupKey{2 + g, 4 + 2 * g},
                   RandomForest::assemble(std::move(trees), kFeatures));
  }
  return GroupModelStore::assemble(std::move(models), MatrixOptions{});
}

std::vector<std::int8_t> make_rows(std::size_t n, std::size_t features) {
  std::vector<std::int8_t> rows(n * features);
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::int8_t& v : rows) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::int8_t>(static_cast<int>(x % 3) - 1);
  }
  return rows;
}

std::string hexfloat_probas(const std::vector<double>& probas) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const double p : probas) os << p << '\n';
  return os.str();
}

/// Class-1 probabilities of 12-feature probe rows from one forest walk.
std::vector<double> probas(const Classifier& forest, const std::vector<std::int8_t>& probe) {
  return forest.predict_product(ProductView::row_block(probe.data(), probe.size() / 12, 12))
      .proba;
}

/// Median of `reps` timed runs of `fn` (microseconds).
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(us_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct LoadRow {
  std::size_t scale = 1;
  std::size_t nodes_per_tree = 0;
  std::uintmax_t text_bytes = 0;
  std::uintmax_t bin_bytes = 0;
  double text_load_us = 0.0;
  double bin_open_full_us = 0.0;
  double bin_open_map_us = 0.0;
  double first_answer_us = 0.0;
};

GroupModelStore make_trained_store() {
  LibraryComposition comp;
  comp.functions = {"NAND2"};
  comp.drives = {{1, StructureVariant::kWide}};
  comp.flavors = {{"", 1.0}};
  const Library lib = build_library(technology_28soi(), comp);
  const std::vector<CharacterizedCell> training =
      characterize_library(lib, CharacterizeOptions{});
  MlOptions ml;
  ml.forest.num_trees = 8;
  return GroupModelStore::train(training, ml);
}

double serve_cold_start_us(const std::string& store_path, const std::string& netlist,
                           const char* tag) {
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("caml_bench_store_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
          .string();
  const auto t0 = Clock::now();
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = 2;
  serve::Server server(store::open_model_store(store_path), options);
  server.start();
  serve::ClientOptions copts;
  copts.socket_path = socket_path;
  serve::Client client(copts);
  const std::string answer = client.predict_cell(netlist);
  const double us = us_since(t0);
  if (answer.empty()) std::cerr << "warning: empty first answer\n";
  server.stop();
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::string work =
      (std::filesystem::temp_directory_path() /
       ("caml_bench_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(work);

  // Depth 10 = 1023 nodes/tree (~2.6 MB store); each +2 depth is 4x.
  const std::size_t base_depth = 10;
  const std::vector<std::size_t> scales = quick ? std::vector<std::size_t>{1, 16}
                                                : std::vector<std::size_t>{1, 16, 64};
  const int reps = quick ? 3 : 7;

  std::cout << "model-store load: text parse vs binary mmap"
            << (quick ? " (--quick)" : "") << "\n\n";

  std::vector<LoadRow> rows;
  for (const std::size_t scale : scales) {
    std::size_t depth = base_depth;
    for (std::size_t s = scale; s > 1; s /= 4) depth += 2;
    const GroupModelStore synthetic = make_synthetic_store(depth);
    const std::string text_path = work + "/store_" + std::to_string(scale) + "x.caml";
    const std::string bin_path = work + "/store_" + std::to_string(scale) + "x.bin.caml";
    synthetic.save_file(text_path);
    store::write_binary_store_file(bin_path, synthetic);

    LoadRow row;
    row.scale = scale;
    row.nodes_per_tree = (std::size_t{1} << depth) - 1;
    row.text_bytes = std::filesystem::file_size(text_path);
    row.bin_bytes = std::filesystem::file_size(bin_path);
    row.text_load_us =
        median_us(reps, [&] { GroupModelStore::load_file(text_path); });
    row.bin_open_full_us = median_us(reps, [&] {
      store::MappedModelStore::open(bin_path, store::MappedModelStore::Verify::kFull);
    });
    row.bin_open_map_us = median_us(reps, [&] {
      store::MappedModelStore::open(bin_path, store::MappedModelStore::Verify::kMapOnly);
    });
    // Open (map-only) + one batched answer straight off the cold mapping.
    const std::vector<std::int8_t> probe = make_rows(64, 12);
    row.first_answer_us = median_us(reps, [&] {
      const store::MappedModelStore mapped = store::MappedModelStore::open(
          bin_path, store::MappedModelStore::Verify::kMapOnly);
      const Classifier* clf = mapped.classifier_for(GroupKey{2, 4});
      if (clf == nullptr) std::abort();
      clf->predict_batch(probe.data(), 64, 12);
    });
    rows.push_back(row);
  }

  TextTable table;
  table.new_row();
  table.cell("scale");
  table.cell("nodes/tree");
  table.cell("text MB");
  table.cell("bin MB");
  table.cell("text load ms");
  table.cell("open full ms");
  table.cell("open map ms");
  table.cell("first answer ms");
  table.cell("text/map");
  for (const LoadRow& row : rows) {
    table.new_row();
    table.cell(std::to_string(row.scale) + "x");
    table.cell(static_cast<long long>(row.nodes_per_tree));
    table.cell(static_cast<double>(row.text_bytes) / (1024.0 * 1024.0), 1);
    table.cell(static_cast<double>(row.bin_bytes) / (1024.0 * 1024.0), 1);
    table.cell(row.text_load_us / 1000.0, 2);
    table.cell(row.bin_open_full_us / 1000.0, 2);
    table.cell(row.bin_open_map_us / 1000.0, 2);
    table.cell(row.first_answer_us / 1000.0, 2);
    table.cell(row.bin_open_map_us > 0 ? row.text_load_us / row.bin_open_map_us : 0.0, 1);
  }
  table.print(std::cout);
  std::cout << "\n";

  const LoadRow& base = rows.front();
  const LoadRow& largest = rows.back();
  const double node_growth = static_cast<double>(largest.nodes_per_tree) /
                             static_cast<double>(base.nodes_per_tree);
  const double open_growth = largest.bin_open_map_us / std::max(base.bin_open_map_us, 1.0);
  const bool sweep_ok = node_growth >= 10.0;
  const bool open_flat = open_growth < 5.0;
  const bool open_fast = largest.bin_open_map_us * 10.0 < largest.text_load_us;
  std::cout << "node growth " << base.scale << "x -> " << largest.scale
            << "x: " << format_fixed(node_growth, 0)
            << "x (gate >= 10x): " << (sweep_ok ? "yes" : "NO") << '\n'
            << "map-only open growth over it: " << format_fixed(open_growth, 2)
            << "x (gate < 5x): " << (open_flat ? "yes" : "NO — OPEN TRACKS FOREST SIZE") << '\n'
            << "map-only open at " << largest.scale << "x is >= 10x faster than text parse: "
            << (open_fast ? "yes" : "NO") << "\n\n";

  // Identity: the mapped store and the text-loaded store answer with the
  // same bits (hexfloat compare over every group of the largest store).
  bool identical = true;
  {
    const std::size_t scale = scales.back();
    const std::string text_path = work + "/store_" + std::to_string(scale) + "x.caml";
    const std::string bin_path = work + "/store_" + std::to_string(scale) + "x.bin.caml";
    const GroupModelStore loaded = GroupModelStore::load_file(text_path);
    const store::MappedModelStore mapped = store::MappedModelStore::open(bin_path);
    const std::vector<std::int8_t> probe = make_rows(128, 12);
    for (const GroupKey& key : loaded.group_keys()) {
      const auto* text_forest = dynamic_cast<const RandomForest*>(loaded.classifier_for(key));
      const auto* map_forest = dynamic_cast<const MappedForest*>(mapped.classifier_for(key));
      if (text_forest == nullptr || map_forest == nullptr) {
        identical = false;
        break;
      }
      identical = identical &&
                  hexfloat_probas(probas(*text_forest, probe)) ==
                      hexfloat_probas(probas(*map_forest, probe));
    }
  }
  std::cout << "predictions identical across load paths: " << (identical ? "yes" : "NO")
            << "\n\n";

  // Serve cold start on a real trained store, text vs binary backend.
  std::cout << "serve cold start (open store -> first answered prediction):\n";
  const GroupModelStore trained = make_trained_store();
  const std::string trained_text = work + "/nand2.caml";
  const std::string trained_bin = work + "/nand2.bin.caml";
  trained.save_file(trained_text);
  store::write_binary_store_file(trained_bin, trained);
  LibraryComposition comp;
  comp.functions = {"NAND2"};
  comp.drives = {{1, StructureVariant::kWide}};
  comp.flavors = {{"", 1.0}};
  const Library lib = build_library(technology_28soi(), comp);
  const std::string netlist = SpiceWriter().to_string(lib.cells.front().cell);
  const double text_cold = serve_cold_start_us(trained_text, netlist, "text");
  const double bin_cold = serve_cold_start_us(trained_bin, netlist, "bin");
  std::cout << "  text backend:   " << format_fixed(text_cold / 1000.0, 2) << " ms\n"
            << "  binary backend: " << format_fixed(bin_cold / 1000.0, 2) << " ms\n";

  std::filesystem::remove_all(work);
  return (identical && sweep_ok && open_flat && open_fast) ? 0 : 1;
}
