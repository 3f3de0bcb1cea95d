#include "bench_support.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "camodel/model_io.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace caml::bench {

namespace {

using Clock = std::chrono::steady_clock;

StructureVariant variant_from_string(const std::string& s) {
  if (s == "W") return StructureVariant::kWide;
  if (s == "M") return StructureVariant::kMerged;
  if (s == "S") return StructureVariant::kSplit;
  throw Error("bad variant tag: " + s);
}

const char* variant_tag(StructureVariant v) {
  switch (v) {
    case StructureVariant::kWide: return "W";
    case StructureVariant::kMerged: return "M";
    case StructureVariant::kSplit: return "S";
  }
  throw Error("invalid variant");
}

BenchmarkSuite build_suite_for_profile(Profile p) {
  if (p != Profile::kSmoke) return build_benchmark_suite();
  // Smoke: a miniature of the same composition shape.
  const std::vector<std::string> shared = {"INV", "NAND2", "NOR2", "AOI21", "OAI21"};
  BenchmarkSuite suite;
  LibraryComposition soi;
  soi.functions = shared;
  soi.functions.push_back("AND2");
  soi.drives = {{1, StructureVariant::kWide},
                {2, StructureVariant::kMerged},
                {2, StructureVariant::kSplit}};
  soi.flavors = {{"", 1.0}, {"LP", 0.85}};
  suite.soi28 = build_library(technology_28soi(), soi);
  LibraryComposition c40;
  c40.functions = shared;
  c40.functions.push_back("OR2");
  c40.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  c40.flavors = {{"", 1.0}};
  suite.c40 = build_library(technology_c40(), c40);
  LibraryComposition c28;
  c28.functions = shared;
  c28.functions.push_back("XOR2");
  c28.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kSplit}};
  c28.flavors = {{"", 1.0}};
  suite.c28 = build_library(technology_c28(), c28);
  return suite;
}

std::string cache_dir() {
  if (const char* env = std::getenv("CAML_BENCH_CACHE_DIR")) return env;
  return "bench_cache";
}

std::string cache_path(const std::string& library) {
  return cache_dir() + "/" + library + "_" + profile_name(profile()) + ".camlcache";
}

void save_library(const std::string& path, const std::vector<CharacterizedCell>& cells) {
  std::filesystem::create_directories(cache_dir());
  std::ofstream os(path);
  if (!os) return;  // cache is best-effort
  const SpiceWriter writer;
  for (const CharacterizedCell& cell : cells) {
    os << "CELLBEGIN\n";
    os << "META " << cell.source.function << ' ' << cell.source.drive << ' '
       << variant_tag(cell.source.variant) << ' '
       << (cell.source.flavor.empty() ? "-" : cell.source.flavor) << '\n';
    writer.write(os, cell.source.cell);
    write_ca_model(os, cell.model, cell.source.cell);
    os << "CELLEND\n";
  }
}

std::vector<CharacterizedCell> load_library(const std::string& path, const Technology& tech) {
  std::ifstream is(path);
  if (!is) return {};
  std::vector<CharacterizedCell> cells;
  std::string line;
  while (std::getline(is, line)) {
    if (trim(line) != "CELLBEGIN") continue;
    // META line.
    if (!std::getline(is, line)) throw Error("cache truncated: " + path);
    const std::vector<std::string> meta = split(line);
    if (meta.size() != 5 || meta[0] != "META") throw Error("bad cache META in " + path);
    // SPICE block up to .ENDS.
    std::ostringstream spice;
    while (std::getline(is, line)) {
      spice << line << '\n';
      if (starts_with_ci(trim(line), ".ENDS")) break;
    }
    const std::vector<Cell> parsed = SpiceParser().parse_string(spice.str());
    if (parsed.size() != 1) throw Error("bad cache SPICE block in " + path);

    CharacterizedCell cell;
    cell.source.cell = parsed[0];
    cell.source.function = meta[1];
    cell.source.drive = std::stoi(meta[2]);
    cell.source.variant = variant_from_string(meta[3]);
    cell.source.flavor = meta[4] == "-" ? "" : meta[4];
    cell.source.technology = tech.name;
    cell.model = read_ca_model(is, cell.source.cell);
    cell.sim = tech.sim;
    cell.canonical = canonicalize(cell.source.cell, tech.sim);
    cells.push_back(std::move(cell));
    // Consume CELLEND.
    while (std::getline(is, line)) {
      if (trim(line) == "CELLEND") break;
    }
  }
  return cells;
}

/// The cached cells of `library`, or nothing when the cache is missing,
/// unreadable or holds another cell count.
std::optional<std::vector<CharacterizedCell>> read_cache(const std::string& path,
                                                         const Library& library) {
  try {
    std::vector<CharacterizedCell> cached = load_library(path, library.technology);
    if (cached.size() == library.cells.size()) return cached;
  } catch (const Error& e) {
    std::cerr << "[bench] cache for " << library.name << " unusable (" << e.what() << ")\n";
  }
  return std::nullopt;
}

std::vector<CharacterizedCell> characterize_or_load(const Library& library) {
  const std::string path = cache_path(library.name);
  if (std::optional<std::vector<CharacterizedCell>> cached = read_cache(path, library)) {
    std::cerr << "[bench] " << library.name << ": loaded " << cached->size()
              << " cells from cache\n";
    return std::move(*cached);
  }
  const auto t0 = Clock::now();
  std::vector<CharacterizedCell> cells = characterize_library(library, characterize_options());
  std::cerr << "[bench] " << library.name << ": characterized " << cells.size() << " cells in "
            << format_fixed(std::chrono::duration<double>(Clock::now() - t0).count(), 1)
            << " s\n";
  save_library(path, cells);
  // Return what every later (warm) run will load. The SPICE round trip
  // renumbers a cell's nets, which can swap the canonical order of tied
  // transistors and so reorder its CA-matrix rows; training on the
  // in-memory cells would then differ from training on the cached ones.
  if (std::optional<std::vector<CharacterizedCell>> cached = read_cache(path, library)) {
    return std::move(*cached);
  }
  return cells;
}

}  // namespace

Profile profile() {
  static const Profile p = [] {
    const char* env = std::getenv("CAML_BENCH_PROFILE");
    if (!env) return Profile::kFast;
    const std::string v = to_lower(env);
    if (v == "smoke") return Profile::kSmoke;
    if (v == "full") return Profile::kFull;
    if (v == "fast") return Profile::kFast;
    std::cerr << "[bench] unknown CAML_BENCH_PROFILE '" << v << "', using fast\n";
    return Profile::kFast;
  }();
  return p;
}

const char* profile_name(Profile p) {
  switch (p) {
    case Profile::kSmoke: return "smoke";
    case Profile::kFast: return "fast";
    case Profile::kFull: return "full";
  }
  throw Error("invalid Profile");
}

CharacterizeOptions characterize_options() {
  CharacterizeOptions options;
  switch (profile()) {
    case Profile::kSmoke: options.policy.exhaustive_max_inputs = 2; break;
    case Profile::kFast: options.policy.exhaustive_max_inputs = 3; break;
    case Profile::kFull: options.policy.exhaustive_max_inputs = 4; break;
  }
  return options;
}

MlOptions ml_options() {
  MlOptions options;
  switch (profile()) {
    case Profile::kSmoke:
      options.forest.num_trees = 10;
      break;
    case Profile::kFast:
      options.forest.num_trees = 12;
      // Safety valve for the few very large groups; rarely binding.
      options.forest.max_samples_per_tree = 250000;
      break;
    case Profile::kFull:
      options.forest.num_trees = 20;
      break;
  }
  return options;
}

const SuiteData& suite() {
  static const SuiteData data = [] {
    const BenchmarkSuite libraries = build_suite_for_profile(profile());
    SuiteData d;
    d.soi28 = characterize_or_load(libraries.soi28);
    d.c40 = characterize_or_load(libraries.c40);
    d.c28 = characterize_or_load(libraries.c28);
    return d;
  }();
  return data;
}

void print_header(const std::string& experiment) {
  std::cout << "==============================================================\n";
  std::cout << experiment << "\n";
  std::cout << "profile: " << profile_name(profile())
            << " (set CAML_BENCH_PROFILE=smoke|fast|full)\n";
  std::cout << "==============================================================\n";
}

}  // namespace caml::bench
