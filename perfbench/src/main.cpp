// perfbench_harness: runs one benchmark workload against the project's
// public API and prints the result line. Normally started by run.py,
// which builds it first; see perfbench/README.md for the workloads,
// metrics and output format.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    --jobs N --work-dir DIR --caml PATH
//                    --serve-rate R
//                    [--smoke] [--git-sha SHA] [--source-digest HEX]

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "util/log.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench_harness: " << error << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") options.workload = v;
      else if (a == "--seed") options.seed = std::stoull(v);
      else if (a == "--seconds") options.seconds = std::stod(v);
      else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (a == "--jobs") options.jobs = std::stoul(v);
      else if (a == "--work-dir") options.work_dir = v;
      else if (a == "--caml") options.caml_binary = v;
      else if (a == "--serve-rate") options.serve_rate = std::stod(v);
      else if (a == "--git-sha") git_sha = v;
      else if (a == "--source-digest") source_digest = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + a);
    }
  }
  if (options.workload.empty() || !have_trace || options.work_dir.empty()) {
    usage("--workload, --trace and --work-dir are required");
  }
  if (options.jobs == 0 || options.seconds <= 0.0) usage("--jobs and --seconds must be > 0");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "# perfbench workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << " smoke=" << options.smoke << " build_type=" << build_type
            << " nproc=" << options.jobs << " compiler=\"" << PERFBENCH_COMPILER << "\""
            << " git_sha=" << git_sha << " source_digest=" << source_digest << std::endl;
#ifndef NDEBUG
  const bool assertions_on = true;
#else
  const bool assertions_on = false;
#endif
  if (build_type != "Release" || assertions_on) {
    std::cerr << "perfbench_harness: refusing to report from a non-Release build (build type '"
              << build_type << "')\n";
    return 3;
  }

  caml::Log::set_level(caml::LogLevel::kWarn);
  try {
    std::filesystem::create_directories(options.work_dir);
    Ledger ledger(options.trace);
    Result result;
    if (options.workload == "characterize") result = run_characterize(options, ledger);
    else if (options.workload == "learn") result = run_learn(options, ledger);
    else if (options.workload == "serve_mixed") result = run_serve(options, ledger);
    else usage("unknown workload " + options.workload);
    if (options.trace) {
      fill_missing_layers(result);
      const std::string trace_path = options.work_dir + "/trace.json";
      ledger.write_chrome_trace(trace_path);
      std::cerr << "perfbench: spans written to " << trace_path << '\n';
    }
    std::cout << result_json(result, options.trace) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
