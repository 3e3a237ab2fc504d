// ncl_perfbench — run one benchmark workload and print its result.
//
//   ncl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-dir DIR] [--source ID]
//
// Prints human-readable notes, one `# provenance {...}` line, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones. Exits non-zero, printing no result, when the run cannot be made.
// Normally started through perfbench/run.py, which builds it first.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "ncl_perfbench: " << why << "\n"
            << "usage: ncl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-dir DIR] "
               "[--source ID]\n";
  return 2;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = {
      {"seed", "1"},          {"seconds", "10"},
      {"trace", "0"},         {"work-dir", ".bench_build/work"},
      {"trace-dir", ""},      {"source", "unknown"}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return Usage("bad argument " + arg);
    flags[arg.substr(2)] = argv[++i];
  }
  if (!flags.contains("workload")) return Usage("--workload is required");

  perfbench::RunOptions options;
  try {
    options.workload = flags.at("workload");
    options.seed = std::stoull(flags.at("seed"));
    options.seconds = std::stod(flags.at("seconds"));
    options.trace = std::stoi(flags.at("trace")) != 0;
  } catch (const std::exception&) {
    return Usage("malformed numeric flag");
  }
  // A private scratch directory per process, removed on exit.
  options.work_dir = flags.at("work-dir") + "/" + std::to_string(::getpid());
  if (options.trace && !flags.at("trace-dir").empty()) {
    std::filesystem::create_directories(flags.at("trace-dir"));
    options.trace_path = flags.at("trace-dir") + "/" + options.workload + "-seed" +
                         std::to_string(options.seed) + ".json";
  }

  auto result = perfbench::RunWorkload(options);
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (!result.ok()) {
    std::cerr << "ncl_perfbench: " << result.status().ToString() << "\n";
    return 1;
  }

  for (const std::string& line : result->notes) std::cout << "# " << line << "\n";
  std::ostringstream out;
  out.precision(17);
  out << "# provenance {\"source\": \"" << Escape(flags.at("source")) << "\"";
  for (const auto& [key, value] : result->provenance) {
    out << ", \"" << key << "\": " << value;
  }
  out << "}\n";
  out << "{\"correct\": " << (result->correct ? "true" : "false")
      << ", \"attempted\": " << result->attempted
      << ", \"failed\": " << result->failed << ", \"metrics\": {";
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const perfbench::Metric& m = result->metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
  return 0;
}
