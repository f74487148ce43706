// perfbench: the repo benchmark's command line.
//
//   perfbench --workload <steady_mix|rollout|overload_open> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a readable report, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. Exits non-zero when
// any response differs from the switch interpreter, any request fails,
// or the run is invalid (layout above nproc, generator behind schedule).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" +
           r.units.at(name) + "\"}";
  }
  return out + "}}";
}

std::string record_json(const RunResult& r) {
  std::string out = "{";
  for (size_t i = 0; i < r.record.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + r.record[i].first + "\": \"" + json_escape(r.record[i].second) + "\"";
  }
  return out + ", \"result\": " + result_json(r) + "}";
}

void print_report(const RunOptions& opt, const RunResult& r) {
  std::printf("perfbench %s seed %llu (%s run)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const auto& [k, v] : r.record) std::printf("  record  %-22s %s\n", k.c_str(), v.c_str());
  for (const auto& [name, value] : r.metrics) {
    std::printf("  metric  %-36s %16.6g %s\n", name.c_str(), value,
                r.units.at(name).c_str());
  }
  if (opt.trace && r.self_total_ms > 0) {
    std::printf("  self time by layer (span time minus child spans; concurrent "
                "requests overlap, so shares may sum above 100%%):\n");
    for (const auto& [layer, ms] : r.self_ms) {
      std::printf("    %-10s %12.3f ms %7.1f%%\n", layer.c_str(), ms,
                  100.0 * ms / r.self_total_ms);
    }
    std::printf("    %-10s %12.3f ms (root spans)\n", "total", r.self_total_ms);
    std::printf("  spans written to %s\n", r.spans_path.c_str());
  }
  for (const std::string& e : r.errors) std::printf("  ERROR %s\n", e.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady_mix|rollout|overload_open> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  opt.work_dir = ".perfbench_work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.seconds <= 0) return usage();

  const RunResult r = run_workload(opt);
  print_report(opt, r);
  std::ofstream(opt.work_dir + "/record.json") << record_json(r) << "\n";
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
