// The repo benchmark: three seeded workloads driven through api/svc.h,
// every response checked against the switch interpreter, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See perfbench/README.md for the workloads, metrics and noise rules.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/svc.h"

namespace perfbench {

// --- layout --------------------------------------------------------------

/// Shard and core layout shared by every workload: 2 shards, each a
/// 2-core SoC (x86sim host plus spusim accelerator) drained by one
/// server worker, with synchronous tier-up compiles.
inline constexpr size_t kShards = 2;
inline constexpr size_t kWorkersPerShard = 1;
inline constexpr size_t kCompileThreads = 0;
/// One client or generator thread, plus one control thread that calls
/// Cluster::restart while the client keeps sending.
inline constexpr size_t kClientThreads = 1;
inline constexpr size_t kControlThreads = 1;

[[nodiscard]] std::vector<svc::CoreSpec> shard_cores();

/// Threads the run uses at its busiest: clients + control + server
/// workers + compile threads. Refused when above nproc.
[[nodiscard]] constexpr size_t layout_threads() {
  return kClientThreads + kControlThreads + kShards * kWorkersPerShard +
         kCompileThreads;
}

// --- workloads -----------------------------------------------------------

/// One request shape: a function, its arguments, and the switch
/// interpreter's answer on the workload's initial memory image.
struct Template {
  uint32_t fn = 0;
  std::string name;
  std::vector<svc::Value> args;
  svc::Value expected;
  svc::TrapKind expected_trap = svc::TrapKind::None;
};

/// Everything a workload's runs need, generated from the seed alone.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::string source;                // the whole MiniC module
  std::vector<std::string> entries;  // functions requests call
  std::vector<Template> templates;
  std::vector<uint32_t> sequence;  // fixed request order (template indices)
  svc::RoutingPolicy routing = svc::RoutingPolicy::ConsistentHash;
  std::function<void(svc::Memory&)> memory_init;
  // The oracle's compile of `source`: every boot's image must equal it.
  std::vector<uint8_t> image;
  size_t memory_bytes = size_t{1} << 20;
  // Open loop only: the fixed offered rate.
  double offered_rps = 0.0;
  // Rollout only: programs drawn, and the share kept by the repeat check.
  size_t drawn = 0;
  size_t idempotent = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload `name` from `seed`, including the oracle answer of
/// every template. Fails on an unknown name.
[[nodiscard]] svc::Result<Workload> make_workload(const std::string& name,
                                                  uint64_t seed);

// --- runs ----------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for persistent stores
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // End-to-end metrics (untraced runs) and per-layer metrics (traced).
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  // Run record: seed, nproc, layout, function count, rates, shares.
  std::vector<std::pair<std::string, std::string>> record;
  // Determinism fingerprints.
  uint64_t image_bytes = 0;
  uint64_t timed_compiles = 0;      // compiles during the timed phase
  uint64_t timed_cycles_per_pass = 0;  // steady_mix: exact per pass
  std::vector<uint64_t> timed_tiers = {0, 0, 0};
  std::vector<std::pair<int64_t, int64_t>> cold_counts;  // rollout boots
  // Traced runs: per-layer self time, and where the spans went.
  std::map<std::string, double> self_ms;
  double self_total_ms = 0.0;
  std::string spans_path;
};

/// Runs one workload. Untraced runs fill the end-to-end metrics; traced
/// runs fill the per-layer metrics and the self-time table.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
