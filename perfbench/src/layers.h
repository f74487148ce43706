// Per-layer measurement for traced runs: what the traffic phases
// observed, and the replays that time each layer through its public
// entry points after traffic, so a replay never competes with traffic.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "stats.h"

namespace perfbench {

/// What one traffic phase observed, every response already checked.
struct Traffic {
  std::vector<double> latency_us;  // one per completed request
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t refused = 0;     // admission control (open loop)
  uint64_t errors = 0;      // any other error result
  uint64_t mismatches = 0;  // differs from the switch interpreter
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t spill_ops = 0;
  uint64_t mispredicts = 0;
  std::array<uint64_t, 3> tiers{};
  double seconds = 0.0;
  // Closed loops over whole passes: simulated cycles of one pass over the
  // fixed sequence (0 when the loop did not run whole passes).
  uint64_t pass_cycles = 0;
  std::vector<double> lag_us;  // open loop: send time - scheduled time
  // Traced phases only.
  std::vector<double> submit_us;
  std::vector<double> merge_us;
  std::vector<std::pair<uint32_t, double>> waits;  // template, submit -> ready
  std::vector<std::string> messages;
};

/// Counters and samples the runs hand to the layer measurement.
struct LayerInputs {
  svc::ClusterStats cluster;                   // after the timed traffic
  std::map<std::string, int64_t> cache;        // cache counters of set-up + traffic
  std::map<std::string, int64_t> restart_cache;  // counters of restarts' re-warms
  const Traffic* timed = nullptr;   // untraced traffic
  const Traffic* traced = nullptr;  // traced traffic
  double untraced_p50_us = 0.0;     // the untraced baseline of trace.overhead
  double lag_p99_us = 0.0;          // open loop: generator lateness p99
  std::vector<double> build_us;
  std::vector<double> deploy_us;
};

/// Every per-layer metric, in print order, with its unit.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metrics();

/// Replays the workload through each layer's public entry points and
/// fills every per-layer metric into `out`.
void measure_layers(const Workload& w, const svc::Engine& engine,
                    const svc::ModuleHandle& module, const RunOptions& options,
                    const LayerInputs& in, Tracer& tracer, int32_t parent,
                    RunResult& out);

/// Computes the self-time table from the spans, adds it to the metrics,
/// and writes the spans out.
void finish_trace(const Tracer& tracer, const RunOptions& options,
                  RunResult& out);

}  // namespace perfbench
