// Traced runs: per-layer metrics. Counters come from what the program
// already exports (ClusterStats, cache counters, SimResult, Statistics);
// times come from spans the benchmark records around each layer's public
// entry points, replaying the run's own inputs after its traffic.
#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "bytecode/serializer.h"
#include "bytecode/verifier.h"
#include "frontend/irgen.h"
#include "frontend/parser.h"
#include "ir/ir_pipeline.h"
#include "ir/lower_bytecode.h"
#include "runtime/persistent_cache.h"
#include "targets/simulator.h"
#include "targets/target_registry.h"
#include "vm/interpreter.h"
#include "vm/predecode.h"

namespace perfbench {
namespace {

using namespace svc;

constexpr size_t kReplayReps = 8;  // timed calls per template
constexpr size_t kCompileReps = 3;  // compiles per function and core kind

const char* const kJitPasses[] = {"stack_to_reg", "peephole", "fma",
                                  "devectorize", "regalloc"};
const char* const kIrPasses[] = {"cleanup", "licm", "vectorize"};
const char* const kSelfLayers[] = {"api",     "bytecode", "frontend", "ir",
                                   "jit",     "runtime",  "serve",    "targets",
                                   "vm",      "remainder"};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Sink {
  RunResult& out;
  void operator()(const std::string& name, double value) const {
    out.metrics[name] = value;
  }
};

/// Sequence-weighted mean of a per-template value: the recorded mix.
double mix_mean(const Workload& w, const std::vector<double>& per_template) {
  double s = 0.0;
  for (uint32_t t : w.sequence) s += per_template[t];
  return s / static_cast<double>(w.sequence.size());
}

void serve_layer(const LayerInputs& in, const std::vector<double>& service_us,
                 const Sink& put) {
  const Traffic& traced = *in.traced;
  put("serve.submit_us", mean(traced.submit_us));
  std::vector<double> waits;
  waits.reserve(traced.waits.size());
  for (const auto& [tmpl, us] : traced.waits) waits.push_back(us - service_us[tmpl]);
  put("serve.queue_wait_us", mean(waits));
  put("serve.merge_profiles_us", mean(traced.merge_us));
  uint64_t completed = 0;
  uint64_t batches = 0;
  uint64_t peak = 0;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (const ShardStats& sh : in.cluster.shards) {
    completed += sh.server.completed;
    batches += sh.server.batches;
    for (const CoreServeStats& c : sh.server.cores) {
      peak = std::max(peak, c.peak_queue_depth);
    }
    lo = std::min(lo, sh.routed);
    hi = std::max(hi, sh.routed);
  }
  put("serve.batch_mean", ratio(static_cast<double>(completed),
                                static_cast<double>(batches)));
  put("serve.queue_peak", static_cast<double>(peak));
  put("serve.refused", static_cast<double>(in.cluster.aggregate.rejected +
                                           in.cluster.rejected_unroutable));
  put("serve.route_spread",
      ratio(static_cast<double>(hi), static_cast<double>(lo)));
}

void counter_layers(const LayerInputs& in, const Sink& put) {
  const Traffic& t = *in.timed;
  const auto n = static_cast<double>(t.completed);
  put("runtime.tier0_share", ratio(static_cast<double>(t.tiers[0]), n));
  put("runtime.tier1_share", ratio(static_cast<double>(t.tiers[1]), n));
  put("runtime.tier2_share", ratio(static_cast<double>(t.tiers[2]), n));
  put("targets.instructions_per_req", ratio(static_cast<double>(t.instructions), n));
  put("targets.spill_ops_per_req", ratio(static_cast<double>(t.spill_ops), n));
  put("targets.mispredicts_per_req", ratio(static_cast<double>(t.mispredicts), n));

  std::map<std::string, int64_t> c = in.cache;
  for (const auto& [k, v] : in.restart_cache) c[k] += v;
  const auto get = [&c](const char* k) { return static_cast<double>(c[k]); };
  put("runtime.cache_hits", get("cache.hits"));
  put("runtime.cache_misses", get("cache.misses"));
  put("runtime.cache_compiles", get("cache.compiles"));
  put("runtime.cache_coalesced", get("cache.coalesced"));
  put("runtime.cache_hit_ratio",
      ratio(get("cache.hits"), get("cache.hits") + get("cache.misses")));
  put("runtime.disk_hits", get("cache.disk_hits"));
  put("runtime.disk_misses", get("cache.disk_misses"));
  put("runtime.disk_writes", get("cache.disk_writes"));
  put("runtime.disk_rejects", get("cache.disk_rejects"));
  put("runtime.disk_hit_ratio", ratio(get("cache.disk_hits"),
                                      get("cache.disk_hits") + get("cache.disk_misses")));

  put("loadgen.lag_p99_us", in.lag_p99_us);
  put("trace.overhead",
      ratio(percentile_or_zero(in.traced->latency_us, 50.0), in.untraced_p50_us));
}

/// Artifacts as a deployment installs them: tier-2 code for every
/// function the twin promoted to tier 2 (options derived from its
/// profile), tier-1 code for the rest.
std::vector<MFunction> installed_code(const Module& module, TargetKind kind,
                                      const JitOptions& base,
                                      const ProfileData& profile,
                                      const std::vector<bool>& tier2) {
  const MachineDesc& desc = target_desc(kind);
  std::vector<MFunction> code;
  for (uint32_t f = 0; f < module.num_functions(); ++f) {
    JitOptions options = base;
    if (tier2[f]) {
      const ProfileInfo info = f < profile.num_functions() ? profile.function(f)
                                                           : ProfileInfo{};
      options = derive_tier2_options(base, desc, module.function(f), info);
    }
    code.push_back(JitCompiler(desc, options).compile(module, f).code);
  }
  return code;
}

/// runtime.run_on_us / dispatch_us and the targets timings: the request
/// mix replayed on an unserved twin deployment warmed to the same tiers,
/// then straight through Simulator::run on the same artifacts.
std::vector<double> runtime_layer(const Workload& w, const Engine& engine,
                                  const ModuleHandle& module,
                                  const LayerInputs& in, Tracer& tracer,
                                  int32_t parent, const Sink& put,
                                  RunResult& out) {
  std::map<std::string, size_t> core_of;
  for (const FunctionServeStats& row : in.cluster.shards.front().server.functions) {
    core_of[row.name] = row.core;
  }
  Result<Deployment> dep = engine.deploy(module, shard_cores());
  if (!dep.ok()) {
    out.errors.push_back("replay deploy: " + dep.error_text());
    out.correct = false;
    return std::vector<double>(w.templates.size(), 0.0);
  }
  w.memory_init(dep->memory());
  std::vector<bool> tier2(module->num_functions(), false);
  for (const Template& t : w.templates) {
    for (int i = 0; i < 64; ++i) {
      const Result<SimResult> r = dep->run_on(core_of[t.name], t.name, t.args);
      if (r.ok() && r->tier == 2) {
        tier2[t.fn] = true;
        break;
      }
    }
  }
  const std::vector<CoreSpec> cores = shard_cores();
  const ProfileData profile = dep->soc().profile();
  std::vector<std::vector<MFunction>> code;
  for (const CoreSpec& c : cores) {
    code.push_back(installed_code(*module, c.kind, engine.options().jit, profile, tier2));
  }
  Memory mem(w.memory_bytes);
  w.memory_init(mem);

  std::vector<double> run_on_us(w.templates.size());
  std::vector<double> sim_us(w.templates.size());
  std::vector<double> ns_per_cycle_sum(cores.size(), 0.0);
  std::vector<double> cycles_sum(cores.size(), 0.0);
  for (size_t i = 0; i < w.templates.size(); ++i) {
    const Template& t = w.templates[i];
    const size_t core = core_of[t.name];
    std::vector<double> a;
    std::vector<double> b;
    for (size_t rep = 0; rep < kReplayReps; ++rep) {
      a.push_back(timed_span(tracer, "runtime.run_on", parent, [&] {
        const Result<SimResult> r = dep->run_on(core, t.name, t.args);
        if (!r.ok() || !(r->value == t.expected) || r->trap != t.expected_trap) {
          out.correct = false;
          out.errors.push_back("replay mismatch: function " + t.name);
        }
      }));
      for (size_t k = 0; k < cores.size(); ++k) {
        Simulator sim(target_desc(cores[k].kind), code[k], mem);
        SimResult r;
        const double us = timed_span(tracer, "targets.simulate", parent,
                                [&] { r = sim.run(t.fn, t.args); });
        if (k == core) b.push_back(us);
        ns_per_cycle_sum[k] += us * 1e3;
        cycles_sum[k] += static_cast<double>(r.stats.cycles);
      }
    }
    run_on_us[i] = median(a);
    sim_us[i] = median(b);
  }
  const double run_on = mix_mean(w, run_on_us);
  const double sim = mix_mean(w, sim_us);
  put("runtime.run_on_us", run_on);
  put("runtime.dispatch_us", run_on - sim);
  put("targets.sim_us", sim);
  for (size_t k = 0; k < cores.size(); ++k) {
    put(std::string("targets.sim_ns_per_cycle.") +
            std::string(target_desc(cores[k].kind).name),
        ratio(ns_per_cycle_sum[k], cycles_sum[k]));
  }
  return run_on_us;
}

void vm_layer(const Workload& w, const ModuleHandle& module, Tracer& tracer,
              int32_t parent, const Sink& put) {
  std::vector<double> predecode_us;
  for (uint32_t f = 0; f < module->num_functions(); ++f) {
    predecode_us.push_back(timed_span(tracer, "vm.predecode", parent, [&] {
      (void)predecode(*module, f, true);
    }));
  }
  put("vm.predecode_us", mean(predecode_us));
  Memory mem(w.memory_bytes);
  w.memory_init(mem);
  PredecodeCache cache;
  Interpreter interp(*module, mem);
  interp.set_predecode_cache(&cache);
  std::vector<double> ns(w.templates.size());
  std::vector<double> steps(w.templates.size());
  for (size_t i = 0; i < w.templates.size(); ++i) {
    const Template& t = w.templates[i];
    (void)interp.run(t.fn, t.args);  // lower the stream outside the timing
    double total_us = 0.0;
    for (size_t rep = 0; rep < kReplayReps; ++rep) {
      total_us += timed_span(tracer, "vm.interpret", parent, [&] {
        steps[i] = static_cast<double>(interp.run(t.fn, t.args).steps);
      });
    }
    ns[i] = total_us * 1e3 / kReplayReps;
  }
  const double mix_steps = mix_mean(w, steps);
  put("vm.steps", mix_steps);
  put("vm.interp_ns_per_step", ratio(mix_mean(w, ns), mix_steps));
}

/// JIT and register allocation: every function compiled for every core
/// kind, with the compiler's own per-pass statistics.
std::vector<std::pair<PersistentCacheKey, JitArtifact>> jit_layer(
    const Engine& engine, const ModuleHandle& module, Tracer& tracer,
    int32_t parent, const Sink& put) {
  std::vector<std::pair<PersistentCacheKey, JitArtifact>> artifacts;
  const std::vector<uint64_t> hashes = PersistentCache::content_hashes(*module);
  const JitOptions& options = engine.options().jit;
  Statistics all;
  Statistics first_rep;
  std::vector<double> compile_us;
  for (size_t rep = 0; rep < kCompileReps; ++rep) {
    for (const CoreSpec& c : shard_cores()) {
      const JitCompiler jit(target_desc(c.kind), options);
      for (uint32_t f = 0; f < module->num_functions(); ++f) {
        JitArtifact a;
        timed_span(tracer, "jit.compile", parent, [&] { a = jit.compile(*module, f); });
        compile_us.push_back(a.compile_seconds * 1e6);
        all.merge(a.stats);
        if (rep == 0) {
          first_rep.merge(a.stats);
          artifacts.emplace_back(
              PersistentCacheKey{hashes[f], f, c.kind, options.cache_key(), 1, 0},
              std::move(a));
        }
      }
    }
  }
  const auto n = static_cast<double>(compile_us.size());
  put("jit.compile_us_per_fn", mean(compile_us));
  for (const char* p : kJitPasses) {
    put(std::string("jit.pass_us.") + p,
        static_cast<double>(all.get(std::string("jit.pass_us.") + p)) / n);
  }
  put("jit.code_bytes", static_cast<double>(all.get("jit.code_bytes")) / n);
  put("regalloc.spilled_vregs",
      static_cast<double>(first_rep.get("jit.spilled_vregs")));
  put("regalloc.spill_ops",
      static_cast<double>(first_rep.get("jit.static_spill_loads") +
                          first_rep.get("jit.static_spill_stores")));
  put("regalloc.work_units",
      static_cast<double>(first_rep.get("jit.alloc_work_units")));
  return artifacts;
}

void disk_layer(
    const std::vector<std::pair<PersistentCacheKey, JitArtifact>>& artifacts,
    const RunOptions& options, Tracer& tracer, int32_t parent, const Sink& put,
    RunResult& out) {
  const std::string dir = options.work_dir + "/replay_store";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Result<PersistentCache> store = PersistentCache::open(dir);
  if (!store.ok()) {
    out.correct = false;
    out.errors.push_back("replay store: " + store.error_text());
    return;
  }
  std::vector<double> store_us;
  std::vector<double> load_us;
  for (const auto& [key, artifact] : artifacts) {
    store_us.push_back(timed_span(tracer, "runtime.disk_store", parent,
                             [&] { (void)store->store(key, artifact); }));
  }
  for (const auto& [key, artifact] : artifacts) {
    PersistentCache::LoadResult r;
    load_us.push_back(timed_span(tracer, "runtime.disk_load", parent,
                            [&] { r = store->load(key); }));
    if (r.status != PersistentCache::LoadStatus::Hit) {
      out.correct = false;
      out.errors.push_back("replay store: stored artifact did not load");
    }
  }
  put("runtime.disk_store_us", mean(store_us));
  put("runtime.disk_load_us", mean(load_us));
  std::filesystem::remove_all(dir, ec);
}

/// Offline layers, whole module per call: frontend, IR pipeline, bytecode.
void offline_layers(const Workload& w, const Engine& engine,
                    const ModuleHandle& module, Tracer& tracer, int32_t parent,
                    const Sink& put, RunResult& out) {
  std::vector<double> parse_us, irgen_us, lower_us, verify_us, serialize_us, load_us;
  std::map<std::string, double> pass_us;
  double loops_vectorized = 0.0;
  const EngineOptions& eo = engine.options();
  const PipelineSpec spec = default_ir_pipeline(eo.offline.passes, eo.offline.vectorize);
  for (size_t rep = 0; rep < kCompileReps; ++rep) {
    DiagnosticEngine diags;
    std::optional<Program> program;
    parse_us.push_back(timed_span(tracer, "frontend.parse", parent,
                             [&] { program = parse_program(w.source, diags); }));
    std::optional<std::vector<IRFunction>> ir;
    if (program) {
      irgen_us.push_back(timed_span(tracer, "frontend.irgen", parent,
                               [&] { ir = generate_ir(*program, diags); }));
    }
    if (!ir) {
      out.correct = false;
      out.errors.push_back("replay: frontend rejected the workload source");
      return;
    }
    double lower = 0.0;
    for (IRFunction& fn : *ir) {
      IRPipelineContext ctx;
      timed_span(tracer, "ir.pipeline", parent,
            [&] { ir_pass_manager().run(spec, fn, ctx, nullptr); });
      lower += timed_span(tracer, "bytecode.lower", parent,
                     [&] { (void)lower_to_bytecode(fn); });
    }
    lower_us.push_back(lower);
    verify_us.push_back(timed_span(tracer, "bytecode.verify", parent, [&] {
      DiagnosticEngine d;
      (void)verify_module(*module, d);
    }));
    std::vector<uint8_t> bytes;
    serialize_us.push_back(timed_span(tracer, "bytecode.serialize", parent,
                                 [&] { bytes = serialize_module(*module); }));
    load_us.push_back(timed_span(tracer, "bytecode.load", parent,
                            [&] { (void)engine.load_bytecode(bytes); }));
    Statistics stats;
    timed_span(tracer, "api.compile", parent, [&] { (void)engine.compile(w.source, &stats); });
    for (const char* p : kIrPasses) {
      pass_us[p] += static_cast<double>(stats.get(std::string("offline.pass_us.") + p));
    }
    loops_vectorized = static_cast<double>(stats.get("offline.loops_vectorized"));
  }
  put("frontend.parse_us", mean(parse_us));
  put("frontend.irgen_us", mean(irgen_us));
  for (const char* p : kIrPasses) {
    put(std::string("ir.pass_us.") + p, pass_us[p] / kCompileReps);
  }
  put("ir.loops_vectorized", loops_vectorized);
  put("bytecode.lower_us", mean(lower_us));
  put("bytecode.verify_us", mean(verify_us));
  put("bytecode.serialize_us", mean(serialize_us));
  put("bytecode.load_us", mean(load_us));
  double annotation_bytes = 0.0;
  for (uint32_t f = 0; f < module->num_functions(); ++f) {
    for (const Annotation& a : module->function(f).annotations()) {
      annotation_bytes += static_cast<double>(a.payload.size());
    }
  }
  put("bytecode.annotation_bytes", annotation_bytes);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"serve.submit_us", "us"},
        {"serve.queue_wait_us", "us"},
        {"serve.batch_mean", "requests"},
        {"serve.queue_peak", "requests"},
        {"serve.refused", "count"},
        {"serve.route_spread", "ratio"},
        {"serve.merge_profiles_us", "us"},
        {"runtime.run_on_us", "us"},
        {"runtime.dispatch_us", "us"},
        {"runtime.tier0_share", "ratio"},
        {"runtime.tier1_share", "ratio"},
        {"runtime.tier2_share", "ratio"},
        {"runtime.cache_hits", "count"},
        {"runtime.cache_misses", "count"},
        {"runtime.cache_compiles", "count"},
        {"runtime.cache_coalesced", "count"},
        {"runtime.cache_hit_ratio", "ratio"},
        {"runtime.disk_hits", "count"},
        {"runtime.disk_misses", "count"},
        {"runtime.disk_writes", "count"},
        {"runtime.disk_rejects", "count"},
        {"runtime.disk_hit_ratio", "ratio"},
        {"runtime.disk_load_us", "us"},
        {"runtime.disk_store_us", "us"},
        {"vm.interp_ns_per_step", "ns/step"},
        {"vm.steps", "steps"},
        {"vm.predecode_us", "us"},
        {"targets.sim_us", "us"},
        {"targets.sim_ns_per_cycle.x86sim", "ns/cycle"},
        {"targets.sim_ns_per_cycle.spusim", "ns/cycle"},
        {"targets.instructions_per_req", "count"},
        {"targets.spill_ops_per_req", "count"},
        {"targets.mispredicts_per_req", "count"},
        {"jit.compile_us_per_fn", "us"},
    };
    for (const char* p : kJitPasses) m.emplace_back(std::string("jit.pass_us.") + p, "us");
    m.emplace_back("jit.code_bytes", "B");
    m.emplace_back("regalloc.spilled_vregs", "count");
    m.emplace_back("regalloc.spill_ops", "count");
    m.emplace_back("regalloc.work_units", "count");
    m.emplace_back("frontend.parse_us", "us");
    m.emplace_back("frontend.irgen_us", "us");
    for (const char* p : kIrPasses) m.emplace_back(std::string("ir.pass_us.") + p, "us");
    m.emplace_back("ir.loops_vectorized", "count");
    m.emplace_back("bytecode.lower_us", "us");
    m.emplace_back("bytecode.verify_us", "us");
    m.emplace_back("bytecode.serialize_us", "us");
    m.emplace_back("bytecode.load_us", "us");
    m.emplace_back("bytecode.annotation_bytes", "B");
    m.emplace_back("api.build_us", "us");
    m.emplace_back("api.deploy_us", "us");
    m.emplace_back("loadgen.lag_p99_us", "us");
    m.emplace_back("trace.overhead", "ratio");
    for (const char* l : kSelfLayers) m.emplace_back(std::string("self_ms.") + l, "ms");
    return m;
  }();
  return kMetrics;
}

void measure_layers(const Workload& w, const Engine& engine,
                    const ModuleHandle& module, const RunOptions& options,
                    const LayerInputs& in, Tracer& tracer, int32_t parent,
                    RunResult& out) {
  const Sink put{out};
  const std::vector<double> service_us =
      runtime_layer(w, engine, module, in, tracer, parent, put, out);
  serve_layer(in, service_us, put);
  counter_layers(in, put);
  vm_layer(w, module, tracer, parent, put);
  const auto artifacts = jit_layer(engine, module, tracer, parent, put);
  disk_layer(artifacts, options, tracer, parent, put, out);
  offline_layers(w, engine, module, tracer, parent, put, out);
  put("api.build_us", mean(in.build_us));
  put("api.deploy_us", mean(in.deploy_us));
}

void finish_trace(const Tracer& tracer, const RunOptions& options,
                  RunResult& out) {
  const SelfTimes self = self_times(tracer.spans(), tracer.names());
  out.self_total_ms = static_cast<double>(self.total_ns) / 1e6;
  for (const auto& [layer, ns] : self.layer_ns) {
    const std::string name = layer == "harness" ? "remainder" : layer;
    out.self_ms[name] += static_cast<double>(ns) / 1e6;
  }
  for (const char* l : kSelfLayers) {
    out.metrics[std::string("self_ms.") + l] = out.self_ms[l];
  }
  for (const auto& [name, unit] : layer_metrics()) {
    out.metrics.try_emplace(name, 0.0);
    out.units[name] = unit;
  }
  out.spans_path = options.work_dir + "/spans.tsv";
  std::ofstream file(out.spans_path);
  file << "index\tname\tparent\trequest\tstart_ns\tend_ns\n";
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    file << i << '\t' << tracer.names()[s.name] << '\t' << s.parent << '\t'
         << s.request << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
