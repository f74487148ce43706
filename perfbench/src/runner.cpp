// The three workloads' runs: set-up, traffic (closed or open loop), and
// rolling restarts, every response checked against the oracle.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "layers.h"

namespace perfbench {
namespace {

using namespace svc;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kPromoteThreshold = 2;
constexpr uint32_t kTier2Threshold = 6;
constexpr size_t kQueueDepth = 64;
constexpr size_t kBatchMax = 8;
// Closed-loop requests in flight: deep enough that no shard's worker
// ever runs dry (an idle worker sleeps, and its wake-ups are what a
// noisy host delays most), and at most one core queue's depth, so a
// closed loop is never refused.
constexpr size_t kWindow = 64;
// Requests in flight while restarts run: enough to keep the surviving
// shard busy, few enough that draining a shard stays a small part of
// a restart.
constexpr size_t kRestartWindow = 8;
constexpr uint64_t kMergeEvery = 1024;  // requests between profile merges
// Each steady/open-loop repetition: a set-up, this much timed traffic,
// then kRestartRounds rounds of rolling restarts.
constexpr double kRepSeconds = 1.0;
constexpr size_t kRestartRounds = 2;
// Repetitions run first and left out of every figure: a host that was
// idle runs its first second of load up to 2.5x slower.
constexpr size_t kWarmupReps = 1;
// Latency samples one repetition's timed traffic holds without growing
// its buffer: about 1.5x the most a closed-loop phase has completed.
constexpr size_t kSampleCapacity = size_t{1} << 19;
// Rollout boots per run, at least: the quiet quarter of 32 boots holds
// over 1000 cold-half samples, enough for a p99.
constexpr size_t kMinBoots = 32;
constexpr size_t kTracedBoots = 3;  // rollout boots a traced run traces
constexpr size_t kMaxWarmRounds = 256;
// Warm-up rounds at least: a rollout's cold half keeps calling every
// function for a few rounds after its last promotion, so its samples are
// mostly JIT-served calls, not an even split between interpreted calls
// and promotions (an even split puts the median between two modes).
constexpr size_t kMinWarmRounds = 6;
// The open-loop generator's p99 lateness in a repetition may reach the
// median latency it measures -- about the time a full queue takes to
// drain -- before its run is reported as failed: a longer stall lets the
// queues drain, and the run no longer measures overload.
constexpr double kMaxLagShare = 1.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Which error answers a traffic phase expects.
enum class Expect {
  Answers,   // none: every request is answered
  Refusals,  // the open loop: admission control refuses what overflows
};

bool says(const Result<SimResult>& r, const char* text) {
  return r.error().front().message.find(text) != std::string::npos;
}

/// Checks one response against the oracle and folds it into `t`.
void observe(const Workload& w, uint32_t tmpl, uint64_t index,
             const Result<SimResult>& r, double latency_us, Expect expect,
             Traffic& t) {
  ++t.attempted;
  if (!r.ok()) {
    if (expect == Expect::Refusals && says(r, "admission control rejected")) {
      ++t.refused;
      return;
    }
    ++t.errors;
    if (t.messages.size() < 8) {
      t.messages.push_back("seed " + std::to_string(w.seed) + " workload " +
                           w.name + " function " + w.templates[tmpl].name +
                           " request " + std::to_string(index) +
                           ": error: " + r.error_text());
    }
    return;
  }
  const Template& tp = w.templates[tmpl];
  if (!(r->value == tp.expected) || r->trap != tp.expected_trap) {
    ++t.mismatches;
    if (t.messages.size() < 8) {
      t.messages.push_back(
          "oracle mismatch: seed " + std::to_string(w.seed) + " workload " +
          w.name + " function " + tp.name + " request " +
          std::to_string(index) + ": got " + r->value.str() + " trap " +
          std::to_string(static_cast<int>(r->trap)) + ", switch interpreter " +
          tp.expected.str() + " trap " +
          std::to_string(static_cast<int>(tp.expected_trap)));
    }
  }
  ++t.completed;
  t.latency_us.push_back(latency_us);
  t.cycles += r->stats.cycles;
  t.instructions += r->stats.instructions;
  t.spill_ops += r->stats.spill_loads + r->stats.spill_stores;
  t.mispredicts += r->stats.mispredicts;
  ++t.tiers[std::min<size_t>(r->tier, 2)];
}

/// A request in flight.
struct Call {
  std::future<Result<SimResult>> future;
  Clock::time_point from;       // latency start: the send, or its schedule
  Clock::time_point submitted;  // Cluster::submit returned
  uint64_t index = 0;
  uint32_t tmpl = 0;
  int32_t span = -1;
};

/// Submits template `tmpl` as request `index`, inside its request and
/// submit spans. Its latency runs from the send.
void send(Cluster& cluster, const Workload& w, uint32_t tmpl, uint64_t index,
          Tracer& tracer, int32_t parent, Traffic& t, Call& c) {
  const Template& tp = w.templates[tmpl];
  c.tmpl = tmpl;
  c.index = index;
  c.span = tracer.begin("serve.request", parent, index + 1);
  c.from = Clock::now();
  const int32_t sub = tracer.begin("serve.submit", c.span, index + 1);
  c.future = cluster.submit(tp.name, tp.args);
  tracer.end(sub);
  c.submitted = Clock::now();
  if (tracer.enabled()) t.submit_us.push_back(micros(c.submitted - c.from));
}

/// Whether `c`'s answer is in. Futures are polled, never blocked on, so
/// each latency ends when its own future is ready, not an older one's.
bool ready(const Call& c) {
  return c.future.valid() &&
         c.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Takes a ready call's answer, checks it and records its latency.
Result<SimResult> collect(const Workload& w, Call& c, Expect expect,
                          Tracer& tracer, Traffic& t) {
  const auto done = Clock::now();
  tracer.end(c.span);
  Result<SimResult> r = c.future.get();
  observe(w, c.tmpl, c.index, r, micros(done - c.from), expect, t);
  if (tracer.enabled() && r.ok()) {
    t.waits.emplace_back(c.tmpl, micros(done - c.submitted));
  }
  return r;
}

/// When a closed loop stops submitting: at the first pass boundary after
/// `seconds`, or as soon as `stop` is set (then mid-pass). `sent`, when
/// set, counts the submits that have returned.
struct LoopControl {
  size_t window = kWindow;
  double seconds = 1e300;
  const std::atomic<bool>* stop = nullptr;
  std::atomic<uint64_t>* sent = nullptr;
};

/// The merge cadence, run on the control thread so a merge contends with
/// the shards as it would in production instead of stalling the client:
/// every kMergeEvery-th submission wakes the thread, which calls
/// Cluster::merge_profiles while the client keeps sending.
class MergeCadence {
 public:
  MergeCadence(Cluster& cluster, const Tracer& clock)
      : cluster_(cluster), clock_(clock), thread_([this] { loop(); }) {}
  ~MergeCadence() { finish(); }
  MergeCadence(const MergeCadence&) = delete;
  MergeCadence& operator=(const MergeCadence&) = delete;

  void tick(uint64_t submitted) {
    if (submitted % kMergeEvery != 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++due_;
    }
    cv_.notify_one();
  }

  /// Stops the thread (merges not yet started are dropped) and returns
  /// the [start, end) of every merge it ran.
  std::vector<std::pair<int64_t, int64_t>> finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return merges_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || due_ > done_; });
      if (stop_) return;
      ++done_;
      lock.unlock();
      const int64_t a = clock_.now_ns();
      (void)cluster_.merge_profiles();
      const int64_t b = clock_.now_ns();
      lock.lock();
      merges_.emplace_back(a, b);
    }
  }

  Cluster& cluster_;
  const Tracer& clock_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t due_ = 0;
  uint64_t done_ = 0;
  bool stop_ = false;
  std::vector<std::pair<int64_t, int64_t>> merges_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Records the cadence's merges as spans and samples of `t`.
void collect_merges(MergeCadence& cadence, Tracer& tracer, int32_t parent,
                    Traffic& t) {
  for (const auto& [a, b] : cadence.finish()) {
    tracer.record("serve.merge_profiles", a, b, parent);
    t.merge_us.push_back(static_cast<double>(b - a) / 1e3);
  }
}

/// A closed loop's request stream: a fixed sequence of templates, sent in
/// order, with its own share of the window.
struct Lane {
  std::vector<uint32_t> sequence;
  size_t window = 0;
  uint64_t next = 0;    // requests submitted so far
  uint64_t cycles = 0;  // simulated cycles of its completed requests
};

/// The lanes of a closed loop. Under consistent-hash routing each shard
/// gets its own lane -- the requests of the fixed sequence that route to
/// it, in order -- and an equal share of the window, so every shard's
/// worker always has queued work: a shard the ring gives less traffic
/// never idles (and sleeps) behind the busier one, whose backlog would
/// otherwise hold the whole window.
std::vector<Lane> make_lanes(const Cluster& cluster, const Workload& w,
                             size_t window) {
  std::vector<Lane> lanes(1);
  if (cluster.routed_shard(w.entries.front()).ok()) {
    lanes.assign(cluster.num_shards(), Lane{});
    for (uint32_t tmpl : w.sequence) {
      lanes[*cluster.routed_shard(w.templates[tmpl].name)].sequence.push_back(tmpl);
    }
    std::erase_if(lanes, [](const Lane& l) { return l.sequence.empty(); });
  } else {
    lanes[0].sequence = w.sequence;
  }
  for (Lane& l : lanes) l.window = window / lanes.size();
  return lanes;
}

/// One client thread keeping the window full. Each lane stops at the
/// first end of a whole pass over its sequence after `ctl.seconds` (or at
/// once when `ctl.stop` is set), so the simulated work of a timed phase
/// is exact.
void closed_loop(Cluster& cluster, const Workload& w, const LoopControl& ctl,
                 Traffic& t, Tracer& tracer, int32_t parent,
                 MergeCadence* merges = nullptr) {
  struct Slot {
    Call call;  // no valid future while idle
    uint32_t lane = 0;
  };
  std::vector<Lane> lanes = make_lanes(cluster, w, ctl.window);
  std::vector<Slot> slots;
  for (uint32_t l = 0; l < lanes.size(); ++l) {
    for (size_t i = 0; i < lanes[l].window; ++i) slots.emplace_back().lane = l;
  }
  const auto start = Clock::now();
  uint64_t submitted = 0;
  const auto may_submit = [&](const Lane& lane) {
    if (ctl.stop) return !ctl.stop->load(std::memory_order_relaxed);
    const size_t length = lane.sequence.size();
    if (lane.next % length != 0 || lane.next == 0) return true;
    return since(start) < ctl.seconds;
  };
  const auto submit = [&](Slot& s) {
    Lane& lane = lanes[s.lane];
    const uint32_t tmpl = lane.sequence[lane.next++ % lane.sequence.size()];
    send(cluster, w, tmpl, submitted++, tracer, parent, t, s.call);
    if (ctl.sent) ctl.sent->fetch_add(1);
    if (merges) merges->tick(submitted);
  };
  size_t busy = 0;
  for (Slot& s : slots) {
    if (!may_submit(lanes[s.lane])) continue;
    submit(s);
    ++busy;
  }
  while (busy > 0) {
    for (Slot& s : slots) {
      if (!ready(s.call)) continue;
      const Result<SimResult> r = collect(w, s.call, Expect::Answers, tracer, t);
      if (r.ok()) lanes[s.lane].cycles += r->stats.cycles;
      if (may_submit(lanes[s.lane])) {
        submit(s);
      } else {
        --busy;
      }
    }
  }
  t.seconds += since(start);
  // Cycles of one pass over the whole sequence: exact when every lane ran
  // whole passes, each of which simulates the same work.
  t.pass_cycles = 0;
  for (const Lane& lane : lanes) {
    const uint64_t passes = lane.next / lane.sequence.size();
    if (passes == 0 || lane.next % lane.sequence.size() != 0 ||
        lane.cycles % passes != 0) {
      t.pass_cycles = 0;
      break;
    }
    t.pass_cycles += lane.cycles / passes;
  }
}

/// One generator thread sending Poisson arrivals at w.offered_rps for
/// `seconds`; latency runs from each request's scheduled send time.
void open_loop(Cluster& cluster, const Workload& w, double seconds, Traffic& t,
               Tracer& tracer, int32_t parent, MergeCadence& merges) {
  std::vector<Call> inflight;
  Rng rng = Rng(w.seed).fork(7);
  const auto start = Clock::now();
  Clock::time_point last_done = start;
  const auto poll = [&] {
    for (size_t i = 0; i < inflight.size();) {
      if (!ready(inflight[i])) {
        ++i;
        continue;
      }
      last_done = Clock::now();
      (void)collect(w, inflight[i], Expect::Refusals, tracer, t);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
  };
  double due_s = 0.0;
  for (uint64_t i = 0; due_s < seconds; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s));
    while (Clock::now() < due) poll();
    Call& c = inflight.emplace_back();
    send(cluster, w, w.sequence[i % w.sequence.size()], i, tracer, parent, t, c);
    t.lag_us.push_back(micros(c.from - due));
    c.from = due;
    merges.tick(i + 1);
    // Exponential inter-arrival gaps: a Poisson process at the offered rate.
    due_s += -std::log(1.0 - rng.next_f64()) / w.offered_rps;
  }
  while (!inflight.empty()) poll();
  t.seconds += std::chrono::duration<double>(last_done - start).count();
}

// --- set-up ----------------------------------------------------------------

struct Live {
  std::optional<Engine> engine;
  std::optional<Cluster> cluster;
  ModuleHandle module;
  uint64_t image_bytes = 0;
  double to_created_s = 0.0;  // engine build until Cluster::create returned
  double to_ready_s = 0.0;    // ... until the warm-up target was reached
  double tierup_s = 0.0;      // Cluster::create returned -> all at tier >= 1
  double warm_traffic_s = 0.0;  // Cluster::create returned -> target tier
  double build_us = 0.0;
  double deploy_us = 0.0;
  // Cache counters once warm-up traffic reached its tier, before
  // Cluster::warm_up: shards populate the shared store concurrently, so
  // only the counts before it are exact.
  std::map<std::string, int64_t> cold_cache;
};

std::map<std::string, int64_t> cache_counters(const ClusterStats& s) {
  std::map<std::string, int64_t> out;
  for (const ShardStats& sh : s.shards) {
    for (const auto& [k, v] : sh.server.cache.all()) out[k] += v;
  }
  return out;
}

/// Every function has answered at `tier` or above on every shard that
/// serves it (its ring shard, or all shards under least-loaded routing).
bool reached(const Cluster& cluster, const Workload& w, int tier) {
  const ClusterStats s = cluster.stats();
  for (const std::string& fn : w.entries) {
    std::vector<size_t> shards;
    if (Result<size_t> r = cluster.routed_shard(fn); r.ok()) {
      shards.push_back(*r);
    } else {
      for (size_t i = 0; i < s.shards.size(); ++i) shards.push_back(i);
    }
    for (size_t sh : shards) {
      bool found = false;
      for (const FunctionServeStats& row : s.shards[sh].server.functions) {
        if (row.name != fn) continue;
        found = tier >= 2 ? row.tier2 > 0 : row.tier1 + row.tier2 > 0;
      }
      if (!found) return false;
    }
  }
  return true;
}

/// Warm-up rounds until every function has reached `tier` on every shard
/// that serves it. Under consistent-hash routing each function is called
/// once per round, a round's calls are sent together, and the round ends
/// when all have answered: the workers stay busy instead of sleeping
/// between calls, and each function still sees its calls in round order
/// on its one shard, so with synchronous compiles the same seed always
/// compiles the same things. Under least-loaded routing calls go one at
/// a time, each function twice per round: the router's tie-break then
/// alternates shards, so every function warms on both in a fixed number
/// of rounds.
Result<void> warm_to(Cluster& cluster, const Workload& w, int tier,
                     Clock::time_point created, Live& live, Traffic& t,
                     Tracer& tracer, int32_t parent) {
  const bool sequential = w.routing == RoutingPolicy::LeastLoaded;
  const size_t dup = sequential ? 2 : 1;
  const size_t per_fn = w.templates.size() / w.entries.size();
  bool tier1 = false;
  uint64_t index = 0;
  std::vector<Call> calls;
  const auto finish = [&] {
    for (size_t done = 0; done < calls.size();) {
      for (Call& c : calls) {
        if (!ready(c)) continue;
        (void)collect(w, c, Expect::Answers, tracer, t);
        ++done;
      }
    }
    calls.clear();
  };
  for (size_t round = 0; round < kMaxWarmRounds; ++round) {
    for (size_t f = 0; f < w.entries.size(); ++f) {
      const auto tmpl = static_cast<uint32_t>(f * per_fn + round % per_fn);
      for (size_t d = 0; d < dup; ++d) {
        send(cluster, w, tmpl, index++, tracer, parent, t, calls.emplace_back());
        if (sequential) finish();
      }
    }
    finish();
    if (!tier1 && reached(cluster, w, 1)) {
      tier1 = true;
      live.tierup_s = since(created);
    }
    if (tier1 && (tier <= 1 || reached(cluster, w, tier)) &&
        round + 1 >= kMinWarmRounds) {
      return {};
    }
  }
  return Result<void>::failure("warm-up: " + w.name + " did not reach tier " +
                               std::to_string(tier));
}

/// Engine build -> offline compile -> image save and load ->
/// Cluster::create on a fresh persistent store, then warm-up traffic up
/// to `tier` and (when `populate`) Cluster::warm_up, which fills the
/// store for every core so restarts load from disk.
Result<Live> boot(const Workload& w, const std::string& store, int tier,
                  bool populate, Tracer& tracer, int32_t parent, Traffic& warm) {
  std::error_code ec;
  std::filesystem::remove_all(store, ec);
  Live live;
  const auto t0 = Clock::now();
  Result<Engine> engine = Result<Engine>::failure("not built");
  live.build_us = timed_span(tracer, "api.build", parent, [&] {
    engine = Engine::Builder()
                 .tiered(kPromoteThreshold)
                 .profiling()
                 .tier2(kTier2Threshold)
                 .persistent_cache(store)
                 .serving({kWorkersPerShard, kQueueDepth, kBatchMax})
                 .memory_bytes(w.memory_bytes)
                 .build();
  });
  if (!engine.ok()) return Result<Live>::failure(engine.error());
  live.engine.emplace(std::move(engine).value());

  Result<ModuleHandle> compiled = Result<ModuleHandle>::failure("no compile");
  timed_span(tracer, "api.compile", parent,
          [&] { compiled = live.engine->compile(w.source); });
  if (!compiled.ok()) return Result<Live>::failure(compiled.error());
  std::vector<uint8_t> image;
  timed_span(tracer, "bytecode.serialize", parent,
          [&] { image = Engine::save_bytecode(*compiled); });
  if (image != w.image) {
    return Result<Live>::failure("boot: image differs from the oracle's compile");
  }
  live.image_bytes = image.size();
  Result<ModuleHandle> loaded = Result<ModuleHandle>::failure("no load");
  timed_span(tracer, "bytecode.load", parent,
          [&] { loaded = live.engine->load_bytecode(image); });
  if (!loaded.ok()) return Result<Live>::failure(loaded.error());
  live.module = std::move(loaded).value();

  ClusterOptions options;
  options.shards = kShards;
  options.routing = w.routing;
  options.memory_init = w.memory_init;
  Result<Cluster> cluster = Result<Cluster>::failure("no cluster");
  live.deploy_us = timed_span(tracer, "api.deploy", parent, [&] {
    cluster = Cluster::create(*live.engine, live.module, shard_cores(), options);
  });
  if (!cluster.ok()) return Result<Live>::failure(cluster.error());
  live.cluster.emplace(std::move(cluster).value());
  const auto created = Clock::now();
  live.to_created_s = std::chrono::duration<double>(created - t0).count();

  const int32_t warm_span = tracer.begin("harness.warm_up", parent);
  Result<void> warmed =
      warm_to(*live.cluster, w, tier, created, live, warm, tracer, warm_span);
  tracer.end(warm_span);
  if (!warmed.ok()) return Result<Live>::failure(warmed.error());
  live.warm_traffic_s = since(created);
  live.cold_cache = cache_counters(live.cluster->stats());
  if (populate) {
    timed_span(tracer, "serve.warm_up", parent, [&] { live.cluster->warm_up(); });
  }
  live.to_ready_s = since(t0);
  return live;
}

/// Restarts every shard in turn, `rounds` times, while one client thread
/// keeps closed-loop traffic going; returns each restart's seconds.
///
/// As in an operator's rolling restart, the next shard goes down only
/// once the restarted one takes traffic again: once a submit that began
/// after the restart returned has itself returned. The client is one
/// thread, so no submit then still in progress began before the restart
/// returned. Without that wait, a known defect of Cluster::submit
/// refuses requests at random: the router reads each shard's health in
/// turn, with no lock across the scan, and gives up when the scan found
/// no Serving shard, so a submit that reads shard 0 just before
/// restart(0) marks it Serving and shard 1 just after restart(1) marks
/// it Down is refused although a shard was Serving throughout.
Result<std::vector<double>> rolling_restarts(Cluster& cluster, const Workload& w,
                                             size_t rounds, Traffic& t,
                                             Tracer& tracer, int32_t parent,
                                             std::map<std::string, int64_t>& disk) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sent{0};
  Tracer quiet(false);
  LoopControl ctl;
  ctl.window = kRestartWindow;
  ctl.stop = &stop;
  ctl.sent = &sent;
  std::thread client([&] { closed_loop(cluster, w, ctl, t, quiet, -1); });
  std::vector<double> seconds;
  std::optional<Result<void>> failure;
  for (size_t r = 0; r < rounds && !failure; ++r) {
    for (size_t s = 0; s < cluster.num_shards(); ++s) {
      Result<void> res = Result<void>::failure("not run");
      seconds.push_back(timed_span(tracer, "serve.restart", parent, [&] {
                          res = cluster.restart(s);
                        }) / 1e6);
      if (!res.ok()) {
        failure = res;
        break;
      }
      // A restarted shard's fresh Server reports the counters of its own
      // re-warm: the disk loads the restart did.
      const ClusterStats stats = cluster.stats();
      for (const auto& [k, v] : stats.shards[s].server.cache.all()) disk[k] += v;
      // Submit k + 1 may have begun before the restart returned; submit
      // k + 2 began after submit k + 1 returned, so after the restart.
      const uint64_t k = sent.load();
      while (sent.load() < k + 2) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  stop = true;
  client.join();
  if (failure) return Result<std::vector<double>>::failure(failure->error());
  return seconds;
}

/// Cumulative CPU time the hypervisor gave to other guests ("steal",
/// USER_HZ ticks summed over CPUs), or -1 where /proc/stat lacks it.
int64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  int64_t field = 0;
  int64_t steal = -1;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return cpu == "cpu" ? steal : -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void add_counters(std::map<std::string, int64_t>& into,
                  const std::map<std::string, int64_t>& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

void fail(RunResult& out, const std::string& message) {
  out.correct = false;
  out.errors.push_back(message);
}

/// Folds a traffic phase into the run's attempted/failed counts.
void account(RunResult& out, const Traffic& t) {
  out.attempted += t.attempted;
  out.failed += t.errors + t.mismatches;
  if (t.errors + t.mismatches > 0) out.correct = false;
  out.errors.insert(out.errors.end(), t.messages.begin(), t.messages.end());
}

/// Adds `from`'s samples and counts to `into`.
void absorb(Traffic& into, const Traffic& from) {
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  into.attempted += from.attempted;
  into.completed += from.completed;
  into.refused += from.refused;
  into.errors += from.errors;
  into.mismatches += from.mismatches;
  into.cycles += from.cycles;
  into.instructions += from.instructions;
  into.spill_ops += from.spill_ops;
  into.mispredicts += from.mispredicts;
  for (size_t i = 0; i < into.tiers.size(); ++i) into.tiers[i] += from.tiers[i];
  into.seconds += from.seconds;
  into.submit_us.insert(into.submit_us.end(), from.submit_us.begin(),
                        from.submit_us.end());
  into.waits.insert(into.waits.end(), from.waits.begin(), from.waits.end());
  into.messages.insert(into.messages.end(), from.messages.begin(),
                       from.messages.end());
}

void put(RunResult& out, const std::string& name, double value,
         const std::string& unit) {
  out.metrics[name] = value;
  out.units[name] = unit;
}

/// One traffic phase's end-to-end figures.
struct Figures {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double ok_frac = 0.0;
  double cycles_per_req = 0.0;
  size_t samples = 0;
};

/// Exact percentiles over every sample of one traffic phase.
std::optional<Figures> figures_of(Traffic& t, size_t sequence_length,
                                  RunResult& out) {
  std::sort(t.latency_us.begin(), t.latency_us.end());
  const auto p50 = exact_percentile(t.latency_us, 50.0);
  const auto p99 = exact_percentile(t.latency_us, 99.0);
  if (!p50 || !p99 || t.seconds <= 0.0) {
    fail(out, "too few latency samples for a p99 (" +
                  std::to_string(t.latency_us.size()) + ")");
    return std::nullopt;
  }
  Figures f;
  f.throughput_rps = static_cast<double>(t.completed) / t.seconds;
  f.p50_us = p50->value;
  f.p99_us = p99->value;
  f.ok_frac = static_cast<double>(t.completed) / static_cast<double>(t.attempted);
  f.cycles_per_req =
      t.pass_cycles > 0
          ? static_cast<double>(t.pass_cycles) / static_cast<double>(sequence_length)
          : static_cast<double>(t.cycles) / static_cast<double>(t.completed);
  f.samples = t.latency_us.size();
  return f;
}

/// One repetition (a warm workload's set-up + timed traffic + restarts,
/// or one rollout boot) and how much CPU time the host stole meanwhile.
struct Repetition {
  double steal = 0.0;
  double setup_s = 0.0;
  double tierup_s = 0.0;
  std::vector<double> restarts;
  Figures figures;  // warm workloads: this repetition's timed traffic
  double lag_p99_us = 0.0;  // open loop: the generator's lateness
  Traffic cold;     // rollout: this boot's cold half
};

/// Share of the CPU time since `start` (on every CPU) that the hypervisor
/// gave to other guests; 0 where the host does not report steal.
double steal_share(int64_t ticks_before, Clock::time_point start) {
  const int64_t ticks = steal_ticks();
  if (ticks_before < 0 || ticks < 0) return 0.0;
  const double cpu_ticks = static_cast<double>(sysconf(_SC_CLK_TCK)) *
                           since(start) *
                           std::max(1u, std::thread::hardware_concurrency());
  return static_cast<double>(ticks - ticks_before) / cpu_ticks;
}

/// The repetitions during which the host stole at most the first-quartile
/// share of CPU time: at least a quarter of them, all of them on a quiet
/// host. A repetition the hypervisor interrupted measures the host, not
/// the program; a slowdown of the program slows every repetition alike.
std::vector<const Repetition*> quiet(const std::vector<Repetition>& reps) {
  std::vector<double> steal;
  for (const Repetition& r : reps) steal.push_back(r.steal);
  std::sort(steal.begin(), steal.end());
  const double cut = steal[(steal.size() - 1) / 4];
  std::vector<const Repetition*> out;
  for (const Repetition& r : reps) {
    if (r.steal <= cut) out.push_back(&r);
  }
  return out;
}

/// The end-to-end metrics every workload reports. Traffic figures are
/// medians over the quiet repetitions; rollout boots carry too few
/// samples each for a p99, so their cold halves are pooled. Set-up,
/// tier-up and restart times, the same work in every repetition, are
/// medians over the fastest quarter of all of them: the steal share of a
/// whole repetition says little about a window of a few milliseconds.
void end_to_end(RunResult& out, const std::vector<Repetition>& reps,
                size_t sequence_length, uint64_t image_bytes) {
  const std::vector<const Repetition*> sel = quiet(reps);
  std::vector<double> setups;
  std::vector<double> tierups;
  std::vector<double> restarts;
  for (const Repetition& r : reps) {
    setups.push_back(r.setup_s);
    tierups.push_back(r.tierup_s);
    restarts.insert(restarts.end(), r.restarts.begin(), r.restarts.end());
  }
  std::vector<Figures> figures;
  Traffic pooled;
  for (const Repetition* r : sel) {
    if (r->cold.attempted == 0) {
      figures.push_back(r->figures);
    } else {
      absorb(pooled, r->cold);
    }
  }
  if (pooled.attempted > 0) {
    const std::optional<Figures> f = figures_of(pooled, sequence_length, out);
    if (!f) return;
    figures.push_back(*f);
  }
  const auto med = [&figures](double Figures::*field) {
    std::vector<double> v;
    for (const Figures& f : figures) v.push_back(f.*field);
    return median(v);
  };
  put(out, "setup_s", fastest_quarter_median(setups), "s");
  put(out, "throughput_rps", med(&Figures::throughput_rps), "1/s");
  put(out, "latency_p50_us", med(&Figures::p50_us), "us");
  put(out, "latency_p99_us", med(&Figures::p99_us), "us");
  put(out, "ok_frac", med(&Figures::ok_frac), "ratio");
  put(out, "sim_cycles_per_req", med(&Figures::cycles_per_req), "cycles");
  put(out, "restart_s", fastest_quarter_median(restarts), "s");
  put(out, "image_bytes", static_cast<double>(image_bytes), "B");
  put(out, "peak_rss_mb", peak_rss_mb(), "MiB");
  std::string samples;
  for (const Figures& f : figures) {
    samples += (samples.empty() ? "" : " ") + std::to_string(f.samples);
  }
  std::string steal;
  for (const Repetition& r : reps) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.3f", r.steal);
    steal += (steal.empty() ? "" : " ") + std::string(buf);
  }
  // Recorded, not a gated metric: on the warm workloads it is a part of
  // setup_s, and the whole run's host steal moves it by more than any
  // regression bound (see README.md).
  out.record.emplace_back("tierup_s",
                          std::to_string(fastest_quarter_median(tierups)) + " s");
  out.record.emplace_back("repetitions", std::to_string(reps.size()));
  out.record.emplace_back("quiet_repetitions", std::to_string(sel.size()));
  out.record.emplace_back("steal_per_repetition", steal);
  out.record.emplace_back("latency_samples", samples);
  out.record.emplace_back("restarts", std::to_string(restarts.size()));
}

// --- steady_mix and overload_open -------------------------------------------

/// Repetitions of: set-up on a fresh store, kRepSeconds of timed traffic
/// (closed loop over whole passes of the sequence, or the open loop),
/// then rolling restarts under traffic, after kWarmupReps repetitions
/// that are checked but not measured. A traced run traces its last
/// repetition only; the others are its untraced baseline.
void run_warm_cluster(const Workload& w, const RunOptions& opt, RunResult& out) {
  const bool open = w.offered_rps > 0.0;
  const size_t reps =
      kWarmupReps +
      std::max<size_t>(3, static_cast<size_t>(std::llround(opt.seconds / kRepSeconds)));
  Tracer tracer(opt.trace);
  int32_t root = -1;  // the traced repetition's span
  const std::string store = opt.work_dir + "/store";
  std::vector<Repetition> repetitions;  // untraced
  std::vector<double> untraced_p50;
  std::optional<Live> live;
  Traffic first;   // traced runs: the first repetition's timed traffic
  // One latency buffer for every repetition, written through once before
  // any is timed, so the harness's share of peak_rss_mb does not grow
  // with the number of requests the host completes.
  std::vector<double> samples(kSampleCapacity, -1.0);
  Traffic traced;  // the traced repetition's timed traffic
  LayerInputs layers;
  for (size_t rep = 0; rep < reps; ++rep) {
    const bool trace_rep = opt.trace && rep + 1 == reps;
    Tracer quiet(false);
    Tracer& tr = trace_rep ? tracer : quiet;
    if (trace_rep) root = tracer.begin("harness.run");
    timed_span(tr, "serve.teardown", root, [&] { live.reset(); });
    const int64_t steal_before = steal_ticks();
    const auto rep_start = Clock::now();
    Repetition rec;
    Traffic warm;
    const int32_t setup_span = tr.begin("harness.setup", root);
    Result<Live> b = boot(w, store, 2, true, tr, setup_span, warm);
    tr.end(setup_span);
    account(out, warm);
    if (!b.ok()) return fail(out, b.error_text());
    live.emplace(std::move(b).value());
    Cluster& cluster = *live->cluster;
    rec.setup_s = live->to_ready_s;
    rec.tierup_s = live->tierup_s;
    layers.build_us.push_back(live->build_us);
    layers.deploy_us.push_back(live->deploy_us);
    out.image_bytes = live->image_bytes;

    const int64_t compiles = cache_counters(cluster.stats())["cache.compiles"];
    Traffic t;
    t.latency_us.swap(samples);
    t.latency_us.clear();
    const int32_t traffic_span = tr.begin("harness.traffic", root);
    MergeCadence merges(cluster, tr);
    if (open) {
      open_loop(cluster, w, kRepSeconds, t, tr, traffic_span, merges);
    } else {
      LoopControl ctl;
      ctl.seconds = kRepSeconds;
      closed_loop(cluster, w, ctl, t, tr, traffic_span, &merges);
    }
    collect_merges(merges, tr, traffic_span, t);
    tr.end(traffic_span);
    const auto timed_compiles = static_cast<uint64_t>(
        cache_counters(cluster.stats())["cache.compiles"] - compiles);
    out.timed_compiles += timed_compiles;
    if (timed_compiles != 0) {
      fail(out, std::to_string(timed_compiles) +
                    " compiles during a timed phase (expected none)");
    }
    if (!open) {
      if (rep == 0) out.timed_cycles_per_pass = t.pass_cycles;
      if (t.pass_cycles == 0 || t.pass_cycles != out.timed_cycles_per_pass) {
        fail(out, "simulated cycles differ between passes of the fixed sequence");
      }
    }
    if (rep == 0) out.timed_tiers = {t.tiers[0], t.tiers[1], t.tiers[2]};
    rec.lag_p99_us = percentile_or_zero(t.lag_us, 99.0);
    account(out, t);
    if (trace_rep) layers.cluster = cluster.stats();
    add_counters(layers.cache, cache_counters(cluster.stats()));

    Traffic restart_traffic;
    std::map<std::string, int64_t>& restart_cache = layers.restart_cache;
    const int32_t restart_span = tr.begin("harness.restarts", root);
    Result<std::vector<double>> r = rolling_restarts(
        cluster, w, kRestartRounds, restart_traffic, tr, restart_span, restart_cache);
    tr.end(restart_span);
    account(out, restart_traffic);
    if (!r.ok()) return fail(out, r.error_text());
    rec.restarts = *r;
    rec.steal = steal_share(steal_before, rep_start);

    if (trace_rep) {
      traced = std::move(t);
      continue;
    }
    const std::optional<Figures> f = figures_of(t, w.sequence.size(), out);
    if (!f) return;
    if (rep == 0 && opt.trace) {
      first = std::move(t);
    } else {
      samples.swap(t.latency_us);
    }
    if (rep < kWarmupReps) continue;
    rec.figures = *f;
    untraced_p50.push_back(f->p50_us);
    repetitions.push_back(std::move(rec));
  }

  if (open) {
    // Latency runs from the scheduled send time, so lateness is charged
    // to latency either way; the bound only guards the run's premise,
    // that the generator keeps offering its rate. The figures reported
    // are medians over the quiet repetitions, so the median of their
    // lateness p99s is checked: the figures then come from repetitions
    // that kept the schedule.
    std::vector<double> lag;
    std::vector<double> p50;
    std::string each;
    for (const Repetition& r : repetitions) {
      each += (each.empty() ? "" : " ") + std::to_string(std::llround(r.lag_p99_us));
    }
    for (const Repetition* r : quiet(repetitions)) {
      lag.push_back(r->lag_p99_us);
      p50.push_back(r->figures.p50_us);
    }
    layers.lag_p99_us = median(lag);
    const double bound = kMaxLagShare * median(p50);
    out.record.emplace_back("lag_p99_us_per_repetition", each);
    out.record.emplace_back("loadgen_lag_p99_us", std::to_string(layers.lag_p99_us));
    if (layers.lag_p99_us > bound) {
      fail(out, "generator fell behind its schedule: lag p99 " +
                    std::to_string(layers.lag_p99_us) + " us > " +
                    std::to_string(bound) + " us (the median latency)");
    }
  }
  if (!opt.trace) {
    end_to_end(out, repetitions, w.sequence.size(), live->image_bytes);
    return;
  }
  layers.timed = &first;
  layers.traced = &traced;
  layers.untraced_p50_us = median(untraced_p50);
  const int32_t replay = tracer.begin("harness.replay", root);
  measure_layers(w, *live->engine, live->module, opt, layers, tracer, replay, out);
  tracer.end(replay);
  tracer.end(root);
  finish_trace(tracer, opt, out);
}

// --- rollout ------------------------------------------------------------------

/// Cold-to-warm boots under closed-loop traffic until the run's time is
/// up (at least kMinBoots). A traced run adds kTracedBoots traced boots
/// after its untraced ones.
void run_rollout(const Workload& w, const RunOptions& opt, RunResult& out) {
  Tracer tracer(opt.trace);
  int32_t root = -1;  // spans the traced boots
  const std::string store = opt.work_dir + "/store";
  // The cold halves' traffic -- a fixed request sequence, so its work is
  // exact -- is what the end-to-end metrics describe; the restarts'
  // traffic is load, checked like every other response.
  std::vector<Repetition> boots;  // untraced
  Traffic traffic;                // every untraced cold half
  Traffic traced;                 // the traced boots' cold halves
  Traffic restart_traffic;
  LayerInputs layers;
  std::map<std::string, int64_t> boot_cache;  // set-up and warm-up, all boots
  std::optional<Live> last;
  const auto start = Clock::now();
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  size_t untraced_boots = 0;  // set once the untraced boots are done
  for (size_t b = 0;; ++b) {
    if (untraced_boots == 0 && b >= kMinBoots && since(start) >= untraced_s) {
      if (!opt.trace) break;
      untraced_boots = b;
    }
    if (untraced_boots > 0 && b >= untraced_boots + kTracedBoots) break;
    const bool trace_this = untraced_boots > 0;
    Tracer quiet(false);
    Tracer& tr = trace_this ? tracer : quiet;
    if (trace_this && root < 0) root = tracer.begin("harness.run");
    timed_span(tr, "serve.teardown", root, [&] { last.reset(); });
    const int64_t steal_before = steal_ticks();
    const auto boot_start = Clock::now();
    Repetition rec;
    const int32_t boot_span = tr.begin("harness.boot", root);
    Result<Live> booted = boot(w, store, 1, true, tr, boot_span, rec.cold);
    if (!booted.ok()) return fail(out, booted.error_text());
    last.emplace(std::move(booted).value());
    Live& live = *last;
    rec.cold.seconds += live.warm_traffic_s;
    rec.setup_s = live.to_created_s;
    rec.tierup_s = live.tierup_s;
    out.image_bytes = live.image_bytes;
    out.cold_counts.emplace_back(live.cold_cache["cache.compiles"],
                                 live.cold_cache["cache.disk_writes"]);
    add_counters(boot_cache, cache_counters(live.cluster->stats()));
    layers.build_us.push_back(live.build_us);
    layers.deploy_us.push_back(live.deploy_us);
    Result<std::vector<double>> r = rolling_restarts(
        *live.cluster, w, 1, restart_traffic, tr, boot_span, layers.restart_cache);
    tr.end(boot_span);
    if (!r.ok()) return fail(out, r.error_text());
    rec.restarts = *r;
    rec.steal = steal_share(steal_before, boot_start);
    absorb(trace_this ? traced : traffic, rec.cold);
    if (!trace_this) boots.push_back(std::move(rec));
  }
  account(out, traffic);
  account(out, traced);
  account(out, restart_traffic);
  for (const auto& c : out.cold_counts) {
    if (c != out.cold_counts.front()) {
      fail(out, "rollout: cold-half compile or disk-write counts differ "
                "between boots");
      break;
    }
  }
  out.record.emplace_back("boots", std::to_string(out.cold_counts.size()));
  if (!opt.trace) {
    end_to_end(out, boots, w.sequence.size(), out.image_bytes);
    return;
  }
  layers.cluster = last->cluster->stats();
  layers.cache = boot_cache;
  layers.timed = &traffic;
  layers.traced = &traced;
  layers.untraced_p50_us = percentile_or_zero(traffic.latency_us, 50.0);
  const int32_t replay = tracer.begin("harness.replay", root);
  measure_layers(w, *last->engine, last->module, opt, layers, tracer, replay, out);
  tracer.end(replay);
  tracer.end(root);
  finish_trace(tracer, opt, out);
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  RunResult out;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  out.record.emplace_back("workload", opt.workload);
  out.record.emplace_back("seed", std::to_string(opt.seed));
  out.record.emplace_back("trace", opt.trace ? "1" : "0");
  out.record.emplace_back("nproc", std::to_string(nproc));
  out.record.emplace_back(
      "threads", "client=" + std::to_string(kClientThreads) +
                     " control=" + std::to_string(kControlThreads) +
                     " workers=" + std::to_string(kShards * kWorkersPerShard) +
                     " compile=" + std::to_string(kCompileThreads));
  out.record.emplace_back("layout", std::to_string(kShards) +
                                        " shards x {x86sim host, spusim "
                                        "accelerator}, 1 worker per shard");
  if (layout_threads() > nproc) {
    fail(out, "layout needs " + std::to_string(layout_threads()) +
                  " threads but nproc is " + std::to_string(nproc));
    return out;
  }
  Result<Workload> w = make_workload(opt.workload, opt.seed);
  if (!w.ok()) {
    fail(out, w.error_text());
    return out;
  }
  out.record.emplace_back("functions", std::to_string(w->entries.size()));
  out.record.emplace_back("routing", w->routing == RoutingPolicy::LeastLoaded
                                         ? "least-loaded"
                                         : "consistent-hash");
  out.record.emplace_back("window", w->offered_rps > 0 ? "open loop"
                                                       : std::to_string(kWindow));
  out.record.emplace_back("offered_rps", std::to_string(w->offered_rps));
  if (w->drawn > 0) {
    out.record.emplace_back("rollout_drawn", std::to_string(w->drawn));
    out.record.emplace_back(
        "rollout_repeat_share",
        std::to_string(static_cast<double>(w->idempotent) /
                       static_cast<double>(w->drawn)));
  }
  std::filesystem::create_directories(opt.work_dir);
  // Host noise: the share of the run's CPU time the hypervisor gave to
  // other guests. Recorded, not corrected for.
  const int64_t steal_before = steal_ticks();
  const auto start = Clock::now();
  if (opt.workload == "rollout") {
    run_rollout(*w, opt, out);
  } else {
    run_warm_cluster(*w, opt, out);
  }
  if (steal_before >= 0) {
    const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK)) * since(start) * nproc;
    out.record.emplace_back(
        "host_steal_share",
        std::to_string(static_cast<double>(steal_ticks() - steal_before) / ticks));
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir + "/store", ec);
  return out;
}

}  // namespace perfbench
