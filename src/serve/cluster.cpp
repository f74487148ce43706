#include "serve/cluster.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

namespace svc {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// FNV-1a, the ring hash: stable across platforms (routing must not
// depend on std::hash), good enough spread for virtual-node placement.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv1a(std::string_view bytes) {
  uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv1a_mix(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::future<Result<SimResult>> immediate_failure(std::string message) {
  std::promise<Result<SimResult>> promise;
  promise.set_value(Result<SimResult>::failure(std::move(message)));
  return promise.get_future();
}

}  // namespace

struct Cluster::Impl {
  // One shard: a Server over its own Deployment, plus the routing state
  // the cluster keeps about it. `mu` guards `server` (swapped by
  // restart) and `load_ewma`; `health` is atomic so routing can consult
  // it lock-free -- the authoritative re-check happens under `mu` right
  // before handing a request to the Server, which is what makes
  // drain(shard) lose nothing (see submit()).
  struct Shard {
    std::mutex mu;
    std::shared_ptr<Server> server;       // null only while Down
    std::atomic<ShardHealth> health{ShardHealth::Serving};
    std::atomic<uint64_t> routed{0};
    std::atomic<uint64_t> restarts{0};
    double load_ewma = 0.0;  // under mu (LeastLoaded scoring)
  };

  Impl(Engine engine_in, ModuleHandle module_in,
       std::vector<CoreSpec> shard_cores_in, ClusterOptions opts_in)
      : engine(std::move(engine_in)),
        module(std::move(module_in)),
        shard_cores(std::move(shard_cores_in)),
        opts(std::move(opts_in)) {}

  Engine engine;             // for restart(): re-deploy with same config
  ModuleHandle module;
  std::vector<CoreSpec> shard_cores;
  ClusterOptions opts;
  std::vector<std::unique_ptr<Shard>> shards;

  // Consistent-hash ring: (point, shard), sorted by point. Built once --
  // membership is fixed; health changes re-route by walking the ring.
  std::vector<std::pair<uint64_t, size_t>> ring;

  // Serializes lifecycle transitions (drain(shard), restart, profile
  // merges) against each other. Lock order: lifecycle_mu before any
  // Shard::mu; submit() only ever takes one Shard::mu and never
  // lifecycle_mu while holding it.
  std::mutex lifecycle_mu;

  // Bumped before every health transition (set_health), which
  // lifecycle_mu serializes. A submit reads it before scanning health:
  // if the scan found no Serving shard and the epoch is unchanged
  // afterwards, the health values it read were the fleet's state at one
  // instant, so no shard was Serving. A changed epoch means a transition
  // raced the scan, which may have read shard 0 just before restart(0)
  // returned it to Serving and shard 1 just after restart(1) took it
  // Down. The epoch and the health scan use sequentially consistent
  // atomics, on which this argument rests.
  std::atomic<uint64_t> health_epoch{0};

  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> routed{0};
  std::atomic<uint64_t> rejected_unroutable{0};
  std::atomic<uint64_t> profile_merges{0};

  // Caller holds lifecycle_mu and shard.mu.
  void set_health(Shard& shard, ShardHealth health) {
    health_epoch.fetch_add(1);
    shard.health.store(health);
  }

  void build_ring() {
    ring.reserve(shards.size() * opts.virtual_nodes);
    for (size_t s = 0; s < shards.size(); ++s) {
      for (size_t v = 0; v < opts.virtual_nodes; ++v) {
        ring.emplace_back(fnv1a_mix(fnv1a_mix(kFnvOffset, s), v), s);
      }
    }
    std::sort(ring.begin(), ring.end());
  }

  // The ring answer ignoring health (what routed_shard reports); the
  // health-aware walk lives in pick_consistent_hash.
  [[nodiscard]] size_t ring_home(std::string_view function) const {
    const uint64_t h = fnv1a(function);
    auto it = std::lower_bound(ring.begin(), ring.end(),
                               std::make_pair(h, size_t{0}));
    if (it == ring.end()) it = ring.begin();
    return it->second;
  }

  // Walks the ring from the function's point to the first Serving
  // shard; SIZE_MAX when no shard serves.
  [[nodiscard]] size_t pick_consistent_hash(std::string_view function) const {
    const uint64_t h = fnv1a(function);
    auto it = std::lower_bound(ring.begin(), ring.end(),
                               std::make_pair(h, size_t{0}));
    for (size_t step = 0; step < ring.size(); ++step) {
      if (it == ring.end()) it = ring.begin();
      const size_t s = it->second;
      if (shards[s]->health.load() == ShardHealth::Serving) return s;
      ++it;
    }
    return SIZE_MAX;
  }

  // Scores every Serving shard by its in-flight EWMA, rounded to the
  // nearest whole queue level, and picks the minimum level; shards on
  // the same level rotate round-robin. The rounding is what makes the
  // spread even: raw EWMAs are almost never exactly equal (decay tails
  // linger), so comparing them directly would chase sub-request noise
  // and pile consecutive picks onto whichever shard decayed furthest,
  // while whole levels only separate shards that differ by real queued
  // work.
  [[nodiscard]] size_t pick_least_loaded() {
    size_t best = SIZE_MAX;
    uint64_t best_level = 0;
    std::vector<size_t> ties;
    for (size_t s = 0; s < shards.size(); ++s) {
      Shard& shard = *shards[s];
      if (shard.health.load() != ShardHealth::Serving) continue;
      uint64_t level = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (!shard.server ||
            shard.health.load(kRelaxed) != ShardHealth::Serving) {
          continue;
        }
        const double now = static_cast<double>(shard.server->inflight());
        shard.load_ewma = opts.load_ewma_alpha * now +
                          (1.0 - opts.load_ewma_alpha) * shard.load_ewma;
        level = static_cast<uint64_t>(shard.load_ewma + 0.5);
      }
      if (best == SIZE_MAX || level < best_level) {
        best = s;
        best_level = level;
        ties.clear();
        ties.push_back(s);
      } else if (level == best_level) {
        ties.push_back(s);
      }
    }
    if (ties.size() > 1) {
      // Same load level: level the *cumulative* counts, so a shard that
      // fell behind while busy (or just restarted) catches up instead
      // of the fleet drifting apart one tie at a time.
      size_t least = ties[0];
      uint64_t least_routed = shards[least]->routed.load(kRelaxed);
      for (size_t i = 1; i < ties.size(); ++i) {
        const uint64_t r = shards[ties[i]]->routed.load(kRelaxed);
        if (r < least_routed) {
          least = ties[i];
          least_routed = r;
        }
      }
      return least;
    }
    return best;
  }

  std::future<Result<SimResult>> submit(std::string_view function,
                                        std::vector<Value> args) {
    submitted.fetch_add(1, kRelaxed);
    // A picked shard can leave Serving between the pick and the lock
    // (a concurrent drain); re-pick until a shard accepts under its own
    // lock. Each retry proves some shard changed health. The request is
    // refused only on a scan that saw no Serving shard while no shard
    // changed health (see health_epoch).
    for (;;) {
      const uint64_t epoch = health_epoch.load();
      const size_t s = opts.routing == RoutingPolicy::ConsistentHash
                           ? pick_consistent_hash(function)
                           : pick_least_loaded();
      if (s == SIZE_MAX) {
        if (health_epoch.load() == epoch) break;
        continue;
      }
      Shard& shard = *shards[s];
      std::future<Result<SimResult>> future;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shard.health.load(kRelaxed) != ShardHealth::Serving ||
            !shard.server) {
          continue;  // re-routed: nothing was moved out of `args` yet
        }
        // Enqueued while the shard is provably Serving under its lock:
        // a concurrent drain(s) flips health under this same lock and
        // then waits out the Server's queue, so this request -- and
        // every request accepted before the flip -- completes.
        future = shard.server->submit(function, std::move(args));
      }
      shard.routed.fetch_add(1, kRelaxed);
      const uint64_t n = routed.fetch_add(1, kRelaxed) + 1;
      if (opts.profile_merge_interval > 0 &&
          n % opts.profile_merge_interval == 0) {
        merge_profiles_round();
      }
      return future;
    }
    rejected_unroutable.fetch_add(1, kRelaxed);
    return immediate_failure(
        "cluster: no Serving shard available to route the request");
  }

  // One merge round (see Cluster::merge_profiles): snapshot all, seed
  // each shard with its peers' merge, return the fleet aggregate.
  ProfileData merge_profiles_round() {
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu);
    std::vector<ProfileData> own(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
      std::lock_guard<std::mutex> lock(shards[s]->mu);
      if (shards[s]->server) {
        own[s] = shards[s]->server->deployment().soc().profile();
      }
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      std::vector<const ProfileData*> peers;
      peers.reserve(shards.size() - 1);
      for (size_t p = 0; p < shards.size(); ++p) {
        if (p != s) peers.push_back(&own[p]);
      }
      ProfileData seed = svc::merge_profiles(peers);
      std::lock_guard<std::mutex> lock(shards[s]->mu);
      if (shards[s]->server) {
        shards[s]->server->deployment().soc().seed_profile(seed);
      }
    }
    std::vector<const ProfileData*> all;
    all.reserve(shards.size());
    for (const ProfileData& p : own) all.push_back(&p);
    profile_merges.fetch_add(1, kRelaxed);
    return svc::merge_profiles(all);
  }

  // Deploys one fresh shard Deployment: engine config + memory_init.
  Result<Deployment> deploy_shard() {
    Result<Deployment> dep = engine.deploy(module, shard_cores);
    if (dep.ok() && opts.memory_init) opts.memory_init(dep->memory());
    return dep;
  }
};

Result<Cluster> Cluster::create(const Engine& engine,
                                const ModuleHandle& module,
                                std::vector<CoreSpec> shard_cores,
                                ClusterOptions options) {
  std::vector<Diagnostic> problems;
  validate_cluster_options(options, problems);
  if (!problems.empty()) return Result<Cluster>::failure(std::move(problems));

  auto impl = std::make_unique<Impl>(engine, module, std::move(shard_cores),
                                     std::move(options));
  for (size_t s = 0; s < impl->opts.shards; ++s) {
    Result<Deployment> dep = impl->deploy_shard();
    if (!dep.ok()) return Result<Cluster>::failure(dep.error());
    Result<Server> server =
        Server::create(std::move(dep).value(), engine.options().server);
    if (!server.ok()) return Result<Cluster>::failure(server.error());
    auto shard = std::make_unique<Impl::Shard>();
    shard->server = std::make_shared<Server>(std::move(server).value());
    impl->shards.push_back(std::move(shard));
  }
  impl->build_ring();
  return Cluster(std::move(impl));
}

Cluster::Cluster(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Cluster::Cluster(Cluster&&) noexcept = default;
Cluster& Cluster::operator=(Cluster&&) noexcept = default;
Cluster::~Cluster() = default;

std::future<Result<SimResult>> Cluster::submit(std::string_view function,
                                               std::vector<Value> args) {
  return impl_->submit(function, std::move(args));
}

void Cluster::drain() {
  for (auto& shard : impl_->shards) {
    std::shared_ptr<Server> server;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      server = shard->server;
    }
    if (server) server->drain();
  }
}

Result<void> Cluster::drain(size_t shard_idx) {
  if (shard_idx >= impl_->shards.size()) {
    return Result<void>::failure("cluster: drain() of out-of-range shard " +
                                 std::to_string(shard_idx));
  }
  std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
  Impl::Shard& shard = *impl_->shards[shard_idx];
  std::shared_ptr<Server> server;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.server) {
      return Result<void>::failure("cluster: drain() of Down shard " +
                                   std::to_string(shard_idx));
    }
    // From here no submit hands this shard another request: submits
    // re-check health under shard.mu before enqueueing.
    impl_->set_health(shard, ShardHealth::Draining);
    server = shard.server;
  }
  server->drain();
  return {};
}

Result<void> Cluster::restart(size_t shard_idx) {
  if (shard_idx >= impl_->shards.size()) {
    return Result<void>::failure("cluster: restart() of out-of-range shard " +
                                 std::to_string(shard_idx));
  }
  std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
  Impl::Shard& shard = *impl_->shards[shard_idx];

  // Take the shard out of the fleet. Its accepted requests finish in
  // the old Server's destructor (which drains queues and joins
  // workers), so nothing is lost even when restart() is called on a
  // shard under live traffic.
  std::shared_ptr<Server> old;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    impl_->set_health(shard, ShardHealth::Down);
    old = std::move(shard.server);
    shard.server.reset();
  }
  if (old) {
    old->drain();
    old.reset();
  }

  // Fresh Deployment from the same engine: same module, cores, cache
  // budget and persistent store; memory re-initialized.
  Result<Deployment> dep = impl_->deploy_shard();
  if (!dep.ok()) return Result<void>::failure(dep.error());

  // Seed the newcomer with the traffic its peers observed, so its
  // tier-2 decisions resume at fleet scope instead of from zero.
  std::vector<ProfileData> peer_profiles;
  peer_profiles.reserve(impl_->shards.size());
  for (size_t p = 0; p < impl_->shards.size(); ++p) {
    if (p == shard_idx) continue;
    std::lock_guard<std::mutex> lock(impl_->shards[p]->mu);
    if (impl_->shards[p]->server) {
      peer_profiles.push_back(
          impl_->shards[p]->server->deployment().soc().profile());
    }
  }
  std::vector<const ProfileData*> peers;
  peers.reserve(peer_profiles.size());
  for (const ProfileData& p : peer_profiles) peers.push_back(&p);
  dep->soc().seed_profile(svc::merge_profiles(peers));

  // Re-warm before taking traffic. With a persistent store this loads
  // every artifact from disk -- zero JIT compiles on a warm store
  // (tests/cluster_test.cpp asserts exactly that).
  dep->warm_up().get();

  Result<Server> server =
      Server::create(std::move(dep).value(), impl_->engine.options().server);
  if (!server.ok()) return Result<void>::failure(server.error());
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.server = std::make_shared<Server>(std::move(server).value());
    impl_->set_health(shard, ShardHealth::Serving);
  }
  shard.restarts.fetch_add(1, kRelaxed);
  return {};
}

void Cluster::warm_up() {
  std::vector<std::future<void>> warm;
  {
    std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
    for (auto& shard : impl_->shards) {
      std::lock_guard<std::mutex> lock(shard->mu);
      if (shard->server) warm.push_back(shard->server->deployment().warm_up());
    }
  }
  for (std::future<void>& f : warm) f.get();
}

ProfileData Cluster::merge_profiles() { return impl_->merge_profiles_round(); }

ModuleHandle Cluster::export_profile() const {
  std::lock_guard<std::mutex> lifecycle(impl_->lifecycle_mu);
  std::vector<ProfileData> own;
  own.reserve(impl_->shards.size());
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->server) {
      own.push_back(shard->server->deployment().soc().profile());
    }
  }
  std::vector<const ProfileData*> parts;
  parts.reserve(own.size());
  for (const ProfileData& p : own) parts.push_back(&p);
  return ModuleHandle::adopt(
      attach_profile(*impl_->module, svc::merge_profiles(parts)));
}

Result<ShardHealth> Cluster::shard_health(size_t shard) const {
  if (shard >= impl_->shards.size()) {
    return Result<ShardHealth>::failure(
        "cluster: shard_health() of out-of-range shard " +
        std::to_string(shard));
  }
  return impl_->shards[shard]->health.load(kRelaxed);
}

Result<size_t> Cluster::routed_shard(std::string_view function) const {
  if (impl_->opts.routing != RoutingPolicy::ConsistentHash) {
    return Result<size_t>::failure(
        "cluster: routed_shard() is only defined for consistent-hash "
        "routing (least-loaded picks per request)");
  }
  return impl_->ring_home(function);
}

size_t Cluster::num_shards() const { return impl_->shards.size(); }

const ClusterOptions& Cluster::options() const { return impl_->opts; }

ClusterStats Cluster::stats() const {
  ClusterStats stats;
  stats.submitted = impl_->submitted.load(kRelaxed);
  stats.routed = impl_->routed.load(kRelaxed);
  stats.rejected_unroutable = impl_->rejected_unroutable.load(kRelaxed);
  stats.profile_merges = impl_->profile_merges.load(kRelaxed);
  std::vector<ServerStats> per_shard;
  per_shard.reserve(impl_->shards.size());
  for (size_t s = 0; s < impl_->shards.size(); ++s) {
    Impl::Shard& shard = *impl_->shards[s];
    ShardStats ss;
    ss.shard = s;
    ss.health = shard.health.load(kRelaxed);
    ss.routed = shard.routed.load(kRelaxed);
    ss.restarts = shard.restarts.load(kRelaxed);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.server) ss.server = shard.server->stats();
    }
    per_shard.push_back(ss.server);
    stats.shards.push_back(std::move(ss));
  }
  stats.aggregate = aggregate_server_stats(per_shard);
  return stats;
}

Result<Cluster> serve_cluster(const Engine& engine, const ModuleHandle& module,
                              std::vector<CoreSpec> shard_cores) {
  return Cluster::create(engine, module, std::move(shard_cores),
                         engine.options().cluster);
}

}  // namespace svc
