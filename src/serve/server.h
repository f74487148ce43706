// svc::Server -- concurrent request serving over a Deployment: the layer
// between the split-compilation runtime and "heavy traffic from many
// clients". Callers submit (function, args) requests from any number of
// threads and get a std::future<Result<SimResult>> back; the server owns
// the rest:
//
//   routing      every function is routed to the core the annotation-
//                driven mapper ranks best for it (runtime/mapper.h) --
//                the same affinity Deployment::run uses, applied once at
//                server construction.
//   queueing     one bounded MPMC queue per core (support/mpmc_queue.h).
//                The bound is the admission-control watermark: a submit
//                that finds its queue full is rejected with a Result
//                error instead of growing the queue without limit.
//   workers      a fixed pool (support/thread_pool.h) drains the queues.
//                Each core is owned by exactly one worker, so execution
//                on a core is serialized and FIFO -- which is also what
//                lets concurrent clients share the deployment's linear
//                memory as long as their requests touch disjoint (or
//                read-only) regions.
//   batching     a worker pops up to batch_max requests per drain and
//                runs same-function requests back-to-back, so the tiered
//                runtime's promotion counters (tier 1) and
//                re-specialization counters (tier 2) advance from
//                aggregate traffic, not per-caller call counts: many
//                clients each calling a function once still push it past
//                promote_threshold / tier2_threshold.
//   stats        per-function and per-core-shard latency, throughput,
//                tier mix and queue pressure (serve/server_stats.h).
//
// Thread-safety: submit(), drain() and stats() are safe from any thread.
// The Server is move-only; moving it does not invalidate futures or
// in-flight requests (state lives behind a stable Impl). Destruction
// closes the queues, finishes every accepted request, and joins the
// workers -- no future returned by submit() is ever broken.
#pragma once

#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "api/deployment.h"
#include "api/engine.h"
#include "serve/server_options.h"
#include "serve/server_stats.h"
#include "support/result.h"

namespace svc {

class Server {
 public:
  /// Takes ownership of `deployment` and starts serving: spawns the
  /// worker pool and sizes the per-core queues. Fails (without starting
  /// anything) on invalid options -- every problem is reported, in the
  /// Builder's style.
  [[nodiscard]] static Result<Server> create(Deployment deployment,
                                             ServerOptions options = {});

  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;

  /// Closes the queues, completes every accepted request, joins the
  /// workers. Futures already handed out stay valid (and are all
  /// resolved by the time the destructor returns).
  ~Server();

  /// Enqueues one request for `function` on its routed core and returns
  /// a future for the result. Never blocks on execution. The future
  /// resolves with:
  ///   - the SimResult (traps travel inside it, as with Deployment::run),
  ///   - or a Result error when the function name is unknown, or when
  ///     admission control rejects the request (routed core's queue at
  ///     its watermark).
  /// Rejected/invalid submits resolve their future immediately. Safe
  /// from any thread, including concurrently with drain() and stats().
  [[nodiscard]] std::future<Result<SimResult>> submit(
      std::string_view function, std::vector<Value> args);

  /// Blocks until every accepted request so far has completed (queues
  /// empty, no worker mid-request). New submits are allowed during and
  /// after; a concurrent submit storm may keep drain() waiting.
  void drain();

  /// Snapshot of the serving counters. Counters are monotone and safe to
  /// read under load; the identities documented on ServerStats are exact
  /// once traffic has quiesced (e.g. right after drain()).
  [[nodiscard]] ServerStats stats() const;

  /// Accepted-but-unresolved requests right now (queued + mid-execution).
  /// A request leaves the count before its future resolves, so a caller
  /// that waited for its answer never sees that request still counted.
  /// Cheap -- one atomic read, no snapshot, no lock -- so a load-aware
  /// router (svc::Cluster's least-loaded policy) can consult it per
  /// decision. Safe from any thread; instantaneous, not monotone.
  [[nodiscard]] uint64_t inflight() const;

  /// The core requests for `function` route to (fixed at creation), or
  /// an error for an unknown name.
  [[nodiscard]] Result<size_t> routed_core(std::string_view function) const;

  [[nodiscard]] size_t num_workers() const;
  [[nodiscard]] size_t num_cores() const;
  [[nodiscard]] const ServerOptions& options() const;

  /// The served deployment. Direct Deployment calls remain legal while
  /// the server runs under the deployment's own concurrency contract
  /// (api/deployment.h): they execute on the caller's thread, unrouted
  /// and unbatched, and bypass the server's queues and stats.
  [[nodiscard]] Deployment& deployment();
  [[nodiscard]] const Deployment& deployment() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Convenience composition of the facade: deploys `module` onto `cores`
/// with `engine`'s runtime configuration, then serves the deployment
/// with the engine's ServerOptions (Engine::Builder::serving).
[[nodiscard]] Result<Server> serve(const Engine& engine,
                                   const ModuleHandle& module,
                                   std::vector<CoreSpec> cores);

}  // namespace svc
