// The benchmark's own tests: its measurement helpers, and the
// determinism it promises (same seed, same deterministic columns).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "layers.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOverEverySample) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p50 = exact_percentile(v, 50.0);
  ASSERT_TRUE(p50);
  EXPECT_EQ(p50->value, 500.0);
  EXPECT_EQ(p50->samples, 1000u);
  EXPECT_EQ(p50->beyond, 500u);
  const auto p99 = exact_percentile(v, 99.0);
  ASSERT_TRUE(p99);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->beyond, 10u);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  std::vector<double> v(999, 1.0);
  EXPECT_FALSE(exact_percentile(v, 99.0));  // only 9 samples beyond
  EXPECT_TRUE(exact_percentile(v, 50.0));
  EXPECT_FALSE(exact_percentile({}, 50.0));
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Median, FastestQuarter) {
  EXPECT_EQ(fastest_quarter_median({9, 1, 8, 2, 7, 6, 5, 4}), 1.5);
  EXPECT_EQ(fastest_quarter_median({3, 1, 2}), 1.0);  // at least one value
  EXPECT_EQ(fastest_quarter_median({}), 0.0);
}

TEST(Zipf, FrequenciesFollowTheLaw) {
  const ZipfSampler zipf(32, 1.0);
  double total = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) total += zipf.probability(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(1), 2.0, 1e-9);
  svc::Rng rng(7);
  std::vector<int> counts(32, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (size_t r : {0u, 1u, 7u, 31u}) {
    EXPECT_NEAR(counts[r] / static_cast<double>(n), zipf.probability(r), 0.01);
  }
}

TEST(Zipf, SameSeedSameDraws) {
  const ZipfSampler zipf(32, 1.0);
  svc::Rng a(11);
  svc::Rng b(11);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.sample(a), zipf.sample(b));
}

TEST(SelfTime, ChildrenCoverageIsAUnion) {
  EXPECT_EQ(covered_ns({{0, 10}, {5, 15}, {20, 30}}, 0, 25), 20);
  EXPECT_EQ(covered_ns({{0, 10}, {2, 4}}, 0, 100), 10);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
}

TEST(SelfTime, SubtractsChildSpansPerLayer) {
  Tracer t(true);
  const int32_t root = t.record("harness.run", 0, 100);
  const int32_t req = t.record("serve.request", 10, 60, root, 1);
  t.record("serve.submit", 10, 20, req, 1);
  t.record("serve.request", 40, 90, root, 2);  // overlaps the first
  t.record("jit.compile", 92, 97, root);
  const SelfTimes s = self_times(t.spans(), t.names());
  EXPECT_EQ(s.total_ns, 100);
  // harness: 100 minus the union of [10,90] and [92,97].
  EXPECT_EQ(s.layer_ns.at("harness"), 15);
  // serve: (50 - 10) + 50 + 10 for the submit itself.
  EXPECT_EQ(s.layer_ns.at("serve"), 100);
  EXPECT_EQ(s.layer_ns.at("jit"), 5);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  EXPECT_EQ(t.begin("serve.submit"), -1);
  t.end(-1);
  EXPECT_TRUE(t.spans().empty());
}

TEST(Workloads, OracleAnswersEveryTemplate) {
  for (const std::string& name : workload_names()) {
    const svc::Result<Workload> w = make_workload(name, 3);
    ASSERT_TRUE(w.ok()) << w.error_text();
    EXPECT_FALSE(w->templates.empty());
    EXPECT_FALSE(w->sequence.empty());
    for (const Template& t : w->templates) {
      EXPECT_EQ(t.expected_trap, svc::TrapKind::None) << name << " " << t.name;
    }
  }
  EXPECT_FALSE(make_workload("nope", 1).ok());
}

TEST(Workloads, KernelMixDoesNotMoveWithTheSeed) {
  const svc::Result<Workload> a = make_workload("steady_mix", 1);
  const svc::Result<Workload> b = make_workload("steady_mix", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->entries, b->entries);
  EXPECT_NE(a->sequence, b->sequence);
}

/// Share of the workload's request sequence that the server routes to
/// the spusim accelerator (core 1 of a shard); -1 when serving fails.
double accelerator_share(const Workload& w) {
  svc::Result<svc::Engine> engine = svc::Engine::Builder().build();
  if (!engine.ok()) return -1.0;
  svc::Result<svc::ModuleHandle> module = engine->compile(w.source);
  if (!module.ok()) return -1.0;
  svc::Result<svc::Deployment> dep = engine->deploy(*module, shard_cores());
  if (!dep.ok()) return -1.0;
  svc::Result<svc::Server> server = svc::Server::create(std::move(dep).value());
  if (!server.ok()) return -1.0;
  size_t accelerator = 0;
  for (uint32_t t : w.sequence) {
    accelerator += *server->routed_core(w.templates[t].name) == 1 ? 1 : 0;
  }
  return static_cast<double>(accelerator) / static_cast<double>(w.sequence.size());
}

TEST(Workloads, OverloadOpenSplitsItsRequestsBetweenTheCores) {
  // The open loop's latency is one full queue's drain time only when the
  // queues of both cores of a shard overflow, so each core needs about
  // half the requests. steady_mix keeps the Table 1 order, which gives
  // the accelerator about a fifth.
  const svc::Result<Workload> open = make_workload("overload_open", 1);
  const svc::Result<Workload> mix = make_workload("steady_mix", 1);
  ASSERT_TRUE(open.ok() && mix.ok());
  EXPECT_NEAR(accelerator_share(*open), 0.5, 0.05);
  EXPECT_NEAR(accelerator_share(*mix), 0.21, 0.05);
}

TEST(BenchmarkJson, ListsEveryLayerMetric) {
  std::ifstream file(PERFBENCH_JSON);
  ASSERT_TRUE(file) << PERFBENCH_JSON;
  std::stringstream text;
  text << file.rdbuf();
  for (const auto& [name, unit] : layer_metrics()) {
    EXPECT_NE(text.str().find("{\"name\": \"" + name + "\", \"unit\": \"" + unit +
                              "\""),
              std::string::npos)
        << name;
  }
}

RunResult run(const std::string& workload, uint64_t seed) {
  RunOptions opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.seconds = 0.3;
  // Relative to the working directory: run.py runs the tests inside the
  // build directory.
  opt.work_dir = "test_work/" + workload + "-" + std::to_string(seed);
  RunResult r = run_workload(opt);
  std::filesystem::remove_all(opt.work_dir);
  return r;
}

class Determinism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Determinism, SteadyMixRepeatsItsExactColumns) {
  const RunResult a = run("steady_mix", GetParam());
  const RunResult b = run("steady_mix", GetParam());
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors.front());
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors.front());
  EXPECT_EQ(a.image_bytes, b.image_bytes);
  EXPECT_NE(a.timed_cycles_per_pass, 0u);
  EXPECT_EQ(a.timed_cycles_per_pass, b.timed_cycles_per_pass);
  const auto share = [](const RunResult& r) {
    const double n = static_cast<double>(r.timed_tiers[0] + r.timed_tiers[1] +
                                         r.timed_tiers[2]);
    return std::vector<double>{r.timed_tiers[0] / n, r.timed_tiers[1] / n,
                               r.timed_tiers[2] / n};
  };
  EXPECT_EQ(share(a), share(b));
  EXPECT_EQ(a.timed_compiles, 0u);
  EXPECT_EQ(b.timed_compiles, 0u);
  // Rolling restarts under traffic included, no request fails.
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
}

TEST_P(Determinism, OverloadOpenCompilesNothingWhileTimed) {
  const RunResult a = run("overload_open", GetParam());
  const RunResult b = run("overload_open", GetParam());
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors.front());
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors.front());
  EXPECT_EQ(a.image_bytes, b.image_bytes);
  EXPECT_EQ(a.timed_compiles, 0u);
  EXPECT_EQ(b.timed_compiles, 0u);
  // Admission refusals are not failures; nothing else may fail.
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
}

TEST_P(Determinism, RolloutColdHalfRepeatsEveryBoot) {
  const RunResult a = run("rollout", GetParam());
  const RunResult b = run("rollout", GetParam());
  ASSERT_TRUE(a.correct) << (a.errors.empty() ? "" : a.errors.front());
  ASSERT_TRUE(b.correct) << (b.errors.empty() ? "" : b.errors.front());
  EXPECT_EQ(a.image_bytes, b.image_bytes);
  ASSERT_FALSE(a.cold_counts.empty());
  for (const auto& c : b.cold_counts) EXPECT_EQ(c, a.cold_counts.front());
  EXPECT_GT(a.cold_counts.front().first, 0);
  EXPECT_GT(a.cold_counts.front().second, 0);
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, Determinism, ::testing::Values(1u, 2u));

}  // namespace
}  // namespace perfbench
