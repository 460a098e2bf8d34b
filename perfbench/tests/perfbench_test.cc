// Unit tests of the benchmark: the serving correctness oracle, the traced
// run's coverage arithmetic and shape replay, the result line and the
// metric catalogue.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "perfbench.h"
#include "util/check.h"

namespace perfbench {
namespace {

using namespace comet;

ServeOptions TinyServe() {
  ServeOptions o;
  o.model.name = "perfbench-test";
  o.model.layers = 1;
  o.model.num_experts = 4;
  o.model.topk = 2;
  o.model.embedding = 16;
  o.model.ffn_hidden = 32;
  o.parallel = ParallelConfig{1, 2};
  o.seed = 5;
  o.num_threads = 1;
  o.token_budget = 16;
  o.max_active = 8;
  return o;
}

std::vector<RequestSpec> Burst(int n) {
  std::vector<RequestSpec> out;
  for (int i = 0; i < n; ++i) {
    RequestSpec r;
    r.id = i;
    r.seed = 1000 + static_cast<uint64_t>(i);
    r.prompt_tokens = 3 + i % 5;
    r.decode_tokens = 2 + i % 3;
    out.push_back(r);
  }
  return out;
}

TEST(OracleTest, ServedAloneMatchesTheLoadedRun) {
  const ClusterSpec cluster = H800Cluster(2);
  const std::vector<RequestSpec> arrivals = Burst(8);
  MoeServer loaded(TinyServe(), cluster);
  const ServeReport report = loaded.Serve(arrivals);
  ASSERT_EQ(report.completed.size(), arrivals.size());

  MoeServer solo(TinyServe(), cluster);
  for (const RequestSpec& spec : arrivals) {
    EXPECT_TRUE(ServedAloneMatches(solo, spec, report.completed)) << spec.id;
  }
}

TEST(OracleTest, DetectsAFlippedDigestAndAMissingRecord) {
  const ClusterSpec cluster = H800Cluster(2);
  const std::vector<RequestSpec> arrivals = Burst(4);
  MoeServer loaded(TinyServe(), cluster);
  std::vector<RequestRecord> records = loaded.Serve(arrivals).completed;
  MoeServer solo(TinyServe(), cluster);

  records[1].output_digest ^= 1;  // one bit of one request's output
  EXPECT_FALSE(ServedAloneMatches(solo, arrivals[1], records));
  EXPECT_TRUE(ServedAloneMatches(solo, arrivals[2], records));
  records.erase(records.begin() + 2);
  EXPECT_FALSE(ServedAloneMatches(solo, arrivals[2], records));
}

TEST(OracleTest, DifferentWeightsFailTheOracle) {
  const ClusterSpec cluster = H800Cluster(2);
  const std::vector<RequestSpec> arrivals = Burst(3);
  MoeServer loaded(TinyServe(), cluster);
  const ServeReport report = loaded.Serve(arrivals);
  ServeOptions other = TinyServe();
  other.seed = 6;
  MoeServer solo(other, cluster);
  EXPECT_FALSE(ServedAloneMatches(solo, arrivals[0], report.completed));
}

TEST(CoverageTest, CountsGateRoutePlanAndTheExecutorOnce) {
  LayerBreakdown layers;
  layers.gate_route_us = 10.0;
  layers.route_plan_us = 5.0;
  layers.run_batch_functional_us = 60.0;
  // Parts of the functional run: must not be counted again.
  layers.run_batch_timed_us = 3.0;
  layers.group_gemm_us = 30.0;
  layers.activation_us = 12.0;
  EXPECT_DOUBLE_EQ(TraceCoverage(layers, 100.0), 0.75);
  EXPECT_DOUBLE_EQ(TraceCoverage(layers, 0.0), 0.0);
}

TEST(CoverageTest, ReplayWeightsShapesAndCoversEveryIteration) {
  const ServeOptions options = TinyServe();
  const ClusterSpec cluster = H800Cluster(2);
  const LayerBreakdown layers =
      ReplayShapes(options, cluster, {{8, 3}, {16, 1}}, /*budget_s=*/30.0);
  EXPECT_EQ(layers.shapes_replayed, 2);
  EXPECT_DOUBLE_EQ(layers.iterations_covered, 1.0);
  EXPECT_GT(layers.gate_route_us, 0.0);
  EXPECT_GT(layers.route_plan_us, 0.0);
  EXPECT_GT(layers.group_gemm_us, 0.0);
  EXPECT_GT(layers.activation_us, 0.0);
  EXPECT_GT(layers.put_row_ns, 0.0);
  EXPECT_GT(layers.copy_row_ns, 0.0);
  EXPECT_GT(layers.run_batch_functional_us, layers.run_batch_timed_us);
  // GEMM FLOPs per iteration follow from the shapes: every (token, expert)
  // row runs both layers, 2 * N * K FLOPs each; weighted (3 * 8 + 16) / 4.
  const double rows_per_iter = (3.0 * 8 + 16) / 4.0 * options.model.topk;
  EXPECT_DOUBLE_EQ(layers.group_gemm_flops,
                   rows_per_iter * 2.0 * 2.0 * options.model.embedding *
                       options.model.ffn_hidden);
  EXPECT_GT(TraceCoverage(layers, 1e9), 0.0);

  // A zero budget still replays the most frequent shape, and says so.
  const LayerBreakdown partial =
      ReplayShapes(options, cluster, {{8, 3}, {16, 1}}, /*budget_s=*/0.0);
  EXPECT_EQ(partial.shapes_replayed, 1);
  EXPECT_DOUBLE_EQ(partial.iterations_covered, 0.75);
}

TEST(ResultLineTest, EndToEndNeedsEveryMetricPerLayerDefaultsToZero) {
  RunResult r;
  r.attempted = 10;
  r.failed = 0;
  for (const MetricDef& m : EndToEndMetrics()) {
    r.Set(m.name, 1.5);
  }
  const std::string line = ResultLine(r, /*trace=*/false);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": "
                       "\"s\"}",
                       0),
            0u)
      << line;
  const std::string traced = ResultLine(r, /*trace=*/true);
  EXPECT_NE(traced.find("\"error_rate\": {\"value\": 0, \"unit\": \"ratio\"}"),
            std::string::npos);
  EXPECT_EQ(traced.find("setup_s"), std::string::npos);

  RunResult missing;
  missing.Set("setup_s", 1.0);
  EXPECT_THROW(ResultLine(missing, false), CheckError);

  r.failed = 2;
  EXPECT_EQ(ResultLine(r, false).rfind("{\"correct\": false", 0), 0u);
}

TEST(MetricNamesTest, NamesAndUnitsAreWellFormedAndUnique) {
  std::set<std::string> seen;
  const auto check = [&](const MetricDef& m) {
    const std::string name(m.name);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    ASSERT_FALSE(name.empty());
    EXPECT_LE(name.size(), 64u);
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0]))) << name;
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == '.' || c == '-')
          << name;
    }
    EXPECT_LE(m.unit.size(), 16u);
    for (const char c : m.unit) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                  std::string_view("_/%.-").find(c) != std::string_view::npos)
          << m.unit;
    }
  };
  for (const MetricDef& m : EndToEndMetrics()) {
    check(m);
  }
  for (const MetricDef& m : PerLayerMetrics()) {
    check(m);
  }
  EXPECT_EQ(EndToEndMetrics()[0].name, "setup_s");
  EXPECT_EQ(EndToEndMetrics()[0].unit, "s");
}

TEST(SetupTest, TimesBuildsBackToBackWithoutTheirTeardown) {
  // Each build takes 1 ms and its teardown 4 ms; only the build is timed.
  struct SlowTeardown {
    ~SlowTeardown() { std::this_thread::sleep_for(std::chrono::milliseconds(4)); }
  };
  int64_t builds = 0;
  const double setup_s = SetupSeconds([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++builds;
    return std::make_unique<SlowTeardown>();
  });
  EXPECT_GE(setup_s, 0.001);
  EXPECT_LT(setup_s, 0.004);
  // A sample is many builds, not one.
  EXPECT_GT(builds, 4 * kSetupSamples);
}

TEST(StatsTest, ThroughputComesFromTheDenoisedRun) {
  // Three runs of the same work (100 tokens, two evaluations of 0.3 s and
  // 0.5 s, 0.2 s outside them), each slowed by noise somewhere else: in its
  // first evaluation, its second, or between them.
  std::vector<RunSample> runs = {
      {1.0 + 0.4, 100.0, 2.0, {0.7e6, 0.5e6}},
      {1.0 + 0.1, 100.0, 2.0, {0.3e6, 0.6e6}},
      {1.0 + 0.3, 100.0, 2.0, {0.3e6, 0.5e6}},
  };
  EXPECT_DOUBLE_EQ(DenoisedRunSeconds(runs), 1.0);
  RunResult r;
  SetThroughputMetrics(runs, &r);
  EXPECT_DOUBLE_EQ(r.metrics["host_tokens_per_s"], 100.0);
  EXPECT_DOUBLE_EQ(r.metrics["layer_sims_per_s"], 2.0);
  EXPECT_DOUBLE_EQ(r.metrics["iter_host_us_p50"], 0.3e6);
  EXPECT_DOUBLE_EQ(r.metrics["iter_host_us_p99"], 0.5e6);

  // Runs of the same work push the same tokens.
  runs[1].tokens = 99.0;
  EXPECT_THROW(SetThroughputMetrics(runs, &r), CheckError);
}

TEST(StatsTest, EvaluationTimesAreDenoisedAcrossRuns) {
  // Four runs of the same 100 evaluations: evaluation k takes 10 us, except
  // the last one, which takes 50 us, and every run has two evaluations
  // slowed to 1000 us by noise, at different places in each run.
  std::vector<RunSample> runs(4);
  for (int r = 0; r < 4; ++r) {
    for (int k = 0; k < 100; ++k) {
      runs[r].eval_us.push_back(k == 99 ? 50.0 : 10.0);
    }
    runs[r].eval_us[static_cast<size_t>(10 * r)] = 1000.0;
    runs[r].eval_us[static_cast<size_t>(10 * r + 5)] = 1000.0;
    runs[r].host_s = 1.0;
    runs[r].tokens = 100.0;
    runs[r].layer_evals = 100.0;
  }
  const std::vector<double> eval_us = PerEvaluationUs(runs);
  ASSERT_EQ(eval_us.size(), 100u);
  EXPECT_EQ(eval_us[0], 10.0);
  EXPECT_EQ(eval_us[99], 50.0);

  RunResult r;
  SetThroughputMetrics(runs, &r);
  // Pooled, the noisy evaluations would be the p99 (8 of 400).
  EXPECT_DOUBLE_EQ(r.metrics["iter_host_us_p50"], 10.0);
  EXPECT_DOUBLE_EQ(r.metrics["iter_host_us_p99"], 10.0);
  // The slowest evaluation is a real one, not noise.
  EXPECT_EQ(Quantile(eval_us, 1.0), 50.0);

  runs[2].eval_us.pop_back();
  EXPECT_THROW(PerEvaluationUs(runs), CheckError);
}

TEST(StatsTest, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT_EQ(Quantile(v, 0.50), 50.0);
  EXPECT_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

}  // namespace
}  // namespace perfbench
