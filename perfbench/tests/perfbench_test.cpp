// Unit tests of the benchmark's own arithmetic: span self time, the Chrome
// trace reader, module attribution, percentiles and the result line.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attribution.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

SpanRow row(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
            std::string name = "s") {
  return SpanRow{id, parent, std::move(name), start, end};
}

TEST(SelfTime, SpanWithoutChildrenKeepsItsDuration) {
  const auto self = self_times({row(1, 0, 10, 110)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 100);
}

TEST(SelfTime, OverlappingChildrenAreCoveredOnce) {
  // Children cover [10,40] and [30,60]: 50 ns covered, not 60.
  const auto self = self_times({row(1, 0, 0, 100), row(2, 1, 10, 40), row(3, 1, 30, 60)});
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, AsyncChildIsClippedToItsParent) {
  // The child outlives the parent: only [80,100] is charged to the parent.
  const auto self = self_times({row(1, 0, 0, 100), row(2, 1, 80, 150)});
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[1], 70);
}

TEST(SelfTime, ChildStartingAfterItsParentEndedCoversNothing) {
  const auto self = self_times({row(1, 0, 0, 100), row(2, 1, 120, 130)});
  EXPECT_EQ(self[0], 100);
  EXPECT_EQ(self[1], 10);
}

TEST(SelfTime, GrandchildrenChargeOnlyTheirDirectParent) {
  const auto self = self_times({row(1, 0, 0, 100), row(2, 1, 10, 90), row(3, 2, 20, 30)});
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 70);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, UnknownParentAndChildOrderDoNotMatter) {
  // Parent 9 is not in the table (dropped); children listed before parent.
  const auto self = self_times({row(3, 1, 50, 70), row(2, 9, 0, 5), row(1, 0, 40, 100)});
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 5);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, AdjacentChildrenLeaveNoGap) {
  const auto self = self_times({row(1, 0, 0, 100), row(2, 1, 0, 50), row(3, 1, 50, 100)});
  EXPECT_EQ(self[0], 0);
}

TEST(Attribution, ModulesSumSelfTimeOfTheirSpanNames) {
  SpanSummary summary;
  accumulate(summary, {row(1, 0, 0, 1000, "client.request"),
                       row(2, 1, 100, 600, "coord.send"),
                       row(3, 2, 200, 300, "rep.execute"),
                       row(4, 3, 220, 260, "orb.dispatch"),
                       row(5, 2, 300, 300, "gcs.order"),
                       row(6, 0, 0, 10, "not.a.module")});
  EXPECT_EQ(layer_self_ns(summary, "client"), 500);
  EXPECT_EQ(layer_self_ns(summary, "replication"), 400 + 60);
  EXPECT_EQ(layer_self_ns(summary, "orb"), 40);
  EXPECT_EQ(layer_self_ns(summary, "gcs"), 0);
  EXPECT_EQ(span_count(summary, "gcs.order"), 1u);
  EXPECT_EQ(layer_of("not.a.module"), "");
  EXPECT_EQ(layer_of("rep.checkpoint"), "checkpoint");
  EXPECT_EQ(layer_of("shard.route"), "shard");
}

TEST(ChromeTrace, ReadsBackTheTracerTable) {
  vdep::SimTime now{0};
  vdep::obs::Tracer tracer([&] { return now; });
  tracer.enable();
  {
    now = vdep::SimTime{1'234};
    vdep::obs::Span root = tracer.start_span("client.request", "orb", "client0@h0");
    root.note("op", "process \"quoted\"");
    now = vdep::SimTime{5'001};
    vdep::obs::Span child =
        tracer.start_span("coord.send", "replication", "client0@h0", root.context());
    now = vdep::SimTime{9'999'999};
    child.end();
    now = vdep::SimTime{10'000'000};
  }
  const auto expected = rows_from_tracer(tracer);
  const auto parsed = rows_from_chrome_trace(vdep::obs::to_chrome_trace(tracer));
  ASSERT_EQ(parsed.size(), expected.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].id, expected[i].id);
    EXPECT_EQ(parsed[i].parent, expected[i].parent);
    EXPECT_EQ(parsed[i].name, expected[i].name);
    EXPECT_EQ(parsed[i].start_ns, expected[i].start_ns);
    EXPECT_EQ(parsed[i].end_ns, expected[i].end_ns);
  }
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 100), 4.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, HistogramMedianInterpolatesInsideItsBucket) {
  vdep::LogHistogram hist;
  for (int i = 0; i < 100; ++i) hist.add(1000.0 + i * 0.5);  // straddles two buckets
  const double m = histogram_median(hist);
  EXPECT_GT(m, hist.percentile(50));
  EXPECT_NEAR(m, 1025.0, 1.0);
  EXPECT_DOUBLE_EQ(histogram_median(vdep::LogHistogram{}), 0.0);
}

TEST(Report, JsonListsOnlyTheNamedMetricsAndTheChecks) {
  Result r;
  r.add("requests_per_s", "1/s", Clock::kHost, 12.5);
  r.add("sim_latency_p50_us", "us", Clock::kSim, 3.25);
  r.add("extra", "count", Clock::kSim, 1);
  r.attempted = 10;
  r.failed = 1;
  r.problems.push_back("one");
  EXPECT_EQ(render_json(r, {"requests_per_s", "sim_latency_p50_us"}),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": "
            "{\"requests_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, "
            "\"sim_latency_p50_us\": {\"value\": 3.25, \"unit\": \"us\"}}}");
}

TEST(Report, DigestCoversSimMetricsOnly) {
  Result a;
  a.add("requests_per_s", "1/s", Clock::kHost, 1.0);
  a.add("sim_latency_p50_us", "us", Clock::kSim, 2.0);
  Result b = a;
  b.metrics[0].value = 99.0;
  EXPECT_EQ(digest_of(a.metrics), digest_of(b.metrics));
  b.metrics[1].value = 2.0000001;
  EXPECT_NE(digest_of(a.metrics), digest_of(b.metrics));
}

TEST(Workloads, KnowsItsWorkloadsAndMetricNames) {
  EXPECT_EQ(workload_names().size(), 4u);
  EXPECT_EQ(end_to_end_names().front(), "requests_per_s");
  EXPECT_FALSE(per_layer_names().empty());
  EXPECT_THROW((void)run_workload("nope", RunOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
