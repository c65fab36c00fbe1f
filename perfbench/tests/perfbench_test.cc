// Unit tests of the benchmark's own machinery: span self time, the
// percentile rule, metric-name validation and the report's output shape.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Appends a finished span with explicit times; returns its id.
std::uint64_t add(std::vector<Span>& spans, std::uint64_t parent,
                  const char* name, double start, double end,
                  std::uint64_t bytes = 0) {
  Span s;
  s.id = spans.size() + 1;
  s.parent = parent;
  s.op = 1;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.bytes = bytes;
  spans.push_back(s);
  return s.id;
}

TEST(SpanSelfTime, NestedChildrenAreSubtractedOnce) {
  std::vector<Span> spans;
  const auto root = add(spans, 0, "op.root", 0, 10);
  const auto a = add(spans, root, "A", 1, 4);
  add(spans, root, "B", 3, 6);     // overlaps A: union is [1, 6]
  add(spans, a, "A.child", 2, 3);  // grandchild: only A loses it
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 10 - 5);  // root minus union of A and B
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);   // A minus its child
  EXPECT_DOUBLE_EQ(self[2], 3);       // B has no children
  EXPECT_DOUBLE_EQ(self[3], 1);
}

TEST(SpanSelfTime, ChildTimeOutsideTheParentIsIgnored) {
  std::vector<Span> spans;
  const auto root = add(spans, 0, "op.root", 2, 6);
  add(spans, root, "late", 5, 9);  // only [5, 6] counts
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 3);
  EXPECT_DOUBLE_EQ(self[1], 4);
}

TEST(SpanSelfTime, LayerTimesSumSelfTotalAndBytesPerName) {
  std::vector<Span> spans;
  const auto r1 = add(spans, 0, "op.snapshot", 0, 4);
  add(spans, r1, "hash", 0, 1, 100);
  const auto r2 = add(spans, 0, "op.snapshot", 10, 13);
  add(spans, r2, "hash", 10, 12, 50);
  const auto layers = layer_times(spans);
  EXPECT_DOUBLE_EQ(layers.at("hash").self_s, 3);
  EXPECT_EQ(layers.at("hash").bytes, 150u);
  EXPECT_EQ(layers.at("hash").count, 2u);
  EXPECT_DOUBLE_EQ(layers.at("op.snapshot").total_s, 7);
  EXPECT_DOUBLE_EQ(layers.at("op.snapshot").self_s, 4);
}

TEST(SpanRecorder, ScopesNestAndDisabledRecorderRecordsNothing) {
  SpanRecorder rec;
  const auto op = rec.new_op();
  {
    SpanRecorder::Scope outer(rec, "outer", 0, op);
    SpanRecorder::Scope inner(rec, "inner", outer.id(), op);
    inner.set_bytes(7);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].op, spans[0].op);
  EXPECT_EQ(spans[1].bytes, 7u);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);

  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "x", 0, off.new_op()); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(19).has_value());
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);    // 9.9 beyond p90: not enough
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(100, 5), 95.0);
}

TEST(PercentileRule, SummaryReportsMedianQuartilesAndTail) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const auto d = summarize(v);
  EXPECT_EQ(d.n, 100u);
  EXPECT_DOUBLE_EQ(d.median, 50.5);
  EXPECT_DOUBLE_EQ(d.q1, 25.75);
  EXPECT_DOUBLE_EQ(d.q3, 75.25);
  ASSERT_TRUE(d.tail_level.has_value());
  EXPECT_EQ(*d.tail_level, 90.0);
  EXPECT_DOUBLE_EQ(d.tail_value, 90.1);

  const auto small = summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(small.median, 2);
  EXPECT_FALSE(small.tail_level.has_value());
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(MetricNames, ValidationFollowsTheNamingRule) {
  for (const char* ok : {"setup_s", "core.run_s", "a-b_c.d", "9lives", "X"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a:b", "é"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("MB/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
}

TEST(MetricNames, EveryPerLayerNameIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto& m : per_layer_specs()) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  EXPECT_EQ(seen.size(), 54u);
}

TEST(MetricSet, RejectsInvalidDuplicateAndNonFinite) {
  MetricSet m;
  m.set("host_mbps", "MB/s", 12.5);
  EXPECT_THROW(m.set("host_mbps", "MB/s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("bad name", "s", 1), std::invalid_argument);
  EXPECT_THROW(m.set("x", "bad unit", 1), std::invalid_argument);
  EXPECT_THROW(m.set("nan", "s", std::nan("")), std::invalid_argument);
  EXPECT_THROW(
      m.set("inf", "s", std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_EQ(m.to_json(), "{\"host_mbps\": {\"value\": 12.5, \"unit\": \"MB/s\"}}");
}

TEST(OutputShape, NumbersRoundTripWithAllTheirDigits) {
  for (const double v : {0.1, 1.0 / 3.0, 123456.789012345678, 1e-9, 0.0}) {
    EXPECT_EQ(std::stod(json_number(v)), v);
  }
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(OutputShape, ReportJsonCarriesTheResultFields) {
  Report r;
  r.workload = "chunk_stream";
  r.seed = 7;
  r.reps = 3;
  r.attempted = 4;
  r.metrics.set("host_mbps", "MB/s", 100.25);
  r.samples["host_mbps"] = {99, 100.25, 101};
  r.gates["chunks_equal_serial"] = {4, 0};
  EXPECT_TRUE(r.correct());
  const auto json = r.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);
  for (const char* key :
       {"\"correct\": true", "\"attempted\": 4", "\"failed\": 0",
        "\"metrics\": {\"host_mbps\": {\"value\": 100.25, \"unit\": \"MB/s\"}}",
        "\"n\": 3", "\"tail_level\": null",
        "\"chunks_equal_serial\": {\"checks\": 4, \"failures\": 0}"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  r.gates["chunks_equal_serial"].failures = 1;
  EXPECT_FALSE(r.correct());
  r.gates["chunks_equal_serial"].failures = 0;
  r.attempted = 0;
  EXPECT_FALSE(r.correct());  // nothing attempted is not a pass
}

TEST(Workloads, UnknownWorkloadIsRejected) {
  RunOptions o;
  o.workload = "nope";
  EXPECT_THROW(run_workload(o), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
