// Self-tests of the benchmark's own measurement helpers (stats.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "stats.h"

namespace itask::servbench {
namespace {

std::vector<double> one_to(int64_t n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnExactInputs) {
  EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(100), 0.99), 99.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(1), 0.99), 1.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({5.0, 1.0, 3.0}, 0.5), 3.0);  // unsorted input
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(min_samples_for(0.99), 1000);
  EXPECT_EQ(min_samples_for(0.5), 20);
  EXPECT_EQ(min_samples_for(0.9), 100);
  EXPECT_EQ(min_samples_for(0.999), 10000);
  // At exactly 1000 samples the p99 rank leaves 10 samples beyond it.
  EXPECT_DOUBLE_EQ(quantile(one_to(1000), 0.99), 990.0);
}

TEST(SloAccounting, RejectionsFailuresAndExpiriesAreMisses) {
  const std::vector<RequestRecord> records = {
      {Outcome::kCompleted, 100.0}, {Outcome::kCompleted, 900.0},
      {Outcome::kCompleted, 1000.0}, {Outcome::kCompleted, 1000.5},
      {Outcome::kRejected, 0.0},     {Outcome::kFailed, 0.0},
      {Outcome::kExpired, 0.0},      {Outcome::kRejected, 0.0}};
  const SloAccount a = account(records, 1000.0);
  EXPECT_EQ(a.attempted, 8);
  EXPECT_EQ(a.completed, 4);
  EXPECT_EQ(a.met, 3);  // the limit is inclusive; 1000.5 misses
  EXPECT_EQ(a.rejected, 2);
  EXPECT_EQ(a.failed, 1);
  EXPECT_EQ(a.expired, 1);
  EXPECT_DOUBLE_EQ(a.attain_frac(), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(a.failed_frac(), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(account({}, 1.0).attain_frac(), 0.0);
}

TEST(Rates, ClosedLoopRateIsTheFastestPercentileOfCycles) {
  std::vector<RequestRecord> records;
  // 1000 cycles of 4 images, one every 2 ms except every tenth, slowed by a
  // neighbour to 3 ms; a rejection carries no images and no cycle.
  double t = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    t += i % 10 == 0 ? 0.003 : 0.002;
    records.push_back({Outcome::kCompleted, 1.0, t, 4});
  }
  records.push_back({Outcome::kRejected, 0.0, t + 1.0, 0});
  EXPECT_NEAR(closed_loop_rate(records), 4.0 / 0.002, 1e-6);
  EXPECT_DOUBLE_EQ(closed_loop_rate({records.front()}), 0.0);
  // Out-of-order records are cycled in finish order.
  std::reverse(records.begin(), records.end());
  EXPECT_NEAR(closed_loop_rate(records), 4.0 / 0.002, 1e-6);
}

TEST(Rates, CompletedRateCountsCompletedImages) {
  const std::vector<RequestRecord> records = {
      {Outcome::kCompleted, 1.0, 0.1, 3}, {Outcome::kCompleted, 1.0, 0.2, 1},
      {Outcome::kExpired, 0.0, 0.3, 0}, {Outcome::kRejected, 0.0, 0.3, 0}};
  EXPECT_DOUBLE_EQ(completed_rate(records, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(completed_rate(records, 0.0), 0.0);
}

TEST(Windowed, ChunkedTailIgnoresOneSlowChunk) {
  std::vector<RequestRecord> records;
  for (int c = 0; c < 3; ++c) {
    for (int i = 1; i <= 1000; ++i) {
      const double slow = c == 1 ? 10.0 : 1.0;  // one chunk in a slow spell
      records.push_back({Outcome::kCompleted, i * slow, 0.0, 1});
    }
  }
  records.push_back({Outcome::kRejected, 0.0, 0.0, 0});
  const auto p99 = chunked_quantile(records, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  records.resize(999);
  EXPECT_FALSE(chunked_quantile(records, 0.99).has_value());
  EXPECT_EQ(completed_latencies(records).size(), 999u);
}

runtime::LoadGenOptions mix() {
  runtime::LoadGenOptions o;
  o.tasks = 4;
  o.zipf_s = 1.1;
  o.scenes = 64;
  o.group_fraction = 0.2;
  o.group_views = 3;
  return o;
}

bool same_schedule(const std::vector<runtime::GeneratedRequest>& a,
                   const std::vector<runtime::GeneratedRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_us != b[i].arrival_us ||
        a[i].task_index != b[i].task_index || a[i].scene != b[i].scene ||
        a[i].views != b[i].views || a[i].view_seed != b[i].view_seed) {
      return false;
    }
  }
  return true;
}

TEST(Schedule, DeterministicBySeedAndPhase) {
  const auto a = phase_schedule(mix(), 2000.0, 0.5, 7, 1);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_TRUE(same_schedule(a, phase_schedule(mix(), 2000.0, 0.5, 7, 1)));
  EXPECT_FALSE(same_schedule(a, phase_schedule(mix(), 2000.0, 0.5, 8, 1)));
  EXPECT_FALSE(same_schedule(a, phase_schedule(mix(), 2000.0, 0.5, 7, 2)));
  int64_t groups = 0;
  for (const auto& r : a) groups += r.views > 1 ? 1 : 0;
  EXPECT_GT(groups, 100);  // ~20% of 1000
  EXPECT_LT(groups, 300);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const auto& x,
                                                    const auto& y) {
    return x.arrival_us < y.arrival_us;
  }));
}

TEST(ResultLine, KeysAndRoundTripDigits) {
  const std::string line = result_json(
      true, 12, 0, {{"latency_ms", {1.2034567891, "ms"}},
                    {"setup_s", {0.1, "s"}}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567891, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": "
            "\"s\"}}}");
}

}  // namespace
}  // namespace itask::servbench
