// Measurement helpers of the serving-cost benchmark, kept apart from the
// workload drivers so servbench_selftest can check them on exact inputs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/loadgen.h"

namespace itask::servbench {

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// The percentile rule: the fewest samples that support a q-quantile, i.e.
/// leave at least `min_beyond` samples beyond its rank (1000 for p99).
int64_t min_samples_for(double q, int64_t min_beyond = 10);

/// How one attempted request ended.
enum class Outcome { kCompleted, kRejected, kFailed, kExpired };

struct RequestRecord {
  Outcome outcome = Outcome::kCompleted;
  double latency_us = 0.0;  // due time -> result ready; completed only
  double finish_s = 0.0;    // result ready, seconds from the phase start
  int64_t images = 0;       // images the request carried; completed only
};

/// Latency-limit accounting over every *attempted* request: a rejected,
/// failed or expired request counts as a miss, whatever its latency.
struct SloAccount {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t met = 0;  // completed within the limit
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t expired = 0;

  double attain_frac() const;
  /// (rejected + failed + expired) / attempted.
  double failed_frac() const;
};

SloAccount account(const std::vector<RequestRecord>& records,
                   double limit_us);

/// Images per second of a closed loop at its fastest percentile: each
/// completion's images over the time since the previous completion (the
/// loop's cycle), and the 99th percentile of those rates. A shared host's
/// neighbours only ever add time to a cycle, so the fastest percentile of
/// thousands of cycles tracks the program's own cost where a whole-phase
/// mean tracks the neighbours. 0 with fewer than two completions.
double closed_loop_rate(const std::vector<RequestRecord>& records);

/// Images completed per second of `seconds` (an open loop's throughput: the
/// offered load while it keeps up).
double completed_rate(const std::vector<RequestRecord>& records,
                      double seconds);

/// Latencies of the completed requests, in record order.
std::vector<double> completed_latencies(
    const std::vector<RequestRecord>& records);

/// Tail latency robust to slow spells: completed latencies, in record
/// order, are cut into equal chunks that each support the q-quantile by the
/// percentile rule, and the median of the chunks' q-quantiles is returned.
/// nullopt when the requests cannot fill one chunk.
std::optional<double> chunked_quantile(
    const std::vector<RequestRecord>& records, double q);

/// Open-loop schedule for one phase of a run: runtime::generate_schedule
/// over `options` with `requests` = rate * duration, seeded from the
/// workload seed and the phase index so every phase of a run draws its own
/// arrivals and the whole run is a pure function of the seed.
std::vector<runtime::GeneratedRequest> phase_schedule(
    runtime::LoadGenOptions options, double rate_rps, double seconds,
    uint64_t seed, int64_t phase);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`, values printed with every digit
/// needed to round-trip.
std::string result_json(bool correct, int64_t attempted, int64_t failed,
                        const std::map<std::string, Metric>& metrics);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace itask::servbench
