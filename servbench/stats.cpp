#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "tensor/rng.h"

namespace itask::servbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<int64_t>(samples.size());
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))) - 1, 0,
      n - 1);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[static_cast<size_t>(rank)];
}

int64_t min_samples_for(double q, int64_t min_beyond) {
  return static_cast<int64_t>(
      std::ceil(static_cast<double>(min_beyond) / (1.0 - q) - 1e-9));
}

double SloAccount::attain_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(met) /
                              static_cast<double>(attempted);
}

double SloAccount::failed_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(rejected + failed + expired) /
                              static_cast<double>(attempted);
}

SloAccount account(const std::vector<RequestRecord>& records,
                   double limit_us) {
  SloAccount a;
  for (const RequestRecord& r : records) {
    ++a.attempted;
    switch (r.outcome) {
      case Outcome::kCompleted:
        ++a.completed;
        if (r.latency_us <= limit_us) ++a.met;
        break;
      case Outcome::kRejected:
        ++a.rejected;
        break;
      case Outcome::kFailed:
        ++a.failed;
        break;
      case Outcome::kExpired:
        ++a.expired;
        break;
    }
  }
  return a;
}

double closed_loop_rate(const std::vector<RequestRecord>& records) {
  std::vector<std::pair<double, double>> done;  // (finish_s, images)
  for (const RequestRecord& r : records) {
    if (r.outcome == Outcome::kCompleted) {
      done.emplace_back(r.finish_s, static_cast<double>(r.images));
    }
  }
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (size_t i = 1; i < done.size(); ++i) {
    const double cycle_s = done[i].first - done[i - 1].first;
    if (cycle_s > 0.0) rates.push_back(done[i].second / cycle_s);
  }
  return quantile(std::move(rates), 0.99);
}

double completed_rate(const std::vector<RequestRecord>& records,
                      double seconds) {
  double images = 0.0;
  for (const RequestRecord& r : records) {
    if (r.outcome == Outcome::kCompleted) images += static_cast<double>(r.images);
  }
  return seconds > 0.0 ? images / seconds : 0.0;
}

std::vector<double> completed_latencies(
    const std::vector<RequestRecord>& records) {
  std::vector<double> latencies;
  for (const RequestRecord& r : records) {
    if (r.outcome == Outcome::kCompleted) latencies.push_back(r.latency_us);
  }
  return latencies;
}

std::optional<double> chunked_quantile(
    const std::vector<RequestRecord>& records, double q) {
  const std::vector<double> latencies = completed_latencies(records);
  const auto n = static_cast<int64_t>(latencies.size());
  const int64_t chunks = n / min_samples_for(q);
  if (chunks < 1) return std::nullopt;
  std::vector<double> per_chunk;
  for (int64_t c = 0; c < chunks; ++c) {
    const auto begin = latencies.begin() + c * n / chunks;
    const auto end = latencies.begin() + (c + 1) * n / chunks;
    per_chunk.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(std::move(per_chunk), 0.5);
}

std::vector<runtime::GeneratedRequest> phase_schedule(
    runtime::LoadGenOptions options, double rate_rps, double seconds,
    uint64_t seed, int64_t phase) {
  options.rate_rps = rate_rps;
  options.requests =
      std::max<int64_t>(1, static_cast<int64_t>(std::llround(rate_rps * seconds)));
  Rng rng(seed * 1'000'003ULL + static_cast<uint64_t>(phase) * 7919ULL + 17ULL);
  return runtime::generate_schedule(options, rng);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, int64_t attempted, int64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace itask::servbench
