#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

bool PickPercentile(const std::vector<double>& sorted, double q, size_t min_beyond,
                    double* value) {
  const size_t n = sorted.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return false;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t index = std::max<size_t>(rank, 1) - 1;
  if (n - 1 - index < min_beyond) return false;
  *value = sorted[index];
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<Metric> EndToEnd::AsMetrics() const {
  return {
      {"setup_s", "s", setup_s},
      {"ops_per_s", "1/s", ops_per_s},
      {"latency_p50_ms", "ms", latency_p50_ms},
      {"latency_p99_ms", "ms", latency_p99_ms},
      {"cpu_ms_per_op", "ms", cpu_ms_per_op},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

SpanLog::SpanLog(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

void SpanLog::Record(const char* name, uint64_t id, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({name, id, us(start), us(end)});
}

void SpanLog::Merge(SpanLog&& other) {
  const size_t room = kMaxSpans - std::min(kMaxSpans, spans_.size());
  const size_t take = std::min(room, other.spans_.size());
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.begin() + take);
  other.spans_.clear();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\": \"%s\", \"id\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 span.name, static_cast<unsigned long long>(span.id), span.start_us, span.end_us);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
