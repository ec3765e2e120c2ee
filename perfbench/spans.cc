// Statistics helpers and the in-memory span log of traced runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench.h"

namespace xprel::perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return (lo + hi) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::Begin(const char* name, uint64_t request) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, request, parent, NowNs(), 0});
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanLog::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  // Spans nest strictly (one client thread), so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

std::string SpanLog::SelfTimeTable() const {
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double child_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += ms;
    if (s.parent >= 0) rows[spans_[static_cast<size_t>(s.parent)].name].child_ms += ms;
  }
  std::string out = "span                      count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-24s %7llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.total_ms - r.child_ms);
    out += line;
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace xprel::perfbench
