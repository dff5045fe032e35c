#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace popbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanBuffer::Add(int64_t parent, int64_t request, const char* name,
                        const char* layer, double start_us, double end_us) {
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.layer = layer;
  s.start_us = start_us;
  s.end_us = std::max(start_us, end_us);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredUs(std::vector<std::pair<double, double>> intervals, double lo,
                 double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

std::map<std::string, double> LayerSelfUs(const std::vector<Span>& spans,
                                          const std::string& root_layer) {
  std::unordered_map<int64_t, const Span*> by_id;
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_us, s.end_us);
  }
  // A span counts when its chain of parents ends at a root_layer root.
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent != 0) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) return static_cast<const Span*>(nullptr);
      cur = it->second;
    }
    return cur;
  };
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const Span* root = root_of(s);
    if (root == nullptr || root->layer != root_layer) continue;
    const double self =
        s.dur_us() - CoveredUs(kids[s.id], s.start_us, s.end_us);
    out[s.parent == 0 ? "unattributed" : s.layer] += self;
  }
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans, size_t max_spans,
                      const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  const size_t n = std::min(spans.size(), max_spans);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%lld,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld}}%s\n",
                 s.name, s.layer, s.start_us, s.dur_us(),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 i + 1 < n ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace popbench
