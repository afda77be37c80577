#include "spans.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/json.h"

namespace perfbench {

namespace {

int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_intervals[it->second].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, spans[i].duration_ns() - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return totals;
}

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNanos()) {}

int64_t SpanRecorder::Now() const { return SteadyNanos() - origin_ns_; }

int64_t SpanRecorder::Add(int64_t parent, std::string name,
                          std::string query_id, int64_t start_ns,
                          int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.query_id = std::move(query_id);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  using presto::Json;
  std::vector<int64_t> self = SelfTimes(spans);
  Json list = Json::Array();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json item = Json::Object();
    item.Set("id", Json::Int(s.id))
        .Set("parent", Json::Int(s.parent))
        .Set("name", Json::Str(s.name))
        .Set("query_id", Json::Str(s.query_id))
        .Set("start_ns", Json::Int(s.start_ns))
        .Set("end_ns", Json::Int(s.end_ns))
        .Set("self_ns", Json::Int(self[i]));
    list.Append(std::move(item));
  }
  Json totals = Json::Object();
  for (const auto& [name, t] : TotalsByName(spans)) {
    Json item = Json::Object();
    item.Set("count", Json::Int(t.count))
        .Set("total_ns", Json::Int(t.total_ns))
        .Set("self_ns", Json::Int(t.self_ns));
    totals.Set(name, std::move(item));
  }
  Json doc = Json::Object();
  doc.Set("totals", std::move(totals)).Set("spans", std::move(list));
  return doc.Serialize();
}

}  // namespace perfbench
