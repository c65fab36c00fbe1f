#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "metrics.h"

namespace perfbench {

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint64_t SpanRecorder::new_op() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

std::uint64_t SpanRecorder::begin(const char* name,
                                  std::uint64_t parent, std::uint64_t op) {
  if (!enabled_) return 0;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = name;
  s.start_s = t;
  s.end_s = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id, std::uint64_t bytes) {
  if (id == 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  if (id <= spans_.size()) {
    spans_[id - 1].end_s = t;
    spans_[id - 1].bytes = bytes;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::to_json() const {
  const auto all = spans();
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": \"" + json_escape(s.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.op) +
           ", \"ts\": " + json_number(s.start_s * 1e6) +
           ", \"dur\": " + json_number(s.duration() * 1e6) +
           ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"bytes\": " + std::to_string(s.bytes) + "}}";
  }
  return out + "]}\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent id, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<std::size_t> index_of;
  std::uint64_t max_id = 0;
  for (const auto& s : spans) max_id = std::max(max_id, s.id);
  index_of.assign(max_id + 1, spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  for (const auto& s : spans) {
    if (s.parent == 0 || s.parent > max_id) continue;
    const std::size_t p = index_of[s.parent];
    if (p == spans.size()) continue;
    const double lo = std::max(s.start_s, spans[p].start_s);
    const double hi = std::min(s.end_s, spans[p].end_s);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[spans[i].name];
    t.self_s += self[i];
    t.total_s += spans[i].duration();
    t.bytes += spans[i].bytes;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
