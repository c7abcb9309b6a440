#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace umon::perfbench {

namespace {

struct CallInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<CallInfo, kCallCount> kCalls{{
    {"sketch.update", "sketch"},
    {"sketch.flush_reports", "sketch"},
    {"collector.encode_epoch", "collector"},
    {"collector.submit", "collector"},
    {"collector.seal_epoch", "collector"},
    {"collector.drain", "collector"},
    {"resilience.send", "resilience"},
    {"resilience.tick", "resilience"},
    {"analyzer.query_rate", "analyzer"},
    {"store.seal_epoch", "store"},
    {"store.maintain", "store"},
    {"store.scrub", "store"},
    {"store.query", "store"},
    {"health.observe", "health"},
    {"health.tick", "health"},
    {"serve.publish", "serve"},
    {"serve.query_flow", "serve"},
    {"serve.query_host", "serve"},
    {"serve.query_all", "serve"},
    {"serve.metrics", "serve"},
}};

}  // namespace

const char* call_name(Call c) {
  return kCalls[static_cast<std::size_t>(c)].name;
}

const char* layer_of(Call c) {
  return kCalls[static_cast<std::size_t>(c)].layer;
}

void SpanLog::absorb(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

void SpanLog::write_tsv(std::ostream& os, const char* thread) const {
  for (const Span& s : spans_) {
    os << thread << '\t' << call_name(s.call) << '\t' << s.parent << '\t'
       << s.id << '\t' << s.start_ns << '\t' << s.dur_ns << '\n';
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
    } else {
      out.top_level_ns += s.dur_ns;
    }
  }
  std::array<std::vector<double>, kCallCount> durations;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    CallStats& cs = out.calls[static_cast<std::size_t>(s.call)];
    const std::int64_t self = s.dur_ns - child_ns[i];
    ++cs.calls;
    cs.total_ns += s.dur_ns;
    cs.self_ns += self;
    out.self_sum_ns += self;
    durations[static_cast<std::size_t>(s.call)].push_back(
        static_cast<double>(s.dur_ns) / 1e3);
  }
  for (std::size_t c = 0; c < kCallCount; ++c) {
    out.calls[c].p50_us = percentile(durations[c], 0.50);
    out.calls[c].p99_us = percentile(durations[c], 0.99);
  }
  return out;
}

}  // namespace umon::perfbench
