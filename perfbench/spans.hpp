// Span recorder for the pipeline benchmark's traced runs.
//
// Every call the benchmark makes into a pipeline layer can be wrapped in a
// Scope. A span records which call it was, the id it belongs to ((host,
// epoch) for pipeline calls, the request number for queries), its start and
// duration, and the span that was open around it on the same thread, so a
// layer's self time is its duration minus its children's. Spans stay in
// memory (one log per thread) and are summarized or written out after the
// run. A disabled log records nothing, so untraced runs pay one branch per
// call site.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

namespace umon::perfbench {

enum class Call : std::uint8_t {
  kSketchUpdate,
  kSketchFlush,
  kCollectorEncode,
  kCollectorSubmit,
  kCollectorSeal,
  kCollectorDrain,
  kResilienceSend,
  kResilienceTick,
  kAnalyzerQueryRate,
  kStoreSeal,
  kStoreMaintain,
  kStoreScrub,
  kStoreQuery,
  kHealthObserve,
  kHealthTick,
  kServePublish,
  kServeQueryFlow,
  kServeQueryHost,
  kServeQueryAll,
  kServeMetrics,
  kCount
};
inline constexpr std::size_t kCallCount = static_cast<std::size_t>(Call::kCount);

/// "<layer>.<call>", e.g. "sketch.update".
[[nodiscard]] const char* call_name(Call c);
/// The repo module the call belongs to, e.g. "sketch".
[[nodiscard]] const char* layer_of(Call c);

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Call call = Call::kSketchUpdate;
  std::int32_t parent = -1;  ///< index into the same log, -1 = top level
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Shared id of a pipeline span: (host, epoch) packed into one word.
[[nodiscard]] constexpr std::uint64_t host_epoch_id(int host,
                                                    std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
         epoch;
}

/// Spans of one thread. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::size_t open(Call c, std::uint64_t id) {
    if (!enabled_) return kNone;
    Span s;
    s.call = c;
    s.id = id;
    s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    if (idx == kNone) return;
    spans_[idx].dur_ns = now_ns() - spans_[idx].start_ns;
    stack_.pop_back();
  }

  /// A top-level span timed by the caller (requests that overlap on one
  /// thread cannot use the open/close stack).
  void record(Call c, std::uint64_t id, std::int64_t start_ns,
              std::int64_t dur_ns) {
    if (enabled_) spans_.push_back(Span{c, -1, id, start_ns, dur_ns});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Append another log's spans (re-based parent indices).
  void absorb(const SpanLog& other);
  /// One tab-separated line per span: call, parent, id, start, duration.
  void write_tsv(std::ostream& os, const char* thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, Call c, std::uint64_t id = 0)
      : log_(log), idx_(log.open(c, id)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::size_t idx_;
};

struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< inclusive
  std::int64_t self_ns = 0;   ///< minus child spans
  double p50_us = 0;
  double p99_us = 0;
};

struct SpanSummary {
  std::array<CallStats, kCallCount> calls{};
  std::int64_t top_level_ns = 0;  ///< sum of parentless span durations
  std::int64_t self_sum_ns = 0;   ///< sum of every span's self time
};

[[nodiscard]] SpanSummary summarize(const std::vector<Span>& spans);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace umon::perfbench
