// Minimal HTTP/1.1 client for the benchmark's query load and output checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.hpp"

namespace umon::perfbench {

struct HttpResult {
  int status = 0;  ///< 0 = transport error
  std::string body;
};

/// One GET on a fresh connection to 127.0.0.1:port.
[[nodiscard]] HttpResult http_get(std::uint16_t port,
                                  const std::string& target);

/// Closed-loop load on one keep-alive connection driven by the calling
/// thread: the next request goes out only after the previous response
/// arrived.
class QueryClient {
 public:
  struct Request {
    Call kind = Call::kServeMetrics;
    std::string target;
  };
  struct Sample {
    Call kind = Call::kServeMetrics;
    int status = 0;
    double latency_us = 0;
  };
  using NextFn = std::function<Request()>;

  QueryClient(std::uint16_t port, NextFn next, SpanLog& log)
      : port_(port), next_(std::move(next)), log_(log) {}

  /// Runs until `stop` is set (live mode) or `max_requests` have been sent
  /// (0 = unlimited); an in-flight request is always completed. With
  /// `allowance`, request n is sent only once *allowance > n: the caller
  /// raises it and notifies to release requests, and raises it once more
  /// after setting `stop`. Returns the wall time during which a request was
  /// in flight, in ns.
  std::int64_t run(const std::atomic<bool>& stop, std::uint64_t max_requests,
                   const std::atomic<std::uint64_t>* allowance = nullptr);

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::uint16_t port_;
  NextFn next_;
  SpanLog& log_;
  std::uint64_t sent_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace umon::perfbench
