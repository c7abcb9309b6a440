// bench_obs_overhead: cost of the always-on cycle profiler (umon::obs).
//
//   bench_obs_overhead [--ms N] [--max-overhead-pct X] [--max-disabled-ns Y]
//
// Two contracts, both CI-gated:
//
//   * disabled path: a UMON_PROF_SCOPE on a hot path must cost one relaxed
//     load and a branch when profiling is off — measured as ns/op over a
//     tight scope-construction loop, gated by --max-disabled-ns (CI: 5 ns,
//     the same budget as the telemetry shims);
//   * enabled path: with sampling on, the shipped umon::pipeline run (sketch
//     updates through collector decode and analyzer ingest — every
//     instrumented stage on its real call path) must stay within
//     --max-overhead-pct of its uninstrumented wall time (CI: 2%).
//
// Best-of-3 per mode: scheduling noise only ever inflates a run. The
// enabled/disabled pipeline runs alternate so frequency drift lands on
// both modes evenly.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/prof.hpp"
#include "pipeline/pipeline.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace umon;

/// One run of the shipped pipeline; returns wall nanoseconds of run().
/// Same config as bench_health_overhead, with the profiler as the only
/// difference between the two modes.
double run_once(Nanos duration, bool with_prof) {
  pipeline::Config cfg;
  cfg.duration = duration;
  pipeline::Pipeline p(cfg);

  // Calibration (~2 ms spin) happens outside the timed region: it is a
  // one-time startup cost, not a per-run tax.
  if (with_prof) obs::prof_enable();
  const std::uint64_t t0 = telemetry::monotonic_ns();
  p.run();
  const double ns = static_cast<double>(telemetry::monotonic_ns() - t0);
  if (with_prof) obs::prof_disable();
  return ns;
}

/// ns/op of a disabled UMON_PROF_SCOPE, best of 3.
double disabled_scope_ns() {
  constexpr std::uint64_t kIters = 5'000'000;
  obs::prof_disable();
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      UMON_PROF_SCOPE(kCmUpdate);
    }
    const std::uint64_t t1 = telemetry::monotonic_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(kIters);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Nanos duration = 10 * kMilli;
  double max_overhead_pct = 0;  // 0 = report only
  double max_disabled_ns = 0;   // 0 = report only
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      duration = static_cast<Nanos>(std::atof(argv[++i]) * 1e6);
    } else if (std::strcmp(argv[i], "--max-overhead-pct") == 0 &&
               i + 1 < argc) {
      max_overhead_pct = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-disabled-ns") == 0 &&
               i + 1 < argc) {
      max_disabled_ns = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs_overhead [--ms N] "
                   "[--max-overhead-pct X] [--max-disabled-ns Y]\n");
      return 2;
    }
  }

  const double scope_ns = disabled_scope_ns();

  // Warm both paths once (page cache, allocator, thread pools).
  (void)run_once(2 * kMilli, false);
  (void)run_once(2 * kMilli, true);

  double bare = 1e18, prof = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double b = run_once(duration, false);
    const double p = run_once(duration, true);
    if (b < bare) bare = b;
    if (p < prof) prof = p;
  }
  const double overhead_pct = (prof - bare) / bare * 100.0;

  std::printf("cycle profiler overhead (%.0f ms sim, best of 3)\n",
              static_cast<double>(duration) / 1e6);
  std::printf("  disabled scope:   %8.2f ns/op\n", scope_ns);
  std::printf("  bare pipeline:    %8.2f ms\n", bare / 1e6);
  std::printf("  with profiling:   %8.2f ms\n", prof / 1e6);
  std::printf("  overhead:         %8.2f %%\n", overhead_pct);

  bool fail = false;
  if (max_disabled_ns > 0) {
    const bool over = scope_ns > max_disabled_ns;
    std::printf("disabled budget: %.2f ns/op -> %s\n", max_disabled_ns,
                over ? "FAIL" : "OK");
    fail = fail || over;
  }
  if (max_overhead_pct > 0) {
    const bool over = overhead_pct > max_overhead_pct;
    std::printf("enabled budget: %.2f %% -> %s\n", max_overhead_pct,
                over ? "FAIL" : "OK");
    fail = fail || over;
  }
  return fail ? 1 : 0;
}
