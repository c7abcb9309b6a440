// bench_health_overhead: cost of continuous health monitoring.
//
//   bench_health_overhead [--ms N] [--max-overhead-pct X]
//
// Runs the shipped umon::pipeline (the loop umon_sim runs, Hadoop 15%,
// 500 us ticks, 2 collector shards) twice — once bare, once with the health
// tap attached (per-packet watermark notes and fidelity-probe observation,
// per-tick registry sampling, watermark publication, probe evaluation,
// alarm evaluation) — and reports the relative wall-clock overhead of
// run(). The tap is the only difference, so the delta is exactly what
// --health-out adds to umon_sim. Best-of-3 per mode: scheduling noise only
// ever inflates a run.
//
// With --max-overhead-pct the process exits 1 when the overhead exceeds the
// budget — CI gates at 2%.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "health/health.hpp"
#include "pipeline/pipeline.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace umon;

/// One run of the shipped pipeline; returns wall nanoseconds of run().
double run_once(Nanos duration, bool with_health) {
  pipeline::Config cfg;
  cfg.duration = duration;
  health::HealthMonitor mon;  // default interval: 500 us, cfg.tick
  pipeline::Taps taps;
  if (with_health) taps.health = &mon;
  pipeline::Pipeline p(cfg, taps);

  const std::uint64_t t0 = telemetry::monotonic_ns();
  p.run();
  return static_cast<double>(telemetry::monotonic_ns() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  Nanos duration = 10 * kMilli;
  double max_overhead_pct = 0;  // 0 = report only
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      duration = static_cast<Nanos>(std::atof(argv[++i]) * 1e6);
    } else if (std::strcmp(argv[i], "--max-overhead-pct") == 0 &&
               i + 1 < argc) {
      max_overhead_pct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_health_overhead [--ms N] "
                   "[--max-overhead-pct X]\n");
      return 2;
    }
  }

  // Warm both paths once (page cache, allocator, thread pools).
  (void)run_once(2 * kMilli, false);
  (void)run_once(2 * kMilli, true);

  double bare = 1e18, health = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double b = run_once(duration, false);
    const double h = run_once(duration, true);
    if (b < bare) bare = b;
    if (h < health) health = h;
  }
  const double overhead_pct = (health - bare) / bare * 100.0;

  std::printf("health monitoring overhead (%.0f ms sim, best of 3)\n",
              static_cast<double>(duration) / 1e6);
  std::printf("  bare pipeline:    %8.2f ms\n", bare / 1e6);
  std::printf("  with health:      %8.2f ms\n", health / 1e6);
  std::printf("  overhead:         %8.2f %%\n", overhead_pct);
  if (max_overhead_pct > 0) {
    const bool over = overhead_pct > max_overhead_pct;
    std::printf("budget: %.2f %% -> %s\n", max_overhead_pct,
                over ? "FAIL" : "OK");
    return over ? 1 : 0;
  }
  return 0;
}
