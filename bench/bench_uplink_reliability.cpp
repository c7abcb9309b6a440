// bench_uplink_reliability: cost of the reliable uplink protocol.
//
//   bench_uplink_reliability [--ms N] [--max-overhead-pct X]
//
// Runs the shipped umon::pipeline twice over a *lossless* wire — once in
// passthrough mode (the legacy fire-and-forget uplink) and once with the
// reliable protocol enabled (CRC32C framing, per-frame retransmit
// bookkeeping, cumulative acks over the reverse channel, dedup state,
// seal-on-settlement). With zero loss no frame should ever be
// retransmitted, so the delta isolates exactly what --uplink-reliable adds
// per payload: the frame encode + CRC on the host, the decode + CRC + ack
// on the collector side, and the ack decode back on the host. Best-of-3 per
// mode: scheduling noise only ever inflates a run.
//
// Exits 2 when a lossless run loses data or the reliable run retransmits
// anything: either breaks the comparison (and the protocol). With
// --max-overhead-pct the process exits 1 when the overhead exceeds the
// budget — CI gates at 10%.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "pipeline/pipeline.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace umon;

/// One run of the shipped pipeline; returns wall nanoseconds of run().
double run_once(Nanos duration, bool reliable) {
  pipeline::Config cfg;
  cfg.duration = duration;
  cfg.uplink_reliable = reliable;
  pipeline::Pipeline p(cfg);

  const std::uint64_t t0 = telemetry::monotonic_ns();
  p.run();
  const double elapsed =
      static_cast<double>(telemetry::monotonic_ns() - t0);

  // A lossless run must be loss-free end to end in both modes, and the
  // reliable one must never resend, or the modes are not comparable (and
  // the protocol is broken).
  const std::uint64_t lost = p.collector_stats().reports_lost;
  const resilience::ReliableStats rs = p.link()->stats();
  if (lost != 0 || rs.epochs_unrecovered != 0 ||
      rs.frames_retransmitted != 0) {
    std::fprintf(stderr,
                 "lossless %s run: %llu reports lost, %llu epochs "
                 "unrecovered, %llu frames retransmitted\n",
                 reliable ? "reliable" : "passthrough",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(rs.epochs_unrecovered),
                 static_cast<unsigned long long>(rs.frames_retransmitted));
    std::exit(2);
  }
  return elapsed;
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
                   "usage: bench_uplink_reliability [--ms N] "
                   "[--max-overhead-pct X]\n");
      return 2;
    }
  }

  // Warm both paths once (page cache, allocator, thread pools).
  (void)run_once(2 * kMilli, false);
  (void)run_once(2 * kMilli, true);

  double bare = 1e18, framed = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double b = run_once(duration, false);
    const double f = run_once(duration, true);
    if (b < bare) bare = b;
    if (f < framed) framed = f;
  }
  const double overhead_pct = (framed - bare) / bare * 100.0;

  std::printf("reliable uplink overhead (%.0f ms sim, lossless, best of 3)\n",
              static_cast<double>(duration) / 1e6);
  std::printf("  passthrough uplink: %8.2f ms\n", bare / 1e6);
  std::printf("  reliable uplink:    %8.2f ms\n", framed / 1e6);
  std::printf("  overhead:           %8.2f %%\n", overhead_pct);
  if (max_overhead_pct > 0) {
    const bool over = overhead_pct > max_overhead_pct;
    std::printf("budget: %.2f %% -> %s\n", max_overhead_pct,
                over ? "FAIL" : "OK");
    return over ? 1 : 0;
  }
  return 0;
}
