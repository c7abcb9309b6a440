// Replay phase: one round feeds a captured trace through a freshly built
// pipeline — WaveSketchFull::update -> flush_reports -> HostUplink ->
// ReliableLink / UploadChannel -> Collector -> Analyzer -> Store, plus
// HealthMonitor and the serve plane where the workload uses them — with the
// same public calls, in the same order, as umon_sim's chunked loop.
//
// A round replays the trace `laps` times back to back. Lap L is the trace
// shifted by L * lap_shift, where lap_shift is the trace horizon rounded up
// to a whole window, so no window mixes two laps and lap 0 reads back
// exactly as a single umon_sim run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture.hpp"
#include "http_client.hpp"
#include "spans.hpp"

namespace umon::perfbench {

/// Flows at least this large are scored for accuracy and drawn by the query
/// mix (umon_sim's heavy-flow cut).
inline constexpr std::uint64_t kHeavyFlowBytes = 100'000;

struct WorkloadSpec {
  std::string name;
  CaptureConfig capture;  ///< capture.tick is the measurement epoch
  int laps = 1;
  bool reliable = false;       ///< ReliableLink enabled (else passthrough)
  int scrub_every = 0;         ///< store seals between scrubs, 0 = never
  bool health = false;         ///< HealthMonitor tap
  bool live_queries = false;   ///< serve publish + query client during replay
  /// Requests issued after the replay when the client does not run live.
  std::uint64_t post_queries = 0;
};

/// What the query mix draws from.
struct QueryTargets {
  std::vector<FlowKey> flows;         ///< heavy flows (>= 100 KB)
  std::vector<std::uint32_t> hosts;   ///< src_ip of every sending host
};

struct RoundOptions {
  std::string dir;  ///< store directory, created fresh and removed after
  std::uint64_t seed = 7;   ///< upload channel and query mix
  std::uint64_t round = 0;  ///< varies the query mix between rounds
  bool trace = false;
  bool evaluate = false;  ///< accuracy pass (only the first round)
};

struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

struct RoundResult {
  std::uint64_t packets = 0;
  std::int64_t construct_ns = 0;
  std::int64_t replay_ns = 0;  ///< first update .. last store checkpoint
  std::vector<double> epoch_latency_us;
  std::int64_t query_ns = 0;  ///< time with a request in flight
  std::vector<QueryClient::Sample> queries;

  std::uint64_t host_epochs = 0;
  std::uint64_t host_epochs_failed = 0;
  std::vector<Check> checks;

  /// Per-layer counts and ratios ("sketch.packets", ...).
  std::map<std::string, double> counts;
  std::uint64_t uplink_bytes = 0;  ///< encoded report payload bytes
  std::uint64_t store_bytes = 0;   ///< segment bytes on disk at the end

  // evaluate only
  int heavy_evaluated = 0;
  double curve_are = 0;
  double curve_cosine = 0;
  double stored_are = 0;
  double report_mbps_per_host = 0;  ///< umon_sim's report bandwidth line

  SpanLog driver_spans;  ///< replay window only
  SpanLog eval_spans;    ///< accuracy pass
  SpanLog client_spans;  ///< query load
};

[[nodiscard]] RoundResult run_round(const Capture& cap,
                                    const WorkloadSpec& spec,
                                    const QueryTargets& targets,
                                    const RoundOptions& opt);

}  // namespace umon::perfbench
