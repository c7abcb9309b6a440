// Setup phase: run the fat-tree simulator once and keep its host-TX packet
// stream in memory.
//
// The simulation is stepped exactly like umon_sim's chunked loop (one
// run_until per measurement epoch), and the packet index at every epoch
// boundary is recorded, so a replay that feeds packets [tick_end[k-1],
// tick_end[k]) before flushing epoch k hands the sketches the same input,
// in the same order, as the live pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "analyzer/groundtruth.hpp"
#include "common/types.hpp"
#include "workload/generator.hpp"

namespace umon::perfbench {

struct CapturedPacket {
  FlowKey flow;
  Nanos timestamp = 0;
  std::uint32_t size = 0;
  std::uint32_t host = 0;
};

struct FlowInfo {
  FlowKey key;
  std::uint64_t bytes = 0;
};

struct CaptureConfig {
  workload::WorkloadKind kind = workload::WorkloadKind::kHadoop;
  double load = 0.15;
  Nanos duration = 20 * kMilli;
  Nanos tick = 500 * kMicro;
  std::uint64_t seed = 7;
};

struct Capture {
  int hosts = 0;
  Nanos duration = 0;
  /// Trace length: duration + 5 ms drain tail, as in umon_sim. One replay
  /// lap spans [lap * horizon, (lap + 1) * horizon).
  Nanos horizon = 0;
  std::vector<CapturedPacket> packets;
  /// Epoch boundaries (simulated time) and the packet count emitted up to
  /// each: epoch k covers packets [tick_end[k-1], tick_end[k]).
  std::vector<Nanos> tick_time;
  std::vector<std::size_t> tick_end;
  std::vector<FlowInfo> flows;  ///< the generated workload's flow list
  analyzer::GroundTruth truth;  ///< exact per-window bytes of one lap
  std::uint64_t total_bytes = 0;

  /// Order-sensitive hash of the packet stream (setup determinism check).
  [[nodiscard]] std::uint64_t fingerprint() const;
};

[[nodiscard]] Capture capture(const CaptureConfig& cfg);

}  // namespace umon::perfbench
