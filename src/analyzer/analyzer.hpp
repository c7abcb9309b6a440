// The uMon analyzer (Section 6): collects WaveSketch reports from hosts and
// mirrored event packets from switches, aligns their clocks, reconstructs
// per-flow rate curves, groups event packets into congestion events, and
// replays an event by plotting the rate variation of the flows involved.
//
// Thread safety: the Analyzer is externally synchronized. The collector tier
// (umon::collector) decodes in parallel but makes every sink call (epoch
// flushes, mirror batches, crash-loss marks) on the thread inside its
// drain()/stop(), one caller at a time; direct in-process users are
// single-threaded. Do not call mutating and querying members concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "common/types.hpp"
#include "sketch/report.hpp"
#include "sketch/wavesketch_full.hpp"
#include "uevent/acl.hpp"

namespace umon::obs {
class LineageTracker;
}

namespace umon::analyzer {

/// A reconstructed rate curve pinned to absolute windows. Values are bytes
/// per window; gbps() converts using the window length.
struct RateCurve {
  WindowId w0 = 0;
  int window_shift = kDefaultWindowShift;
  std::vector<double> bytes_per_window;

  [[nodiscard]] bool empty() const { return bytes_per_window.empty(); }
  [[nodiscard]] double bytes_at(WindowId w) const {
    if (w < w0 ||
        w >= w0 + static_cast<WindowId>(bytes_per_window.size())) {
      return 0;
    }
    return bytes_per_window[static_cast<std::size_t>(w - w0)];
  }
  [[nodiscard]] double gbps_at(WindowId w) const {
    return bytes_at(w) * 8.0 /
           static_cast<double>(window_length(window_shift));
  }
  [[nodiscard]] std::vector<double> gbps() const {
    std::vector<double> out(bytes_per_window.size());
    const double len = static_cast<double>(window_length(window_shift));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = bytes_per_window[i] * 8.0 / len;
    }
    return out;
  }
};

/// A congestion event assembled from mirrored packets on one switch egress
/// port: consecutive CE-marked arrivals separated by less than a quiet gap.
struct CongestionEvent {
  int switch_id = -1;
  int egress_port = -1;
  Nanos start = 0;
  Nanos end = 0;
  std::size_t packets = 0;
  std::vector<FlowKey> flows;  ///< distinct flows, by first appearance
  [[nodiscard]] Nanos duration() const { return end - start; }
};

/// Host clock model: a fixed offset per host (PTP residual error). The
/// analyzer subtracts it when aligning measurements (Section 6.1).
struct ClockModel {
  std::unordered_map<int, Nanos> host_offset;
  [[nodiscard]] Nanos correct(int host, Nanos local) const {
    auto it = host_offset.find(host);
    return it == host_offset.end() ? local : local - it->second;
  }
};

class Analyzer {
 public:
  explicit Analyzer(int window_shift = kDefaultWindowShift)
      : window_shift_(window_shift), curves_(window_shift) {}

  // --- ingestion -----------------------------------------------------------
  /// Ingest one host's full-sketch state at period end. The analyzer stitches
  /// per-flow curves for heavy flows across measurement periods ("longer
  /// flows are handled in multiple reporting periods") and accounts report
  /// bytes.
  void ingest_host_sketch(int host, const sketch::WaveSketchFull& sk);

  /// Ingest a directly reconstructed per-flow curve (e.g., from a basic
  /// sketch owned by the caller, or ground truth in tests).
  void ingest_flow_curve(const FlowKey& flow, RateCurve curve);

  /// Ingest the mirror stream from the uEvent pipeline.
  void ingest_mirrored(const std::vector<uevent::MirroredPacket>& packets);

  /// One sealed epoch's worth of decoded reports from a single host, as
  /// delivered by the collector tier. Fragments are sparse (zero windows
  /// already stripped by the decode shards) so the serial ingest section
  /// only pays for windows that carry bytes.
  struct SparseFragment {
    FlowKey flow;
    std::vector<std::pair<WindowId, double>> windows;
  };
  struct DecodedReportBatch {
    int host = -1;
    std::uint32_t epoch = 0;
    std::vector<SparseFragment> fragments;
    std::size_t wire_bytes = 0;  ///< encoded payload bytes, for accounting
  };
  /// Batch-ingest a sealed epoch: applies the host's clock correction and
  /// stitches every fragment into the per-flow curve store in one pass.
  void ingest_report_batch(const DecodedReportBatch& batch);

  void set_clock_model(ClockModel m) { clocks_ = std::move(m); }

  // --- graceful degradation -------------------------------------------------
  /// Flag [from, to) windows with a confidence class (a lost epoch covered
  /// them, retransmits recovered them, ...). Upgrade-only; see
  /// FlowCurveStore::mark_windows.
  void mark_windows(WindowId from, WindowId to, WindowConfidence conf) {
    curves_.mark_windows(from, to, conf);
  }
  /// Opt into read-side interpolation across kLost windows.
  void set_gap_fill(bool on) { curves_.set_gap_fill(on); }

  /// Attach a durable write-through spill sink to the curve store (see
  /// analyzer::CurveSink). Not owned; set before ingest starts.
  void set_curve_sink(CurveSink* sink) { curves_.set_sink(sink); }

  /// Report-lineage tap: every ingest_report_batch is recorded and arms the
  /// tracker's spill-attribution context, so store appends triggered by the
  /// write-through sink are credited to the right (host, epoch). Not owned.
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }
  [[nodiscard]] WindowConfidence window_confidence(WindowId w) const {
    return curves_.confidence(w);
  }

  // --- queries --------------------------------------------------------------
  /// Rate curve of a flow (empty if unknown).
  [[nodiscard]] RateCurve query_rate(const FlowKey& flow) const;

  /// Group mirrored packets into congestion events; a gap larger than
  /// `quiet_gap` splits events.
  [[nodiscard]] std::vector<CongestionEvent> events(
      Nanos quiet_gap = 50 * kMicro) const;

  /// Event replay (Figure 10c): the rate curves of every flow captured in
  /// the event, over [start - margin, end + margin] windows.
  struct Replay {
    CongestionEvent event;
    WindowId from = 0;
    WindowId to = 0;  ///< exclusive
    std::vector<std::pair<FlowKey, std::vector<double>>> gbps_series;
  };
  [[nodiscard]] Replay replay(const CongestionEvent& ev,
                              Nanos margin = 200 * kMicro) const;

  /// Congestion duration CDF input (Figure 10b).
  [[nodiscard]] std::vector<double> event_durations_us(
      Nanos quiet_gap = 50 * kMicro) const;

  // --- accounting -------------------------------------------------------------
  [[nodiscard]] std::size_t report_bytes_ingested() const {
    return report_bytes_;
  }
  /// Report bytes attributed to one host (0 if never heard from).
  [[nodiscard]] std::size_t report_bytes_from(int host) const {
    auto it = report_bytes_by_host_.find(host);
    return it == report_bytes_by_host_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::unordered_map<int, std::size_t>&
  report_bytes_by_host() const {
    return report_bytes_by_host_;
  }
  [[nodiscard]] std::size_t mirror_bytes_ingested() const {
    return mirror_bytes_;
  }
  [[nodiscard]] std::size_t known_flows() const {
    return curves_.flow_count();
  }
  /// Direct access to the stitched per-flow curve storage.
  [[nodiscard]] const FlowCurveStore& curves() const { return curves_; }

 private:
  int window_shift_;
  obs::LineageTracker* lineage_ = nullptr;
  ClockModel clocks_;
  FlowCurveStore curves_;
  std::vector<uevent::MirroredPacket> mirrored_;
  std::size_t report_bytes_ = 0;
  std::size_t mirror_bytes_ = 0;
  std::unordered_map<int, std::size_t> report_bytes_by_host_;
};

}  // namespace umon::analyzer
