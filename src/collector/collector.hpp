// umon::collector — the telemetry ingest tier between hosts and the
// analyzer (the collection layer the paper's Section 6 assumes but the
// in-process benches short-circuit).
//
// Pipeline shape:
//
//   host uplinks ──payloads──▶ front door ──frames──▶ shard queues
//                              (framing scan,          (bounded,
//                               flow-hash split,        backpressure
//                               seq-gap accounting)     policy)
//                                                          │ decode +
//                                                          ▼ reconstruct
//                                                   per-shard epoch staging
//                                                          │ seal: the share moves
//                                                          ▼ to a worker-owned list
//                                                   drain()/stop() caller
//                                                          │ merge by seal number,
//                                                          ▼ then shard index
//                                                 Analyzer::ingest_report_batch
//                                                 (one batch per sealed
//                                                  (host, epoch), in seal order)
//
// * The front door performs a cheap framing-level scan (no coefficient
//   parsing, no allocation per coefficient) and routes every report frame by
//   FlowKey hash, so all fragments of a flow land on the same shard; light
//   (grid-addressed) reports route by (host, row, col).
// * Shard workers only decode, in parallel: full decode, wavelet
//   reconstruction, and zero-stripping into sparse fragments. No worker
//   calls into the Analyzer.
// * Every sink call runs on the thread inside drain() or stop(). A seal
//   gets a number and reaches every shard queue in one global order with
//   drain()'s barrier, so each barrier hands over every shard's share of
//   a seal or none of it. The caller flushes epochs in seal order, each
//   epoch's fragments in shard-index then decode order, so the analyzer
//   (and a store behind it) sees the same sequence on every same-input run.
// * Loss is first-class: per-host sequence accounting counts reports that
//   never arrived (upload-channel drops), bounded queues count what the
//   backpressure policy shed, and malformed payloads are counted instead of
//   trusted. decode_report()'s nullopt path finally has a consumer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/batch_queue.hpp"
#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "uevent/acl.hpp"

namespace umon::obs {
class LineageTracker;
}

namespace umon::collector {

struct CollectorConfig {
  int shards = 4;
  /// Batches (not reports) each shard queue holds before the policy kicks in.
  std::size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  int window_shift = kDefaultWindowShift;
};

/// Snapshot of the collector's counters. Reports can leave the pipeline for
/// exactly four reasons, each with its own counter: lost upstream (sequence
/// gaps), shed by backpressure, malformed, or decoded and delivered.
///
/// This struct is a *view*: the source of truth is the collector's private
/// telemetry::MetricRegistry (umon_collector_* instruments), and stats()
/// materializes the view from one registry snapshot pass.
struct CollectorStats {
  std::uint64_t payloads_submitted = 0;
  std::uint64_t payloads_malformed = 0;  ///< framing scan failed; discarded
  std::uint64_t batches_enqueued = 0;
  std::uint64_t batches_shed = 0;        ///< overflow policy dropped a batch
  std::uint64_t batches_rejected = 0;    ///< shed subset: incoming batch refused
  std::uint64_t batches_evicted = 0;     ///< shed subset: oldest batch evicted
  std::uint64_t reports_scanned = 0;
  std::uint64_t reports_decoded = 0;
  std::uint64_t reports_malformed = 0;   ///< shard-side decode_report failed
  std::uint64_t reports_shed = 0;        ///< inside batches_shed
  std::uint64_t reports_lost = 0;        ///< sequence gaps (upstream loss)
  std::uint64_t mirror_packets = 0;
  std::uint64_t epochs_flushed = 0;
  std::uint64_t fragments_ingested = 0;
  std::uint64_t batches_crashed = 0;    ///< discarded by a crashed shard
  std::uint64_t reports_crashed = 0;    ///< reports inside those batches
  std::uint64_t fragments_crashed = 0;  ///< staged fragments lost at crash
  std::uint64_t shard_crashes = 0;
  std::uint64_t shard_restarts = 0;
  std::unordered_map<int, std::uint64_t> bytes_by_host;
};

class Collector {
 public:
  Collector(const CollectorConfig& cfg, analyzer::Analyzer& sink);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Spawn the shard workers. Must be called before submitting.
  void start();
  /// Drain every queue and join the workers, then flush on this thread:
  /// sealed epochs and mirror batches in the order they were sealed or
  /// submitted, then the never-sealed staged epochs in (host, epoch) order. Idempotent. After stop() the
  /// sink holds everything the pipeline accepted.
  void stop();

  /// Block until every message enqueued before this call has been fully
  /// processed, then flush every epoch sealed (and every mirror batch
  /// submitted) before the call into the sink — on this thread, in seal
  /// order. Workers keep running. This is the synchronization point
  /// deterministic drivers (health sampling, tests) use to observe a
  /// quiescent pipeline without stopping it; concurrent callers are
  /// serialized. Returns the number of shards that were *live* (not
  /// crashed) when they acked the barrier, so a driver can tell a quiescent
  /// pipeline from one that merely discarded its backlog: a crashed shard
  /// still consumes (and counts) its queue, so the barrier never wedges,
  /// but its data was shed, not processed. Returns 0 before start().
  int drain();

  /// Simulate a shard crash: the shard loses its staged (unsealed) epoch
  /// state and discards every data batch until restart_shard(). Control
  /// messages (seals, barriers) keep flowing so seals and drain() stay
  /// live — a crashed shard contributes nothing, it does not wedge the
  /// pipeline. Thread-safe; no-op for out-of-range shards.
  void crash_shard(int shard);
  void restart_shard(int shard);

  /// Fires when the pipeline discovers `lost` reports missing for
  /// (host, epoch) — the signal graceful-degradation drivers use to flag
  /// the affected windows instead of silently serving zeros. Sequence gaps
  /// fire inside seal_epoch() with the front mutex held. Shard-crash
  /// damage fires from drain() or stop() on the calling thread, after that
  /// call's epoch flushes: a worker files the damage it recorded for an
  /// epoch with its share of the seal, and queue FIFO proves every batch
  /// enqueued before the seal was consumed by then — so damage a worker
  /// records after the seal_epoch() call returned is never missed. Damage to an epoch never sealed fires
  /// from stop(). Must be cheap and must not call back into the collector.
  /// Set before start().
  void set_epoch_loss_hook(
      std::function<void(int host, std::uint32_t epoch, std::uint64_t lost)>
          hook) {
    epoch_loss_hook_ = std::move(hook);
  }

  /// Observability taps for end-to-end freshness tracking. `decode` fires
  /// from shard workers after a batch decode with the largest *event time*
  /// (window-end, collector clock domain) reconstructed in that batch —
  /// flow-tagged reports only. `curve` fires from drain()/stop() after a
  /// sealed epoch lands in the analyzer, with the largest event time that
  /// epoch made queryable. Set before start(); hooks must be thread-safe.
  void set_decode_event_hook(std::function<void(Nanos)> hook) {
    decode_event_hook_ = std::move(hook);
  }
  void set_curve_event_hook(std::function<void(Nanos)> hook) {
    curve_event_hook_ = std::move(hook);
  }

  /// Report-lineage tap: shard workers record every (host, epoch) batch
  /// decode through it. Thread-safe on the tracker's side; set before
  /// start() and keep the tracker alive until after stop().
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }

  // --- producer side (thread-safe; serialized at the front door) -----------
  /// One encode_batch() payload from `host` for measurement period `epoch`.
  /// Returns false if the payload failed the framing scan (malformed).
  /// The rejection is also counted in stats(); callers that deliberately
  /// tolerate malformed uplinks should still say so with a (void) cast.
  [[nodiscard]] bool submit_report_payload(int host, std::uint32_t epoch,
                                           std::vector<std::uint8_t> payload);

  /// A batch of mirrored event packets from the uEvent pipeline.
  void submit_mirror_batch(std::vector<uevent::MirroredPacket> packets);

  /// Declare `epoch` of `host` complete. `end_seq` is the host's next unused
  /// sequence number; providing it lets the collector count trailing losses
  /// (payloads dropped after the last one that arrived). The next drain()
  /// or stop() flushes the epoch, merged across shards, into the sink.
  void seal_epoch(int host, std::uint32_t epoch,
                  std::optional<std::uint32_t> end_seq = std::nullopt);

  /// One-pass snapshot of every counter through the registry (consistent
  /// enough for monitoring; exact once stop() returned).
  [[nodiscard]] CollectorStats stats() const;
  [[nodiscard]] const CollectorConfig& config() const { return cfg_; }

  /// The collector's private metric registry (umon_collector_* series:
  /// the CollectorStats counters plus per-shard queue-depth gauges and
  /// decode/flush latency histograms). Pass it to the telemetry exporters
  /// alongside MetricRegistry::global().
  [[nodiscard]] const telemetry::MetricRegistry& telemetry_registry() const;

 private:
  struct ShardMsg;
  struct Shard;
  struct HostSeqState;
  struct Delivery;
  struct DrainBarrier;

  void worker(int shard_id);
  void handle_reports(int shard_id, ShardMsg& msg);
  void handle_seal(int shard_id, const ShardMsg& msg);
  /// Sink side, on the drain()/stop() caller: flush every epoch batch and
  /// mirror batch in `due` in key order, then fire the loss hook for the
  /// crash damage they carry.
  void deliver(std::map<std::uint64_t, Delivery>& due);
  void flush_epoch_to_sink(Delivery& done);

  CollectorConfig cfg_;
  analyzer::Analyzer& sink_;
  obs::LineageTracker* lineage_ = nullptr;
  std::function<void(Nanos)> decode_event_hook_;
  std::function<void(Nanos)> curve_event_hook_;
  std::function<void(int, std::uint32_t, std::uint64_t)> epoch_loss_hook_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  bool running_ = false;

  /// Serializes submit/seal/barrier pushes, so every shard queue sees seals
  /// and drain barriers in one order; owns the sequence accounting and the
  /// per-host byte tallies.
  mutable std::mutex front_mutex_;
  std::unordered_map<int, HostSeqState> seq_state_;
  std::unordered_map<int, std::uint64_t> bytes_by_host_;
  std::size_t mirror_rr_ = 0;  ///< round-robin cursor for mirror batches
  /// Numbers seals and mirror batches: the order the sink receives them.
  std::uint64_t next_ticket_ = 0;

  /// Serializes drain() and stop() callers — and so every call into the
  /// (externally synchronized) Analyzer.
  std::mutex drain_mutex_;

  // Registry-backed instruments shared across threads (relaxed; exact once
  // stop() returns). Private per instance so stats stay attributable.
  struct Instruments;
  std::unique_ptr<Instruments> ins_;
};

}  // namespace umon::collector
