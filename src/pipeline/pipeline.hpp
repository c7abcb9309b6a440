// umon::pipeline — the one composition of the uMon data path.
//
//   netsim host TX ─► WaveSketch per host ─► HostUplink (one epoch per tick)
//     ─► ReliableLink over the UploadChannel ─► sharded Collector ─► Analyzer
//
// A Pipeline is built from a plain Config plus optional taps and run once.
// Measurement modules hang off that core as taps (fault injector, store +
// scrub, health, lineage, serve, ground truth), passed as pointers: null
// means off, and an absent tap costs a branch. umon_sim and the overhead
// benches all drive this same run(); a bench toggles one tap.
//
// The data path follows from the Config and the taps, here and nowhere
// else (see uses_collection_tier()):
//   * Epochs are cfg.tick long; a tick >= horizon() is a single epoch per
//     host. Its sequence gaps are counted but flag no windows (the epoch
//     spans the whole run), and the store and serve taps see one
//     checkpoint and one publish, after the tail seals.
//   * Only a single-epoch run with nothing that needs the collection tier
//     ingests the host sketches in-process. Every other run carries its
//     epochs through the tier (uplink, channel, ReliableLink, sharded
//     collector), with kDefaultShards when collector_shards == 0.
//
// Header-only on purpose: it adds no library of its own, so any target that
// already links the libraries below (perfbench's umon_sim_ref has a fixed
// link list) can build it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "analyzer/groundtruth.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "health/health.hpp"
#include "netsim/network.hpp"
#include "netsim/upload_channel.hpp"
#include "obs/lineage.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/reliable.hpp"
#include "serve/server.hpp"
#include "sketch/wavesketch_full.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"
#include "uevent/acl.hpp"
#include "uevent/detector.hpp"
#include "workload/generator.hpp"

namespace umon::pipeline {

/// Every field is a umon_sim flag of the same name (tick is
/// --health-interval) and defaults to that flag's default.
struct Config {
  workload::WorkloadKind kind = workload::WorkloadKind::kHadoop;
  double load = 0.15;
  Nanos duration = 20 * kMilli;
  int sample_bits = 6;
  std::size_t k = 64;
  std::uint32_t width = 256;
  int depth = 3;
  bool pfc = false;
  bool dctcp = false;
  std::uint64_t seed = 7;
  int collector_shards = 0;  ///< 0 = kDefaultShards, if the tier runs
  double report_loss = 0.0;
  Nanos tick = 500 * kMicro;
  bool uplink_reliable = false;
  std::size_t uplink_retx_buffer = 1024;
  bool gap_fill = false;
  int scrub_interval = 0;  ///< scrub every N store checkpoints (0 = off)

  /// The workload plus a 5 ms tail for in-flight packets to drain.
  [[nodiscard]] Nanos horizon() const { return duration + 5 * kMilli; }
};

/// Optional measurement modules; null = off. The caller owns each tap and
/// keeps it alive for the Pipeline's lifetime. The serve tap may be
/// started after the Pipeline is built (its endpoints list the collector's
/// registries); the Pipeline stops it before those registries go away.
struct Taps {
  resilience::FaultInjector* faults = nullptr;
  store::Store* store = nullptr;
  std::ostream* scrub_audit = nullptr;  ///< one JSONL line per scrub pass
  health::HealthMonitor* health = nullptr;
  obs::LineageTracker* lineage = nullptr;
  serve::Server* serve = nullptr;
  analyzer::GroundTruth* truth = nullptr;
};

class Pipeline {
 public:
  /// Collector shards when the tier is implied but collector_shards == 0.
  static constexpr int kDefaultShards = 2;

  explicit Pipeline(const Config& cfg, const Taps& taps = {})
      : cfg_(cfg),
        taps_(taps),
        mirror_(uevent::AclRule::ce_sampled(cfg.sample_bits),
                [this](const uevent::MirroredPacket& m) {
                  scorer_.collect(m);
                }) {
    netsim::NetworkConfig ncfg;
    ncfg.queue_sample_interval = 0;
    ncfg.pfc.enabled = cfg.pfc;
    ncfg.seed = cfg.seed;
    net_ = netsim::Network::fat_tree(ncfg, 4);

    sketch::WaveSketchParams sp;
    sp.depth = cfg.depth;
    sp.width = cfg.width;
    sp.levels = 8;
    sp.k = cfg.k;
    for (int h = 0; h < net_->host_count(); ++h) {
      sketches_.push_back(std::make_unique<sketch::WaveSketchFull>(sp));
    }
    an_.set_gap_fill(cfg.gap_fill);

    if (uses_collection_tier(cfg, taps)) build_collection_tier();

    net_->set_switch_enqueue_hook(
        [this](netsim::PortId port, const PacketRecord& pkt) {
          mirror_.on_switch_enqueue(port, pkt, pkt.timestamp);
        });
    workload::WorkloadParams wp;
    wp.hosts = net_->host_count();
    wp.load = cfg.load;
    wp.duration = cfg.duration;
    wp.seed = cfg.seed;
    workload_ = workload::generate(cfg.kind, wp);
    if (cfg.dctcp) {
      for (auto& f : workload_.flows) f.use_dctcp = true;
    }
    workload::install(workload_, *net_);
  }

  ~Pipeline() {
    if (taps_.serve != nullptr) taps_.serve->stop();
  }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// True unless the run can ingest in-process: one epoch, no collector
  /// shards or report loss asked for, and no tap that watches the tier —
  /// health, faults, lineage, or a store on injected I/O (its faults ride
  /// the epoch seals).
  [[nodiscard]] static bool uses_collection_tier(const Config& cfg, const Taps& taps) {
    return cfg.tick < cfg.horizon() || cfg.collector_shards > 0 ||
           cfg.report_loss > 0 || cfg.uplink_reliable ||
           taps.health != nullptr || taps.faults != nullptr ||
           taps.lineage != nullptr ||
           (taps.store != nullptr && taps.store->config().io != nullptr);
  }

  /// Attaches the taps and runs the workload to the horizon. Call once.
  void run() {
    attach_taps();
    if (collector_) {
      run_ticks();
    } else {
      net_->run_until(cfg_.horizon());
      net_->finish();
      for (int h = 0; h < net_->host_count(); ++h) {
        an_.ingest_host_sketch(h, *sketches_[static_cast<std::size_t>(h)]);
      }
      an_.ingest_mirrored(scorer_.mirrored());
      store_checkpoint();
      serve_publish(cfg_.horizon());
    }
  }

  /// One scrub pass over the store tap: CRC re-verification of the sealed
  /// segments against the raw disk bytes, accumulated into scrub_total()
  /// and appended to the scrub-audit tap. Every audit field derives from
  /// the seeded run, so same-seed runs write byte-identical audits.
  void scrub() {
    if (taps_.store == nullptr) return;
    const store::ScrubReport r = taps_.store->scrub();
    ++scrub_passes_;
    scrub_total_.segments_scanned += r.segments_scanned;
    scrub_total_.bytes_scanned += r.bytes_scanned;
    scrub_total_.records_verified += r.records_verified;
    scrub_total_.corrupt_records += r.corrupt_records;
    scrub_total_.chunks_quarantined += r.chunks_quarantined;
    scrub_total_.chunks_repaired += r.chunks_repaired;
    scrub_total_.windows_lost += r.windows_lost;
    scrub_total_.findings.insert(scrub_total_.findings.end(),
                                 r.findings.begin(), r.findings.end());
    if (taps_.scrub_audit == nullptr) return;
    std::ostream& os = *taps_.scrub_audit;
    os << "{\"type\":\"scrub\",\"pass\":" << scrub_passes_
       << ",\"segments\":" << r.segments_scanned
       << ",\"bytes\":" << r.bytes_scanned
       << ",\"records\":" << r.records_verified
       << ",\"corrupt\":" << r.corrupt_records
       << ",\"quarantined\":" << r.chunks_quarantined
       << ",\"repaired\":" << r.chunks_repaired
       << ",\"windows_lost\":" << r.windows_lost << ",\"findings\":[";
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
      const store::ScrubFinding& f = r.findings[i];
      os << (i > 0 ? "," : "") << "{\"segment\":" << f.segment_id
         << ",\"tier\":" << static_cast<int>(f.tier)
         << ",\"offset\":" << f.offset << ",\"length\":" << f.length
         << ",\"quarantined\":" << f.chunks_quarantined
         << ",\"repaired\":" << f.chunks_repaired << "}";
    }
    os << "]}\n";
    os.flush();
  }

  [[nodiscard]] const netsim::Network& network() const { return *net_; }
  [[nodiscard]] const workload::Workload& workload() const {
    return workload_;
  }
  [[nodiscard]] analyzer::Analyzer& analyzer() { return an_; }
  [[nodiscard]] const uevent::EventScorer& scorer() const { return scorer_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  /// Null when the run ingests in-process (no collection tier).
  [[nodiscard]] collector::Collector* collector() { return collector_.get(); }
  [[nodiscard]] resilience::ReliableLink* link() { return link_.get(); }
  /// Final collector counters, taken after the tier stopped.
  [[nodiscard]] const collector::CollectorStats& collector_stats() const {
    return cstats_;
  }
  [[nodiscard]] std::uint64_t payloads_dropped() const {
    return payloads_dropped_;
  }
  [[nodiscard]] const store::ScrubReport& scrub_total() const {
    return scrub_total_;
  }
  [[nodiscard]] std::uint64_t scrub_passes() const { return scrub_passes_; }

 private:
  /// Uplink channel (+ reverse ack channel when reliable), the ReliableLink
  /// every payload goes through — in passthrough mode it forwards verbatim —
  /// and the sharded collector it delivers into.
  void build_collection_tier() {
    collector::CollectorConfig ccfg;
    ccfg.shards =
        cfg_.collector_shards > 0 ? cfg_.collector_shards : kDefaultShards;
    collector_ = std::make_unique<collector::Collector>(ccfg, an_);

    netsim::UploadChannelConfig ucfg;
    ucfg.loss_rate = cfg_.report_loss;
    ucfg.jitter = 20 * kMicro;
    ucfg.seed = cfg_.seed;
    channel_ = std::make_unique<netsim::UploadChannel>(ucfg, nullptr);
    if (cfg_.uplink_reliable) {
      // Acks ride their own channel instance with the same loss model — a
      // reliable protocol over a reliable reverse path would be cheating.
      netsim::UploadChannelConfig rcfg = ucfg;
      rcfg.seed = cfg_.seed ^ 0xAC4BAC4ULL;
      reverse_ = std::make_unique<netsim::UploadChannel>(rcfg, nullptr);
    }
    resilience::ReliableConfig rcfg;
    rcfg.enabled = cfg_.uplink_reliable;
    rcfg.retx_buffer_frames = cfg_.uplink_retx_buffer;
    link_ = std::make_unique<resilience::ReliableLink>(rcfg, *channel_,
                                                       reverse_.get());
    link_->set_deliver_hook(
        [col = collector_.get()](int host, std::uint32_t epoch,
                                 std::vector<std::uint8_t>&& payload) {
          // Malformed payloads surface in the end-of-run collector stats.
          (void)col->submit_report_payload(host, epoch, std::move(payload));
        });
    channel_->set_sink([l = link_.get()](netsim::UploadChannel::Delivery&& d) {
      l->on_forward_delivery(std::move(d));
    });
    if (reverse_) {
      reverse_->set_sink(
          [l = link_.get()](netsim::UploadChannel::Delivery&& d) {
            l->on_reverse_delivery(std::move(d));
          });
    }
  }

  void attach_taps() {
    obs::LineageTracker* lineage = taps_.lineage;
    health::HealthMonitor* mon = taps_.health;
    if (lineage != nullptr) an_.set_lineage(lineage);
    if (taps_.store != nullptr) {
      // Write-through sink: every curve fragment the analyzer absorbs also
      // lands in a segment file.
      an_.set_curve_sink(taps_.store);
      if (lineage != nullptr) taps_.store->set_lineage(lineage);
    }
    if (collector_ && lineage != nullptr) {
      collector_->set_lineage(lineage);
      link_->set_lineage(lineage);
    }
    if (collector_ && taps_.faults != nullptr) {
      // One injector serves both directions: single-threaded send order
      // keeps the shared RNG stream reproducible.
      auto hook = [inj = taps_.faults](
                      int host, Nanos now,
                      std::vector<std::uint8_t>& payload) -> netsim::SendFault {
        const resilience::FaultAction a = inj->on_send(host, now, payload);
        return netsim::SendFault{a.drop, a.duplicates, a.extra_delay};
      };
      channel_->set_fault_hook(hook);
      if (reverse_) reverse_->set_fault_hook(hook);
    }
    if (mon != nullptr) {
      // Sampled in add order, which fixes the export's series order.
      mon->add_registry(&telemetry::MetricRegistry::global());
      if (collector_) {
        mon->add_registry(&collector_->telemetry_registry());
        mon->add_registry(&link_->telemetry_registry());
        collector_->set_decode_event_hook([mon](Nanos t) {
          mon->watermarks().note(health::Stage::kCollectorDecode, t);
        });
        collector_->set_curve_event_hook([mon](Nanos t) {
          mon->watermarks().note(health::Stage::kAnalyzerCurve, t);
        });
      }
      if (taps_.store != nullptr) {
        mon->add_registry(&taps_.store->telemetry_registry());
      }
      mon->set_analyzer(&an_);
    }
    net_->set_host_tx_hook([this, truth = taps_.truth, mon](
                               int host, const PacketRecord& r) {
      ++packets_;
      if (truth != nullptr) truth->add(r.flow, r.timestamp, r.size);
      sketches_[static_cast<std::size_t>(host)]->update(
          r.flow, r.timestamp, static_cast<Count>(r.size));
      if (mon != nullptr) {
        mon->watermarks().note(health::Stage::kPacketEvent, r.timestamp);
        mon->probe().observe(r.flow, r.timestamp, r.size);
      }
    });
  }

  /// The per-tick loop. Each tick: apply due shard crash/restarts, run the
  /// network, settle its counters, deliver upload payloads and acks that
  /// are due, drive retransmit timers, seal epochs whose delivery has
  /// settled (flagging the windows of epochs the protocol declared lost),
  /// flush a fresh epoch from every non-stalled host, then drain the
  /// collector so every tap samples a quiescent pipeline.
  void run_ticks() {
    const Nanos horizon = cfg_.horizon();
    const bool single_epoch = cfg_.tick >= horizon;
    collector::Collector& col = *collector_;
    resilience::FaultInjector* injector = taps_.faults;
    obs::LineageTracker* lineage = taps_.lineage;
    health::HealthMonitor* mon = taps_.health;
    const int hosts = net_->host_count();
    std::vector<collector::HostUplink> uplinks;
    uplinks.reserve(static_cast<std::size_t>(hosts));
    for (int h = 0; h < hosts; ++h) {
      uplinks.emplace_back(h, /*max_reports_per_payload=*/64);
    }
    struct PendingSeal {
      int host;
      std::uint32_t epoch;
      std::uint32_t end_seq;
      WindowId wfrom;  ///< first window this epoch covers
      WindowId wto;    ///< exclusive
      Nanos end_time;  ///< event time the epoch runs up to
    };
    std::vector<PendingSeal> awaiting;
    std::vector<Nanos> last_flush(static_cast<std::size_t>(hosts), 0);

    // Sequence-gap losses found at seal time flag the epoch's windows, so
    // an unrecovered (or unprotected) loss can never read back as a
    // genuinely idle window. A single epoch spans the whole run, so its
    // flag would carry nothing; the collector stats still count the gap.
    if (!single_epoch) {
      col.set_epoch_loss_hook([this, lineage](int host, std::uint32_t epoch,
                                              std::uint64_t lost) {
        if (lost == 0) return;
        auto it = epoch_windows_.find(epoch_key(host, epoch));
        if (it == epoch_windows_.end()) return;
        an_.mark_windows(it->second.first, it->second.second,
                         analyzer::WindowConfidence::kLost);
        if (lineage != nullptr) {
          lineage->on_verdict(static_cast<std::uint32_t>(host), epoch,
                              obs::Verdict::kLost);
        }
      });
    }
    col.start();

    // Seal every epoch in `awaiting` whose uplink delivery has settled
    // (always true in passthrough mode: its payloads either landed within
    // the previous tick or are gone for good). Seals stay in flush order
    // per host — the collector's gap accounting chains epoch_start_seq
    // from one seal to the next.
    const bool reliable = cfg_.uplink_reliable;
    auto seal_settled = [&](bool force) {
      std::set<int> blocked;
      auto it = awaiting.begin();
      while (it != awaiting.end()) {
        const resilience::EpochStatus st =
            link_->epoch_status(it->host, it->epoch);
        if ((reliable && !st.settled && !force) ||
            blocked.count(it->host) != 0) {
          blocked.insert(it->host);
          ++it;
          continue;
        }
        // The protocol's word on the epoch. Sequence-gap losses found
        // later at seal time upgrade it via the epoch-loss hook; the
        // lineage tracker keeps the worst.
        obs::Verdict v = obs::Verdict::kCovered;
        if (reliable && !st.recovered) {
          an_.mark_windows(it->wfrom, it->wto,
                           analyzer::WindowConfidence::kLost);
          v = obs::Verdict::kLost;
        } else if (reliable && st.retransmitted) {
          an_.mark_windows(it->wfrom, it->wto,
                           analyzer::WindowConfidence::kRetransmitted);
          v = obs::Verdict::kRetransmitted;
        }
        if (lineage != nullptr) {
          lineage->on_verdict(static_cast<std::uint32_t>(it->host),
                              it->epoch, v);
        }
        col.seal_epoch(it->host, it->epoch, it->end_seq);
        // Settlement is the resilience watermark: every frame of this
        // epoch was delivered or explicitly declared lost.
        if (mon != nullptr) {
          mon->watermarks().note(health::Stage::kResilience, it->end_time);
        }
        it = awaiting.erase(it);
      }
    };

    if (mon != nullptr) mon->prime(0);
    Nanos t = 0;
    for (t = cfg_.tick;; t += cfg_.tick) {
      if (t > horizon) t = horizon;
      if (injector != nullptr) {
        for (const auto& ev : injector->take_due_shard_events(t)) {
          if (ev.restart) {
            col.restart_shard(ev.shard);
          } else {
            col.crash_shard(ev.shard);
          }
        }
      }
      net_->run_until(t);
      net_->settle_telemetry();
      advance_channels(t);
      // Quiesce the shards before sealing: seal-time accounting (sequence
      // gaps, crash damage) must see every batch the workers were handed.
      col.drain();
      seal_settled(/*force=*/false);
      for (int h = 0; h < hosts; ++h) {
        if (injector != nullptr && injector->host_stalled(h, t)) {
          continue;  // the sketch keeps accumulating; next flush covers it
        }
        const std::size_t hi = static_cast<std::size_t>(h);
        auto up = uplinks[hi].flush_epoch(*sketches_[hi]);
        if (mon != nullptr) {
          mon->watermarks().note(health::Stage::kSketchSeal, t);
        }
        PendingSeal ps{h,  up.epoch, up.end_seq, window_of(last_flush[hi]),
                       window_of(t), t};
        epoch_windows_[epoch_key(h, up.epoch)] = {ps.wfrom, ps.wto};
        if (lineage != nullptr) {
          lineage->on_uplink_flush(
              static_cast<std::uint32_t>(h), up.epoch,
              static_cast<std::uint32_t>(up.reports),
              static_cast<std::uint32_t>(up.payloads.size()),
              static_cast<std::uint64_t>(t), ps.wfrom, ps.wto);
        }
        last_flush[hi] = t;
        for (auto& p : up.payloads) {
          link_->send(h, up.epoch, std::move(p.bytes), t);
        }
        awaiting.push_back(ps);
      }
      col.drain();
      if (!single_epoch) store_checkpoint();
      if (mon != nullptr) mon->tick(t);
      if (!single_epoch) serve_publish(t);
      if (t >= horizon) break;
    }
    net_->finish();

    if (reliable) {
      // Settlement tail: keep stepping simulated time so in-flight frames,
      // acks, and retransmits can land. Bounded — a frame that cannot make
      // it within the retry budget expires rather than spinning forever.
      int rounds = 0;
      while (!link_->all_settled() && rounds++ < 256) {
        t += cfg_.tick;
        advance_channels(t);
      }
      link_->expire_outstanding();
    }
    channel_->flush();
    if (reverse_) reverse_->flush();
    col.drain();
    seal_settled(/*force=*/true);
    col.submit_mirror_batch(scorer_.mirrored());
    col.stop();
    cstats_ = col.stats();
    payloads_dropped_ = channel_->payloads_dropped();
    // The tail seals above flushed the last epochs into the analyzer (and
    // its spill sink); one final checkpoint makes them durable.
    store_checkpoint();
    // Final sample: the tail seals above are where sequence-gap losses are
    // accounted, so the closing tick is what lets a loss alarm fire even
    // when the loss only materializes at shutdown.
    if (mon != nullptr) mon->tick(horizon + cfg_.tick);
    serve_publish(horizon + cfg_.tick);
  }

  static std::uint64_t epoch_key(int host, std::uint32_t epoch) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host))
            << 32) |
           epoch;
  }

  void advance_channels(Nanos t) {
    channel_->advance_to(t);
    if (reverse_) reverse_->advance_to(t);
    link_->tick(t);
  }

  /// Durability barrier: fsync everything the analyzer has absorbed so far
  /// into the segment store, then let the compactor age sealed segments.
  /// The store-seal watermark advances to the analyzer-curve frontier — the
  /// store just made durable exactly what the analyzer had ingested.
  void store_checkpoint() {
    if (taps_.store == nullptr) return;
    (void)taps_.store->seal_epoch();
    taps_.store->maintain();
    ++checkpoints_;
    if (cfg_.scrub_interval > 0 &&
        checkpoints_ % static_cast<std::uint64_t>(cfg_.scrub_interval) == 0) {
      scrub();
    }
    if (taps_.health != nullptr) {
      health::Watermarks& marks = taps_.health->watermarks();
      const Nanos hi = marks.high(health::Stage::kAnalyzerCurve);
      if (hi != health::Watermarks::kUnset) {
        marks.note(health::Stage::kStoreSeal, hi);
      }
    }
  }

  /// Publishes the serve tap's snapshot slots and SSE events. Driven by the
  /// simulation clock (tick boundaries and the end of the run), never the
  /// wall clock, so two same-seed runs serve byte-identical artifacts to an
  /// identical request script.
  void serve_publish(Nanos now) {
    serve::Server* server = taps_.serve;
    if (server == nullptr) return;
    health::HealthMonitor* mon = taps_.health;
    store::Store* st = taps_.store;
    if (mon != nullptr) {
      std::ostringstream hj;
      mon->write_jsonl(hj);
      server->set_snapshot("health_jsonl", hj.str());
      std::ostringstream ha;
      mon->write_alarms_jsonl(ha);
      server->set_snapshot("health_alarms", ha.str());
      std::ostringstream hh;
      mon->write_html(hh, /*live=*/true);
      server->set_snapshot("health_html", hh.str());
      std::ostringstream ls;
      mon->write_live_sample(ls);
      server->broadcast_sse("tick", ls.str());
    }
    const std::size_t store_flows = st != nullptr ? st->flows().size() : 0;
    std::ostringstream status;
    status << "{\"t_ns\":" << now << ",\"packets\":" << packets_
           << ",\"healthy\":"
           << (mon == nullptr || mon->healthy() ? "true" : "false");
    if (st != nullptr) {
      status << ",\"store_generation\":" << st->generation()
             << ",\"store_flows\":" << store_flows;
    }
    status << "}\n";
    server->set_snapshot("status", status.str());
    if (st == nullptr || st->generation() == serve_generation_) return;
    serve_generation_ = st->generation();
    std::ostringstream cd;
    cd << "{\"type\":\"curve\",\"t_ns\":" << now
       << ",\"generation\":" << serve_generation_
       << ",\"flows\":" << store_flows;
    const auto sealed = st->last_sealed_epoch();
    if (sealed.has_value()) cd << ",\"last_sealed_epoch\":" << *sealed;
    cd << "}";
    server->broadcast_sse("curve", cd.str());
  }

  Config cfg_;
  Taps taps_;
  std::unique_ptr<netsim::Network> net_;
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches_;
  analyzer::Analyzer an_;
  // Declared after an_: the collector holds a reference to it.
  std::unique_ptr<collector::Collector> collector_;
  std::unique_ptr<netsim::UploadChannel> channel_;
  std::unique_ptr<netsim::UploadChannel> reverse_;
  std::unique_ptr<resilience::ReliableLink> link_;
  uevent::EventScorer scorer_;
  uevent::AclMirror mirror_;
  workload::Workload workload_;
  /// Window span of every flushed (host, epoch), for the epoch-loss hook.
  std::map<std::uint64_t, std::pair<WindowId, WindowId>> epoch_windows_;
  std::uint64_t packets_ = 0;
  collector::CollectorStats cstats_;
  std::uint64_t payloads_dropped_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t scrub_passes_ = 0;
  store::ScrubReport scrub_total_;
  std::uint64_t serve_generation_ = 0;
};

}  // namespace umon::pipeline
