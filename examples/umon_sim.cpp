// umon_sim: command-line driver for full uMon experiments.
//
// Parses flags into a umon::pipeline Config plus taps, runs the pipeline on
// the fat-tree simulator (src/pipeline/pipeline.hpp), and prints the
// analyzer's view: accuracy, bandwidth, events, and one section per tap.
//
//   --workload websearch|hadoop --load F --ms N --seed N   traffic
//   --sample-bits N --k N --width N --depth N --pfc --dctcp
//   --collector-shards N --report-loss F   collection tier instead of
//                                          in-process ingest
//   --metrics-out FILE --trace-out FILE    Prometheus snapshot / Chrome trace
//   --log-level trace|debug|info|warn|error|off
//   --health-out FILE --health-interval US --health-alarms 'rule; ...'
//                                          health JSONL (+ FILE.html); the
//                                          interval is the epoch tick
//   --fault-plan FILE --uplink-reliable --uplink-retx-buffer N --gap-fill
//   --require-recovered                    exit 1 on an unrecovered epoch or
//                                          a corrupt record after reopen
//   --store-dir DIR --store-tier-budget K  durable segment store
//   --disk-fault-plan FILE --scrub-interval N --scrub-audit FILE
//   --prof-out FILE --lineage-out FILE     folded stacks / lineage audit
//   --serve-port N --serve-port-file FILE --serve-linger S
//
// Any of health, fault plans, the reliable uplink, disk faults or lineage
// chunks the run into --health-interval ticks (default 500 us); otherwise
// each host uploads one epoch, ingested in-process unless the collector,
// report loss or self-monitoring flags ask for the collection tier.
//
// Example:
//   ./build/examples/umon_sim --workload hadoop --load 0.35 --sample-bits 4
//   ./build/examples/umon_sim --health-out health.jsonl --report-loss 0.05
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

#include "analyzer/groundtruth.hpp"
#include "analyzer/metrics.hpp"
#include "obs/prof.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/endpoints.hpp"
#include "store/io.hpp"

namespace {

using namespace umon;

struct Options {
  /// Traffic, sketch, collection-tier and scrub flags; --health-interval is
  /// `tick`. tick and collector_shards are finalized after parsing.
  pipeline::Config cfg;
  std::string metrics_out;   ///< Prometheus text snapshot path ("" = off)
  std::string trace_out;     ///< Chrome trace JSON path ("" = off)
  std::string log_level;     ///< "" = leave logger at its default (warn)
  std::string health_out;    ///< health JSONL path ("" = health off)
  std::string health_alarms;  ///< "" = HealthMonitor::default_alarms()
  std::string fault_plan;     ///< chaos schedule path ("" = no injection)
  bool require_recovered = false;  ///< exit 1 on any unrecovered epoch
  std::string store_dir;           ///< durable segment store ("" = off)
  std::size_t store_tier_budget = 64;
  std::string disk_fault_plan;  ///< store I/O chaos schedule ("" = off)
  std::string scrub_audit;      ///< scrub findings JSONL path ("" = off)
  std::string prof_out;     ///< folded-stack output path ("" = profiler off)
  std::string lineage_out;  ///< lineage audit JSONL path ("" = lineage off)
  int serve_port = -1;          ///< -1 = serving off; 0 = ephemeral port
  std::string serve_port_file;  ///< write the bound port here (for scripts)
  double serve_linger = 0.0;    ///< seconds to keep serving after the run

  [[nodiscard]] bool serve_requested() const { return serve_port >= 0; }
  [[nodiscard]] bool telemetry_requested() const {
    return !metrics_out.empty() || !trace_out.empty();
  }
  [[nodiscard]] bool health_requested() const { return !health_out.empty(); }
  [[nodiscard]] bool store_requested() const { return !store_dir.empty(); }
  [[nodiscard]] bool scrub_requested() const {
    return cfg.scrub_interval > 0 || !disk_fault_plan.empty();
  }
  [[nodiscard]] bool lineage_requested() const { return !lineage_out.empty(); }
  /// Per-tick epochs are what let faults, retransmits, health samples, and
  /// lineage taps interleave with the workload instead of running after it.
  /// A disk-fault plan needs them too: per-tick epoch seals are what give
  /// the I/O shim a syscall stream worth faulting.
  [[nodiscard]] bool chunked() const {
    return health_requested() || lineage_requested() || cfg.uplink_reliable ||
           !fault_plan.empty() || !disk_fault_plan.empty();
  }
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string v = next("--workload");
      if (v == "websearch") {
        opt.cfg.kind = workload::WorkloadKind::kWebSearch;
      } else if (v == "hadoop") {
        opt.cfg.kind = workload::WorkloadKind::kHadoop;
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (arg == "--load") {
      opt.cfg.load = std::atof(next("--load"));
    } else if (arg == "--ms") {
      opt.cfg.duration = static_cast<Nanos>(std::atof(next("--ms")) * 1e6);
    } else if (arg == "--sample-bits") {
      opt.cfg.sample_bits = std::atoi(next("--sample-bits"));
    } else if (arg == "--k") {
      opt.cfg.k = static_cast<std::size_t>(std::atoi(next("--k")));
    } else if (arg == "--width") {
      opt.cfg.width = static_cast<std::uint32_t>(std::atoi(next("--width")));
    } else if (arg == "--depth") {
      opt.cfg.depth = std::atoi(next("--depth"));
    } else if (arg == "--pfc") {
      opt.cfg.pfc = true;
    } else if (arg == "--dctcp") {
      opt.cfg.dctcp = true;
    } else if (arg == "--seed") {
      opt.cfg.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--collector-shards") {
      opt.cfg.collector_shards = std::atoi(next("--collector-shards"));
    } else if (arg == "--report-loss") {
      opt.cfg.report_loss = std::atof(next("--report-loss"));
    } else if (arg == "--metrics-out") {
      opt.metrics_out = next("--metrics-out");
    } else if (arg == "--trace-out") {
      opt.trace_out = next("--trace-out");
    } else if (arg == "--log-level") {
      opt.log_level = next("--log-level");
    } else if (arg == "--health-out") {
      opt.health_out = next("--health-out");
    } else if (arg == "--health-interval") {
      opt.cfg.tick =
          static_cast<Nanos>(std::atof(next("--health-interval"))) * kMicro;
      // The epoch pipeline seals one tick late; the tick must cover the
      // upload channel's base delay + jitter (50 + 20 us) so every payload
      // of epoch N has landed before the N+1 tick seals it.
      if (opt.cfg.tick < 100 * kMicro) {
        opt.cfg.tick = 100 * kMicro;
      }
    } else if (arg == "--health-alarms") {
      opt.health_alarms = next("--health-alarms");
    } else if (arg == "--fault-plan") {
      opt.fault_plan = next("--fault-plan");
    } else if (arg == "--uplink-reliable") {
      opt.cfg.uplink_reliable = true;
    } else if (arg == "--uplink-retx-buffer") {
      opt.cfg.uplink_retx_buffer =
          static_cast<std::size_t>(std::atoll(next("--uplink-retx-buffer")));
    } else if (arg == "--gap-fill") {
      opt.cfg.gap_fill = true;
    } else if (arg == "--require-recovered") {
      opt.require_recovered = true;
    } else if (arg == "--store-dir") {
      opt.store_dir = next("--store-dir");
    } else if (arg == "--store-tier-budget") {
      opt.store_tier_budget =
          static_cast<std::size_t>(std::atoll(next("--store-tier-budget")));
      if (opt.store_tier_budget < 4) opt.store_tier_budget = 4;
    } else if (arg == "--disk-fault-plan") {
      opt.disk_fault_plan = next("--disk-fault-plan");
    } else if (arg == "--scrub-interval") {
      opt.cfg.scrub_interval = std::atoi(next("--scrub-interval"));
      if (opt.cfg.scrub_interval < 0) opt.cfg.scrub_interval = 0;
    } else if (arg == "--scrub-audit") {
      opt.scrub_audit = next("--scrub-audit");
    } else if (arg == "--prof-out") {
      opt.prof_out = next("--prof-out");
    } else if (arg == "--lineage-out") {
      opt.lineage_out = next("--lineage-out");
    } else if (arg == "--serve-port") {
      opt.serve_port = std::atoi(next("--serve-port"));
      if (opt.serve_port < 0 || opt.serve_port > 0xFFFF) {
        std::fprintf(stderr, "--serve-port must be 0..65535\n");
        return false;
      }
    } else if (arg == "--serve-port-file") {
      opt.serve_port_file = next("--serve-port-file");
    } else if (arg == "--serve-linger") {
      opt.serve_linger = std::atof(next("--serve-linger"));
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::printf(
        "usage: umon_sim [--workload websearch|hadoop] [--load F] [--ms N]\n"
        "                [--sample-bits N] [--k N] [--width N] [--depth N]\n"
        "                [--pfc] [--dctcp] [--seed N]\n"
        "                [--collector-shards N] [--report-loss F]\n"
        "                [--metrics-out FILE] [--trace-out FILE]\n"
        "                [--log-level trace|debug|info|warn|error|off]\n"
        "                [--health-out FILE] [--health-interval US]\n"
        "                [--health-alarms 'rule; rule; ...']\n"
        "                [--fault-plan FILE] [--uplink-reliable]\n"
        "                [--uplink-retx-buffer N] [--gap-fill]\n"
        "                [--require-recovered]\n"
        "                [--store-dir DIR] [--store-tier-budget K]\n"
        "                [--disk-fault-plan FILE] [--scrub-interval N]\n"
        "                [--scrub-audit FILE]\n"
        "                [--prof-out FILE] [--lineage-out FILE]\n"
        "                [--serve-port N] [--serve-port-file FILE]\n"
        "                [--serve-linger SECONDS]\n");
    return 2;
  }

  if (!opt.log_level.empty()) {
    telemetry::Logger::global().set_level(
        telemetry::parse_log_level(opt.log_level));
  }
  if (opt.telemetry_requested()) {
    // Detailed self-monitoring: latency histograms and (if requested) spans.
    telemetry::set_detail_enabled(true);
  }
  if (!opt.trace_out.empty()) {
    telemetry::TraceRecorder::global().enable();
  }
  if (!opt.prof_out.empty()) {
    // Calibrates rdtsc (~2 ms spin) and starts 1-in-N sampling on every
    // instrumented hot path; the run's own packet work is the workload.
    obs::prof_enable();
  }

  // The pipeline derives the collection tier from the config and taps;
  // self-monitoring adds it here because the metrics export reads the
  // collector's registries. --health-interval only sets the tick of runs
  // with a per-tick flag; any other run uploads one epoch per host.
  pipeline::Config& cfg = opt.cfg;
  if (cfg.collector_shards <= 0 && opt.telemetry_requested()) {
    cfg.collector_shards = pipeline::Pipeline::kDefaultShards;
  }
  if (!opt.chunked()) cfg.tick = cfg.horizon();

  // Taps, each parsed or opened before the run so a bad input exits fast.
  pipeline::Taps taps;
  std::unique_ptr<resilience::FaultInjector> injector;
  if (!opt.fault_plan.empty()) {
    std::string err;
    auto plan = resilience::FaultPlan::parse_file(opt.fault_plan, &err);
    if (!plan) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", err.c_str());
      return 2;
    }
    injector = std::make_unique<resilience::FaultInjector>(std::move(*plan));
    taps.faults = injector.get();
  }
  // Disk-fault schedule for the segment store. Same plan format, separate
  // file: the channel injector and the I/O shim each consume their own
  // seeded stream, so one layer's chaos never perturbs the other's.
  std::unique_ptr<store::FaultyIo> disk_io;
  if (!opt.disk_fault_plan.empty()) {
    if (!opt.store_requested()) {
      std::fprintf(stderr, "--disk-fault-plan requires --store-dir\n");
      return 2;
    }
    std::string err;
    auto plan = resilience::FaultPlan::parse_file(opt.disk_fault_plan, &err);
    if (!plan) {
      std::fprintf(stderr, "bad --disk-fault-plan: %s\n", err.c_str());
      return 2;
    }
    disk_io = std::make_unique<store::FaultyIo>(*plan);
  }
  std::unique_ptr<obs::LineageTracker> lineage;
  if (opt.lineage_requested()) {
    lineage = std::make_unique<obs::LineageTracker>();
    taps.lineage = lineage.get();
  }
  std::unique_ptr<store::Store> curve_store;
  store::RecoveryInfo store_recovery;
  if (opt.store_requested()) {
    store::StoreConfig scfg;
    scfg.dir = opt.store_dir;
    scfg.tier_budget = opt.store_tier_budget;
    scfg.io = disk_io.get();
    curve_store = store::Store::open(scfg, &store_recovery);
    if (!curve_store) {
      std::fprintf(stderr, "cannot open --store-dir %s\n",
                   opt.store_dir.c_str());
      return 2;
    }
    taps.store = curve_store.get();
  }
  std::unique_ptr<health::HealthMonitor> mon;
  if (opt.health_requested()) {
    health::HealthConfig hcfg;
    hcfg.interval = cfg.tick;
    hcfg.alarms = opt.health_alarms;
    mon = std::make_unique<health::HealthMonitor>(hcfg);
    if (!mon->alarm_parse_error().empty()) {
      std::fprintf(stderr, "bad --health-alarms: %s\n",
                   mon->alarm_parse_error().c_str());
      return 2;
    }
    taps.health = mon.get();
  }
  std::ofstream scrub_audit_os;
  if (!opt.scrub_audit.empty()) {
    scrub_audit_os.open(opt.scrub_audit);
    if (!scrub_audit_os) {
      std::fprintf(stderr, "cannot write %s\n", opt.scrub_audit.c_str());
      return 1;
    }
    taps.scrub_audit = &scrub_audit_os;
  }
  analyzer::GroundTruth truth;
  taps.truth = &truth;

  // Live observability plane: the server thread owns every socket; the
  // pipeline only publishes snapshot strings and SSE events into it (both
  // internally synchronized), so nothing here slows the packet path. It is
  // started once the pipeline exists, whose registries it serves; the
  // pipeline stops it before they go away.
  std::unique_ptr<serve::Server> http_server;
  std::unique_ptr<serve::Endpoints> http_endpoints;
  if (opt.serve_requested()) {
    serve::ServeConfig scfg;
    scfg.port = static_cast<std::uint16_t>(opt.serve_port);
    http_server = std::make_unique<serve::Server>(scfg);
    taps.serve = http_server.get();
  }

  pipeline::Pipeline p(cfg, taps);

  if (http_server) {
    serve::Services svc;
    svc.registries.push_back(&telemetry::MetricRegistry::global());
    if (p.collector() != nullptr) {
      svc.registries.push_back(&p.collector()->telemetry_registry());
      svc.registries.push_back(&p.link()->telemetry_registry());
    }
    if (curve_store) {
      svc.registries.push_back(&curve_store->telemetry_registry());
      svc.store = curve_store.get();
      svc.store_dir = opt.store_dir;
      svc.store_rinfo = store_recovery;
    }
    svc.lineage = lineage.get();
    http_endpoints = std::make_unique<serve::Endpoints>(*http_server, svc);
    if (!http_server->start()) {
      std::fprintf(stderr, "cannot serve on port %d\n", opt.serve_port);
      return 2;
    }
    if (!opt.serve_port_file.empty()) {
      std::ofstream pf(opt.serve_port_file);
      if (!pf) {
        std::fprintf(stderr, "cannot write %s\n",
                     opt.serve_port_file.c_str());
        return 2;
      }
      pf << http_server->port() << "\n";
    }
  }

  p.run();
  const netsim::Network& net = p.network();
  analyzer::Analyzer& an = p.analyzer();

  std::printf("uMon simulation report\n");
  std::printf("  workload:        %s, %.0f%% load, %.1f ms, %s%s\n",
              workload::to_string(cfg.kind).c_str(), cfg.load * 100,
              static_cast<double>(cfg.duration) / 1e6,
              cfg.dctcp ? "DCTCP" : "DCQCN", cfg.pfc ? " + PFC" : "");
  std::printf("  flows / packets: %zu / %llu\n", p.workload().flows.size(),
              static_cast<unsigned long long>(p.packets()));
  std::printf("  drops:           %llu\n",
              static_cast<unsigned long long>(net.total_drops()));
  if (cfg.pfc) {
    std::printf("  PFC pauses:      %llu (total paused %.1f us)\n",
                static_cast<unsigned long long>(net.pfc_stats().pause_frames),
                static_cast<double>(net.pfc_stats().total_paused) / 1e3);
  }

  // uFlow accuracy over heavy flows.
  double cos = 0, are = 0;
  int evaluated = 0;
  for (const auto& f : p.workload().flows) {
    if (f.bytes < 100'000) continue;
    const auto t = truth.series(f.key);
    const auto est = an.query_rate(f.key);
    if (t.empty() || est.empty()) continue;
    std::vector<double> aligned(t.values.size(), 0.0);
    for (std::size_t i = 0; i < aligned.size(); ++i) {
      aligned[i] = est.bytes_at(t.w0 + static_cast<WindowId>(i));
    }
    const auto m = analyzer::curve_metrics(t.values, aligned);
    cos += m.cosine;
    are += m.are;
    ++evaluated;
  }
  std::printf("\nuFlow (WaveSketch d=%d w=%u K=%zu)\n", cfg.depth, cfg.width,
              cfg.k);
  if (evaluated > 0) {
    std::printf("  heavy flows evaluated: %d\n", evaluated);
    std::printf("  avg cosine similarity: %.4f\n", cos / evaluated);
    std::printf("  avg relative error:    %.4f\n", are / evaluated);
  }
  const double seconds = static_cast<double>(cfg.duration) / 1e9;
  std::printf("  report bandwidth:      %.2f Mbps/host\n",
              static_cast<double>(an.report_bytes_ingested()) * 8 / seconds /
                  1e6 / net.host_count());

  // uEvent summary.
  const auto scores = p.scorer().score(net);
  std::size_t severe = 0, severe_detected = 0;
  for (const auto& s : scores) {
    if (s.max_queue_bytes >= 200 * 1024) {
      ++severe;
      severe_detected += s.detected ? 1 : 0;
    }
  }
  const auto events = an.events();
  std::printf("\nuEvent (CE match, 1/%d sampling)\n", 1 << cfg.sample_bits);
  std::printf("  ground-truth episodes: %zu (severe: %zu)\n", scores.size(),
              severe);
  if (severe > 0) {
    std::printf("  severe recall:         %.3f\n",
                static_cast<double>(severe_detected) /
                    static_cast<double>(severe));
  }
  std::printf("  events assembled:      %zu\n", events.size());
  std::printf("  mirror bandwidth:      %.2f Mbps (max over switches: see "
              "bench_fig15)\n",
              static_cast<double>(an.mirror_bytes_ingested()) * 8 / seconds /
                  1e6);

  if (p.collector() != nullptr) {
    const collector::CollectorStats& cstats = p.collector_stats();
    std::printf("\ncollector (%d shards, %.1f%% report loss)\n",
                p.collector()->config().shards, cfg.report_loss * 100);
    std::printf("  payloads:        %llu submitted, %llu dropped in channel, "
                "%llu malformed\n",
                static_cast<unsigned long long>(cstats.payloads_submitted),
                static_cast<unsigned long long>(p.payloads_dropped()),
                static_cast<unsigned long long>(cstats.payloads_malformed));
    std::printf("  reports:         %llu decoded, %llu lost (seq gaps), "
                "%llu shed\n",
                static_cast<unsigned long long>(cstats.reports_decoded),
                static_cast<unsigned long long>(cstats.reports_lost),
                static_cast<unsigned long long>(cstats.reports_shed));
    const char* policy = "block";
    switch (p.collector()->config().overflow) {
      case collector::OverflowPolicy::kBlock: policy = "block"; break;
      case collector::OverflowPolicy::kDropNewest: policy = "drop-newest";
        break;
      case collector::OverflowPolicy::kDropOldest: policy = "drop-oldest";
        break;
    }
    std::printf("  queue policy:    %s — %llu batches shed (%llu rejected "
                "drop-newest, %llu evicted drop-oldest)\n",
                policy,
                static_cast<unsigned long long>(cstats.batches_shed),
                static_cast<unsigned long long>(cstats.batches_rejected),
                static_cast<unsigned long long>(cstats.batches_evicted));
    std::printf("  epochs flushed:  %llu (%llu curve fragments)\n",
                static_cast<unsigned long long>(cstats.epochs_flushed),
                static_cast<unsigned long long>(cstats.fragments_ingested));
    if (cstats.shard_crashes > 0) {
      std::printf("  shard crashes:   %llu (%llu restarts) — %llu batches / "
                  "%llu staged fragments discarded while down\n",
                  static_cast<unsigned long long>(cstats.shard_crashes),
                  static_cast<unsigned long long>(cstats.shard_restarts),
                  static_cast<unsigned long long>(cstats.batches_crashed),
                  static_cast<unsigned long long>(cstats.fragments_crashed));
    }
  }

  std::uint64_t epochs_unrecovered = 0;
  const resilience::ReliableLink* link = p.link();
  if (link != nullptr && cfg.uplink_reliable) {
    const resilience::ReliableStats rs = link->stats();
    epochs_unrecovered = rs.epochs_unrecovered;
    std::printf("\nreliable uplink (retx buffer %zu frames)\n",
                link->config().retx_buffer_frames);
    std::printf("  frames:          %llu sent, %llu retransmitted, "
                "%llu acked, %llu expired, %llu evicted\n",
                static_cast<unsigned long long>(rs.frames_sent),
                static_cast<unsigned long long>(rs.frames_retransmitted),
                static_cast<unsigned long long>(rs.frames_acked),
                static_cast<unsigned long long>(rs.frames_expired),
                static_cast<unsigned long long>(rs.frames_evicted));
    std::printf("  receiver:        %llu corrupt rejected, %llu duplicates "
                "suppressed\n",
                static_cast<unsigned long long>(rs.frames_corrupt),
                static_cast<unsigned long long>(rs.frames_duplicate));
    std::printf("  acks:            %llu sent, %llu received\n",
                static_cast<unsigned long long>(rs.acks_sent),
                static_cast<unsigned long long>(rs.acks_received));
    std::printf("  epochs:          %llu settled — %llu recovered, "
                "%llu unrecovered\n",
                static_cast<unsigned long long>(rs.epochs_settled),
                static_cast<unsigned long long>(rs.epochs_recovered),
                static_cast<unsigned long long>(rs.epochs_unrecovered));
  }
  if (link != nullptr) {
    const auto& curves = an.curves();
    const std::size_t retx =
        curves.marked_count(analyzer::WindowConfidence::kRetransmitted);
    const std::size_t lost =
        curves.marked_count(analyzer::WindowConfidence::kLost);
    if (retx > 0 || lost > 0) {
      std::printf("  window flags:    %zu retransmitted, %zu lost%s\n", retx,
                  lost, curves.gap_fill() ? " (gap-filled on read)" : "");
    }
  }
  if (injector) {
    const resilience::FaultStats& fs = injector->stats();
    std::printf("\nfault injection (%s)\n", opt.fault_plan.c_str());
    std::printf("  injected:        %llu drops, %llu duplicates, "
                "%llu corruptions, %llu delays, %llu stalled flushes\n",
                static_cast<unsigned long long>(fs.drops),
                static_cast<unsigned long long>(fs.duplicates),
                static_cast<unsigned long long>(fs.corruptions),
                static_cast<unsigned long long>(fs.delays),
                static_cast<unsigned long long>(fs.stalled_flushes));
  }

  if (disk_io) {
    const store::DiskFaultStats& ds = disk_io->stats();
    std::printf("\ndisk fault injection (%s)\n", opt.disk_fault_plan.c_str());
    std::printf("  syscalls:        %llu pwrites, %llu fsyncs, "
                "%llu mutating ops\n",
                static_cast<unsigned long long>(ds.pwrites),
                static_cast<unsigned long long>(ds.fsyncs),
                static_cast<unsigned long long>(disk_io->mutating_ops()));
    std::printf("  injected:        %llu write errors, %llu short writes, "
                "%llu lying fsyncs (%llu bytes dropped)\n",
                static_cast<unsigned long long>(ds.write_errors),
                static_cast<unsigned long long>(ds.short_writes),
                static_cast<unsigned long long>(ds.fsync_failures),
                static_cast<unsigned long long>(ds.dropped_bytes));
    if (ds.corruptions > 0) {
      std::printf("  media rot:       %llu corruption(s), %llu bit(s) "
                  "flipped\n",
                  static_cast<unsigned long long>(ds.corruptions),
                  static_cast<unsigned long long>(ds.bits_flipped));
    }
  }

  // Closing scrub: whatever rot the plan injected after the last periodic
  // pass must be found, quarantined, and accounted before the report (and
  // before the --require-recovered verdict).
  if (curve_store && opt.scrub_requested()) p.scrub();

  if (curve_store) {
    const store::StoreStats ss = curve_store->stats();
    std::printf("\ndurable store (%s, tier budget K=%zu)\n",
                opt.store_dir.c_str(), opt.store_tier_budget);
    if (store_recovery.segments_opened > 0 ||
        store_recovery.torn_tails_truncated > 0 ||
        store_recovery.tmp_files_removed > 0) {
      std::printf("  recovery:        %zu segments reopened, %zu torn tails "
                  "truncated, %zu tmp removed, %zu records\n",
                  store_recovery.segments_opened,
                  store_recovery.torn_tails_truncated,
                  store_recovery.tmp_files_removed,
                  store_recovery.records_recovered);
    }
    std::printf("  appends:         %llu records, %.2f MB payload, "
                "%llu epochs sealed\n",
                static_cast<unsigned long long>(ss.appends),
                static_cast<double>(ss.append_bytes) / 1e6,
                static_cast<unsigned long long>(ss.epochs_sealed));
    for (int tier = 0; tier < 3; ++tier) {
      const store::TierUsage& tu = ss.tiers[tier];
      if (tu.segments == 0) continue;
      std::printf("  tier %d:          %zu segment(s), %.2f MB\n", tier,
                  tu.segments, static_cast<double>(tu.bytes) / 1e6);
    }
    if (ss.compactions_tier1 + ss.compactions_tier2 > 0) {
      std::printf("  compactions:     %llu to tier 1, %llu to tier 2 "
                  "(%.2f MB -> %.2f MB)\n",
                  static_cast<unsigned long long>(ss.compactions_tier1),
                  static_cast<unsigned long long>(ss.compactions_tier2),
                  static_cast<double>(ss.compaction_input_bytes) / 1e6,
                  static_cast<double>(ss.compaction_output_bytes) / 1e6);
    }
    std::printf("  page cache:      %llu hits, %llu misses, %llu evictions "
                "(hit ratio %.2f)\n",
                static_cast<unsigned long long>(ss.cache.hits),
                static_cast<unsigned long long>(ss.cache.misses),
                static_cast<unsigned long long>(ss.cache.evictions),
                ss.cache.hit_ratio());
    if (ss.seal_failures > 0) {
      std::printf("  seal failures:   %llu epoch seal(s) hit I/O errors "
                  "(recovered on reopen)\n",
                  static_cast<unsigned long long>(ss.seal_failures));
    }
    const store::ScrubReport& scrub_total = p.scrub_total();
    if (p.scrub_passes() > 0) {
      std::printf("  scrub:           %llu pass(es), %zu record(s) verified "
                  "(%.2f MB raw)\n",
                  static_cast<unsigned long long>(p.scrub_passes()),
                  scrub_total.records_verified,
                  static_cast<double>(scrub_total.bytes_scanned) / 1e6);
      if (scrub_total.corrupt_records > 0) {
        std::printf("  quarantine:      %zu corrupt record(s) -> %zu chunk(s) "
                    "quarantined, %zu repaired from shadow, %llu window(s) "
                    "lost\n",
                    scrub_total.corrupt_records,
                    scrub_total.chunks_quarantined,
                    scrub_total.chunks_repaired,
                    static_cast<unsigned long long>(scrub_total.windows_lost));
      } else {
        std::printf("  quarantine:      clean — no corrupt records found\n");
      }
      if (!opt.scrub_audit.empty()) {
        std::printf("  scrub audit:     %s\n", opt.scrub_audit.c_str());
      }
    }
    std::printf("  query it back:   umon_query --store-dir %s --op sum\n",
                opt.store_dir.c_str());
  }

  if (mon) {
    std::printf("\nhealth (sampled every %.0f us)\n",
                static_cast<double>(cfg.tick) / 1e3);
    std::printf("  samples:         %llu ticks, %zu series\n",
                static_cast<unsigned long long>(mon->ticks()),
                mon->store().series_count());
    std::vector<health::Stage> stages{
        health::Stage::kPacketEvent, health::Stage::kSketchSeal,
        health::Stage::kCollectorDecode, health::Stage::kAnalyzerCurve,
        health::Stage::kResilience};
    if (curve_store) stages.push_back(health::Stage::kStoreSeal);
    for (health::Stage s : stages) {
      std::printf("  watermark %-18s high %.1f us (lag %.1f us)\n",
                  health::to_string(s),
                  static_cast<double>(mon->watermarks().high(s)) / 1e3,
                  static_cast<double>(mon->watermarks().freshness_lag(
                      s, mon->last_tick())) / 1e3);
    }
    const health::RingStore::Entry* probe_are =
        mon->store().find("umon_health_probe_are");
    if (probe_are != nullptr && probe_are->ring.size() > 0) {
      const health::RingStore::Entry* probe_nmse =
          mon->store().find("umon_health_probe_nmse");
      std::printf("  fidelity probe:  ARE %.4f, NMSE %.4f (%zu flows)\n",
                  probe_are->ring.last(),
                  probe_nmse != nullptr ? probe_nmse->ring.last() : 0.0,
                  mon->probe().probed_flows());
    }
    for (std::size_t i = 0; i < mon->alarms().specs().size(); ++i) {
      if (mon->alarms().fire_count(i) == 0) continue;
      std::printf("  ALARM fired %llux: %s\n",
                  static_cast<unsigned long long>(mon->alarms().fire_count(i)),
                  mon->alarms().specs()[i].text.c_str());
    }
    std::printf("  verdict:         %s\n",
                mon->healthy() ? "HEALTHY" : "UNHEALTHY");

    std::ofstream os(opt.health_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.health_out.c_str());
      return 1;
    }
    mon->write_jsonl(os);
    const std::string html_path = opt.health_out + ".html";
    std::ofstream ho(html_path);
    if (!ho) {
      std::fprintf(stderr, "cannot write %s\n", html_path.c_str());
      return 1;
    }
    mon->write_html(ho);
    std::printf("  health output:   %s (+ %s)\n", opt.health_out.c_str(),
                html_path.c_str());
  }

  if (lineage) {
    const auto epochs = lineage->snapshot();
    std::size_t retransmitted = 0, lost = 0;
    for (const auto& e : epochs) {
      if (e.verdict == obs::Verdict::kLost) ++lost;
      if (e.verdict == obs::Verdict::kRetransmitted) ++retransmitted;
    }
    std::ofstream os(opt.lineage_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.lineage_out.c_str());
      return 1;
    }
    lineage->write_audit_jsonl(os);
    std::printf("\nlineage audit (%s)\n", opt.lineage_out.c_str());
    std::printf("  epochs traced:   %zu (%zu retransmitted, %zu lost)\n",
                epochs.size(), retransmitted, lost);
    if (!opt.trace_out.empty()) {
      std::printf("  trace arrows:    open %s in ui.perfetto.dev — each "
                  "epoch's hops are flow-linked\n",
                  opt.trace_out.c_str());
    }
  }

  if (!opt.prof_out.empty()) {
    obs::prof_disable();
    std::ofstream os(opt.prof_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.prof_out.c_str());
      return 1;
    }
    obs::prof_write_folded(os);
    obs::prof_publish(telemetry::MetricRegistry::global());
    const double cpns = obs::prof_cycles_per_ns();
    std::printf("\ncycle profile (rdtsc, %.2f cycles/ns)\n", cpns);
    std::printf("  %-16s %10s %7s %14s %12s %10s\n", "stage", "samples",
                "1-in-N", "est cycles", "cyc/packet", "ns/call");
    for (const auto& s : obs::prof_snapshot()) {
      // Sampling un-bias: each sample stands for `period` calls.
      const double est =
          static_cast<double>(s.sampled_cycles) * s.period;
      const double per_call =
          s.samples > 0 ? static_cast<double>(s.sampled_cycles) /
                              static_cast<double>(s.samples)
                        : 0.0;
      std::printf("  %-16s %10llu %7u %14.0f %12.2f %10.1f\n", s.name,
                  static_cast<unsigned long long>(s.samples), s.period, est,
                  p.packets() > 0
                      ? est / static_cast<double>(p.packets())
                      : 0.0,
                  cpns > 0 ? per_call / cpns : per_call);
    }
    std::printf("  folded stacks:   %s (render: flamegraph.pl %s > "
                "prof.svg)\n",
                opt.prof_out.c_str(), opt.prof_out.c_str());
  }

  // --- self-monitoring ------------------------------------------------------
  if (opt.telemetry_requested()) {
    const telemetry::MetricRegistry* regs[] = {
        &telemetry::MetricRegistry::global(),
        p.collector() != nullptr ? &p.collector()->telemetry_registry()
                                 : nullptr};
    const auto samples = telemetry::merged_snapshot(regs);

    std::printf("\nself-monitoring\n");
    // The busiest latency histograms: where this run spent its time.
    std::vector<const telemetry::MetricRegistry::Sample*> hists;
    for (const auto& s : samples) {
      if (s.kind == telemetry::MetricRegistry::Kind::kHistogram &&
          s.hist_count > 0) {
        hists.push_back(&s);
      }
    }
    std::sort(hists.begin(), hists.end(), [](const auto* a, const auto* b) {
      return a->hist_count > b->hist_count;
    });
    if (hists.size() > 5) hists.resize(5);
    for (const auto* h : hists) {
      std::printf("  %-42s %8llu obs, mean %.2f\n", h->name.c_str(),
                  static_cast<unsigned long long>(h->hist_count),
                  h->hist_sum / static_cast<double>(h->hist_count));
    }
    // Every way the pipeline lost or discarded data, by counter. Includes
    // trace-ring overwrites (umon_telemetry_trace_dropped_spans_total).
    std::uint64_t total_lost = 0;
    for (const auto& s : samples) {
      if (s.kind != telemetry::MetricRegistry::Kind::kCounter ||
          s.counter_value == 0) {
        continue;
      }
      const bool lossy = s.name.find("drop") != std::string::npos ||
                         s.name.find("_shed") != std::string::npos ||
                         s.name.find("lost") != std::string::npos ||
                         s.name.find("malformed") != std::string::npos ||
                         s.name.find("evict") != std::string::npos ||
                         s.name.find("reject") != std::string::npos ||
                         s.name.find("prunes") != std::string::npos;
      if (!lossy) continue;
      std::printf("  %-42s %8llu\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.counter_value));
      total_lost += s.counter_value;
    }
    std::printf("  total drops/sheds/prunes:                  %8llu\n",
                static_cast<unsigned long long>(total_lost));

    if (!opt.metrics_out.empty()) {
      std::ofstream os(opt.metrics_out);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", opt.metrics_out.c_str());
        return 1;
      }
      telemetry::write_prometheus(os, regs);
      std::printf("  metrics snapshot:      %s (%zu series)\n",
                  opt.metrics_out.c_str(), samples.size());
    }
    if (!opt.trace_out.empty()) {
      auto& rec = telemetry::TraceRecorder::global();
      std::ofstream os(opt.trace_out);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 1;
      }
      rec.write_chrome_json(os);
      std::printf("  trace:                 %s (%zu spans, %llu dropped)\n",
                  opt.trace_out.c_str(), rec.snapshot().size(),
                  static_cast<unsigned long long>(rec.dropped()));
    }
  }
  if (http_server) {
    if (opt.serve_linger > 0 && !http_server->shutdown_requested()) {
      std::printf("\nserving http://127.0.0.1:%u for up to %.1fs "
                  "(GET /api/v1/shutdown to stop)\n",
                  http_server->port(), opt.serve_linger);
      std::fflush(stdout);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opt.serve_linger));
      while (!http_server->shutdown_requested() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    http_server->stop();
  }
  if (opt.require_recovered && epochs_unrecovered > 0) {
    std::fprintf(stderr,
                 "--require-recovered: %llu epoch(s) went unrecovered\n",
                 static_cast<unsigned long long>(epochs_unrecovered));
    return 1;
  }
  if (opt.require_recovered && opt.store_requested()) {
    // Post-run store audit: drop the live handle, reopen the directory
    // read-only through the real kernel I/O (the injected faults are over),
    // and scrub once more. Recovery must cope with whatever the chaos run
    // left on disk, and nothing corrupt may remain reachable — a record the
    // quarantine missed here is a byte a later query would serve.
    an.set_curve_sink(nullptr);
    curve_store.reset();
    store::StoreConfig vcfg;
    vcfg.dir = opt.store_dir;
    vcfg.tier_budget = opt.store_tier_budget;
    store::RecoveryInfo vinfo;
    const std::unique_ptr<store::Store> verify =
        store::Store::open(vcfg, &vinfo, /*writable=*/false);
    if (!verify) {
      std::fprintf(stderr, "--require-recovered: store %s did not reopen\n",
                   opt.store_dir.c_str());
      return 1;
    }
    const store::ScrubReport vr = verify->scrub();
    std::printf("\npost-run store verify: %zu segment(s) reopened, "
                "%zu record(s) scrubbed, %zu corrupt\n",
                vinfo.segments_opened, vr.records_verified,
                vr.corrupt_records);
    if (vr.corrupt_records > 0) {
      std::fprintf(stderr,
                   "--require-recovered: %zu corrupt record(s) still "
                   "reachable after recovery\n",
                   vr.corrupt_records);
      return 1;
    }
  }
  return 0;
}
