#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "analyzer/analyzer.hpp"
#include "analyzer/metrics.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "health/health.hpp"
#include "netsim/upload_channel.hpp"
#include "resilience/reliable.hpp"
#include "serve/endpoints.hpp"
#include "serve/server.hpp"
#include "sketch/wavesketch_full.hpp"
#include "store/query.hpp"
#include "store/io.hpp"
#include "store/query_io.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"

namespace umon::perfbench {

namespace {

constexpr std::size_t kReportsPerPayload = 64;  // umon_sim's uplink setting
constexpr std::uint64_t kQueriesPerTick = 8;

/// Lap offset: the trace horizon rounded up to a whole window.
Nanos lap_shift(const Capture& cap) {
  return window_start(window_of(cap.horizon - 1) + 1);
}

std::string fmt_us(Nanos t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
  return buf;
}

std::string flow_param(const FlowKey& f) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%u:%u:%u:%u:%u", f.src_ip, f.src_port,
                f.dst_ip, f.dst_port, static_cast<unsigned>(f.proto));
  return buf;
}

/// The store::Query /api/v1/query builds from explicit from_us / to_us.
store::Query range_query(const std::string& from_us, const std::string& to_us) {
  store::Query q;
  q.from = window_of(static_cast<Nanos>(std::strtod(from_us.c_str(), nullptr) *
                                        1e3));
  q.to = window_of(static_cast<Nanos>(std::strtod(to_us.c_str(), nullptr) *
                                      1e3)) +
         1;
  return q;
}

/// Sum of every series of one metric family in Prometheus text.
double prom_value(const std::string& text, const std::string& name) {
  double sum = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() <= name.size() ||
        (line[name.size()] != ' ' && line[name.size()] != '{')) {
      continue;
    }
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The store's file I/O with the device's durability wait taken out: every
/// call goes to the real file system except fsync, which is counted and
/// reported successful, as it effectively is on tmpfs. On a shared virtual
/// disk the fsync latency alone swings a store-heavy replay by 2-3x between
/// minutes, which no regression bound can absorb; the store code runs
/// unchanged (fsync_on_seal stays on) and the fsync count stays visible.
class NoSyncIo final : public store::FileIo {
 public:
  int open(const char* path, int flags, unsigned mode) override {
    return real().open(path, flags, mode);
  }
  ssize_t pread(int fd, void* buf, std::size_t n, off_t off) override {
    return real().pread(fd, buf, n, off);
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t n, off_t off) override {
    return real().pwrite(fd, buf, n, off);
  }
  int fsync(int /*fd*/) override {
    fsyncs_.fetch_add(1);
    return 0;
  }
  int ftruncate(int fd, off_t len) override {
    return real().ftruncate(fd, len);
  }
  int close(int fd) override { return real().close(fd); }
  int unlink(const char* path) override { return real().unlink(path); }
  int rename(const char* from, const char* to) override {
    return real().rename(from, to);
  }
  off_t file_size(int fd) override { return real().file_size(fd); }

  [[nodiscard]] std::uint64_t fsyncs() const {
    return fsyncs_.load();
  }

 private:
  static store::FileIo& real() { return store::real_io(); }
  std::atomic<std::uint64_t> fsyncs_{0};
};

}  // namespace

RoundResult run_round(const Capture& cap, const WorkloadSpec& spec,
                      const QueryTargets& targets, const RoundOptions& opt) {
  RoundResult res;
  res.driver_spans.set_enabled(opt.trace);
  res.eval_spans.set_enabled(opt.trace);
  res.client_spans.set_enabled(opt.trace);
  SpanLog& log = res.driver_spans;
  auto check = [&res](std::string name, bool ok, std::string detail = {}) {
    res.checks.push_back(Check{std::move(name), ok, std::move(detail)});
  };
  std::error_code ec;
  std::filesystem::remove_all(opt.dir, ec);

  // --- construct the pipeline ----------------------------------------------
  const std::int64_t construct_start = now_ns();
  analyzer::Analyzer an;
  NoSyncIo io;
  store::StoreConfig scfg;
  scfg.dir = opt.dir;
  scfg.io = &io;
  store::RecoveryInfo rinfo;
  const std::unique_ptr<store::Store> st = store::Store::open(scfg, &rinfo);
  if (!st) {
    check("store_open", false, opt.dir);
    return res;
  }
  an.set_curve_sink(st.get());

  collector::CollectorConfig ccfg;
  ccfg.shards = 2;
  collector::Collector col(ccfg, an);
  netsim::UploadChannelConfig ucfg;
  ucfg.jitter = 20 * kMicro;
  ucfg.seed = opt.seed;
  netsim::UploadChannel channel(ucfg, nullptr);
  std::unique_ptr<netsim::UploadChannel> reverse;
  if (spec.reliable) {
    netsim::UploadChannelConfig rcfg = ucfg;
    rcfg.seed = opt.seed ^ 0xAC4BAC4ULL;  // umon_sim's ack-channel seed
    reverse = std::make_unique<netsim::UploadChannel>(rcfg, nullptr);
  }
  resilience::ReliableConfig lcfg;
  lcfg.enabled = spec.reliable;
  resilience::ReliableLink link(lcfg, channel, reverse.get());

  // (host, epoch) pairs that lost data on the way: malformed payloads,
  // sequence gaps at the collector seal, epochs the protocol gave up on.
  std::unordered_set<std::uint64_t> failed_epochs;
  link.set_deliver_hook([&](int host, std::uint32_t epoch,
                            std::vector<std::uint8_t>&& payload) {
    const std::uint64_t id = host_epoch_id(host, epoch);
    const Scope s(log, Call::kCollectorSubmit, id);
    if (!col.submit_report_payload(host, epoch, std::move(payload))) {
      failed_epochs.insert(id);
    }
  });
  channel.set_sink([&link](netsim::UploadChannel::Delivery&& d) {
    link.on_forward_delivery(std::move(d));
  });
  if (reverse) {
    reverse->set_sink([&link](netsim::UploadChannel::Delivery&& d) {
      link.on_reverse_delivery(std::move(d));
    });
  }

  std::unique_ptr<health::HealthMonitor> mon;
  if (spec.health) {
    health::HealthConfig hcfg;
    hcfg.interval = spec.capture.tick;
    mon = std::make_unique<health::HealthMonitor>(hcfg);
    mon->add_registry(&telemetry::MetricRegistry::global());
    mon->add_registry(&col.telemetry_registry());
    mon->add_registry(&link.telemetry_registry());
    mon->add_registry(&st->telemetry_registry());
    mon->set_analyzer(&an);
    col.set_decode_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kCollectorDecode, t);
    });
    col.set_curve_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kAnalyzerCurve, t);
    });
  }

  serve::Server server(serve::ServeConfig{});
  serve::Services svc;
  svc.registries = {&telemetry::MetricRegistry::global(),
                    &col.telemetry_registry(), &link.telemetry_registry(),
                    &st->telemetry_registry()};
  svc.store = st.get();
  svc.store_dir = opt.dir;
  svc.store_rinfo = rinfo;
  serve::Endpoints endpoints(server, svc);
  if (!server.start()) {
    check("serve_start", false);
    return res;
  }
  // Stops the server thread before the endpoints it dispatches into die.
  struct StopServer {
    serve::Server& s;
    ~StopServer() { s.stop(); }
  } const stop_server{server};

  sketch::WaveSketchParams sp;
  sp.depth = 3;
  sp.width = 256;
  sp.levels = 8;
  sp.k = 64;
  const auto hosts = static_cast<std::size_t>(cap.hosts);
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches;
  std::vector<collector::HostUplink> uplinks;
  for (std::size_t h = 0; h < hosts; ++h) {
    sketches.push_back(std::make_unique<sketch::WaveSketchFull>(sp));
    uplinks.emplace_back(static_cast<int>(h), kReportsPerPayload);
  }
  col.start();
  res.construct_ns = now_ns() - construct_start;

  // --- query load ------------------------------------------------------------
  std::atomic<Nanos> sealed_until{0};
  std::mt19937_64 rng(opt.seed * 1000003 + opt.round);
  // Live, the queries read up to the newest sealed data. After the replay
  // nothing new is sealed, so each one reads up to a random sealed time
  // instead; otherwise the response cache would answer almost every request
  // and the latency tail would hinge on a handful of misses.
  auto window_end = [&](Nanos span) {
    const Nanos hi = sealed_until.load();
    if (spec.live_queries || hi <= span) return hi;
    return span + static_cast<Nanos>(rng() % static_cast<std::uint64_t>(
                                                 hi - span + 1));
  };
  auto next_request = [&]() -> QueryClient::Request {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    if (u < 0.50 && !targets.flows.empty()) {
      const FlowKey& f = targets.flows[rng() % targets.flows.size()];
      const Nanos hi = window_end(2 * kMilli);
      return {Call::kServeQueryFlow,
              "/api/v1/query?flow=" + flow_param(f) +
                  "&resolution=1&from_us=" +
                  fmt_us(std::max<Nanos>(0, hi - 2 * kMilli)) +
                  "&to_us=" + fmt_us(hi)};
    }
    if (u < 0.75 && !targets.hosts.empty()) {
      const std::uint32_t h = targets.hosts[rng() % targets.hosts.size()];
      const Nanos hi = window_end(5 * kMilli);
      return {Call::kServeQueryHost,
              "/api/v1/query?host=" + std::to_string(h) +
                  "&resolution=8&from_us=" +
                  fmt_us(std::max<Nanos>(0, hi - 5 * kMilli)) +
                  "&to_us=" + fmt_us(hi)};
    }
    if (u < 0.90) {
      std::string target = "/api/v1/query?op=p99&resolution=64";
      if (!spec.live_queries) {
        target += "&from_us=0&to_us=" + fmt_us(window_end(0));
      }
      return {Call::kServeQueryAll, target};
    }
    return {Call::kServeMetrics, "/metrics"};
  };
  QueryClient client(server.port(), next_request, res.client_spans);
  std::atomic<bool> stop_client{false};
  // The live client may send kQueriesPerTick requests per replayed epoch.
  std::atomic<std::uint64_t> allowance{0};
  // Stopped and joined on every way out of this scope, exceptions included.
  struct ClientThread {
    std::atomic<bool>& stop;
    std::atomic<std::uint64_t>& allowance;
    std::thread thread;
    void join() {
      stop.store(true);
      allowance.fetch_add(1);  // wakes a client waiting for its next request
      allowance.notify_one();
      if (thread.joinable()) thread.join();
    }
    ~ClientThread() { join(); }
  } live{stop_client, allowance, {}};
  if (spec.live_queries) {
    live.thread = std::thread(
        [&] { res.query_ns = client.run(stop_client, 0, &allowance); });
  }

  // --- replay ------------------------------------------------------------------
  struct PendingSeal {
    int host;
    std::uint32_t epoch;
    std::uint32_t end_seq;
    WindowId wfrom;
    WindowId wto;
    Nanos end_time;
    std::int64_t flushed_at;  ///< wall time of the flush_reports call
  };
  struct AwaitingStore {
    std::uint64_t id;
    std::int64_t flushed_at;
  };
  std::vector<PendingSeal> awaiting;      // flushed, not sealed at the collector
  std::vector<AwaitingStore> to_store;    // sealed there, not yet in the store
  std::map<std::uint64_t, std::pair<WindowId, WindowId>> epoch_windows;
  std::vector<Nanos> last_flush(hosts, 0);
  std::uint64_t reports_emitted = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t scrub_bytes = 0;

  col.set_epoch_loss_hook([&](int host, std::uint32_t epoch,
                              std::uint64_t lost) {
    if (lost == 0) return;
    const std::uint64_t id = host_epoch_id(host, epoch);
    failed_epochs.insert(id);
    const auto it = epoch_windows.find(id);
    if (it != epoch_windows.end()) {
      an.mark_windows(it->second.first, it->second.second,
                      analyzer::WindowConfidence::kLost);
    }
  });

  auto seal_settled = [&](bool force) {
    std::set<int> blocked;
    for (auto it = awaiting.begin(); it != awaiting.end();) {
      const resilience::EpochStatus es =
          link.epoch_status(it->host, it->epoch);
      if ((spec.reliable && !es.settled && !force) ||
          blocked.count(it->host) != 0) {
        blocked.insert(it->host);
        ++it;
        continue;
      }
      const std::uint64_t id = host_epoch_id(it->host, it->epoch);
      if (spec.reliable) {
        if (!es.recovered) {
          an.mark_windows(it->wfrom, it->wto,
                          analyzer::WindowConfidence::kLost);
          failed_epochs.insert(id);
        } else if (es.retransmitted) {
          an.mark_windows(it->wfrom, it->wto,
                          analyzer::WindowConfidence::kRetransmitted);
        }
      }
      {
        const Scope s(log, Call::kCollectorSeal, id);
        col.seal_epoch(it->host, it->epoch, it->end_seq);
      }
      if (mon) mon->watermarks().note(health::Stage::kResilience, it->end_time);
      epoch_windows.erase(id);
      to_store.push_back(AwaitingStore{id, it->flushed_at});
      it = awaiting.erase(it);
    }
  };

  auto store_checkpoint = [&](Nanos t) {
    bool sealed = false;
    {
      const Scope s(log, Call::kStoreSeal);
      sealed = st->seal_epoch();
    }
    const std::int64_t sealed_at = now_ns();
    for (const AwaitingStore& e : to_store) {
      ++res.host_epochs;
      if (!sealed || failed_epochs.count(e.id) != 0) {
        ++res.host_epochs_failed;
      } else {
        res.epoch_latency_us.push_back(
            static_cast<double>(sealed_at - e.flushed_at) / 1e3);
      }
    }
    to_store.clear();
    {
      const Scope s(log, Call::kStoreMaintain);
      st->maintain();
    }
    ++checkpoints;
    if (spec.scrub_every > 0 &&
        checkpoints % static_cast<std::uint64_t>(spec.scrub_every) == 0) {
      const Scope s(log, Call::kStoreScrub);
      scrub_bytes += st->scrub().bytes_scanned;
    }
    if (mon) {
      const Nanos hi = mon->watermarks().high(health::Stage::kAnalyzerCurve);
      if (hi != health::Watermarks::kUnset) {
        mon->watermarks().note(health::Stage::kStoreSeal, hi);
      }
    }
    sealed_until.store(t);
  };

  // umon_sim's serve_publish: health snapshots, run status, curve deltas.
  std::uint64_t published_generation = 0;
  auto serve_publish = [&](Nanos now) {
    const Scope s(log, Call::kServePublish);
    if (mon) {
      std::ostringstream hj;
      mon->write_jsonl(hj);
      server.set_snapshot("health_jsonl", hj.str());
      std::ostringstream ha;
      mon->write_alarms_jsonl(ha);
      server.set_snapshot("health_alarms", ha.str());
      std::ostringstream hh;
      mon->write_html(hh, /*live=*/true);
      server.set_snapshot("health_html", hh.str());
      std::ostringstream ls;
      mon->write_live_sample(ls);
      server.broadcast_sse("tick", ls.str());
    }
    const std::size_t flow_count = st->flows().size();
    const std::uint64_t gen = st->generation();
    std::ostringstream status;
    status << "{\"t_ns\":" << now << ",\"packets\":" << res.packets
           << ",\"healthy\":"
           << (mon == nullptr || mon->healthy() ? "true" : "false")
           << ",\"store_generation\":" << gen
           << ",\"store_flows\":" << flow_count << "}\n";
    server.set_snapshot("status", status.str());
    if (gen != published_generation) {
      published_generation = gen;
      std::ostringstream cd;
      cd << "{\"type\":\"curve\",\"t_ns\":" << now << ",\"generation\":" << gen
         << ",\"flows\":" << flow_count;
      if (const auto sealed = st->last_sealed_epoch()) {
        cd << ",\"last_sealed_epoch\":" << *sealed;
      }
      cd << "}";
      server.broadcast_sse("curve", cd.str());
    }
  };

  const Nanos shift = lap_shift(cap);
  const Nanos tick_len = spec.capture.tick;
  if (mon) mon->prime(0);
  const std::int64_t replay_start = now_ns();
  Nanos t = 0;
  for (int lap = 0; lap < spec.laps; ++lap) {
    const Nanos base = shift * lap;
    std::size_t begin = 0;
    for (std::size_t k = 0; k < cap.tick_time.size(); ++k) {
      t = base + cap.tick_time[k];
      const std::size_t end = cap.tick_end[k];
      {
        const Scope s(log, Call::kSketchUpdate);
        for (std::size_t i = begin; i < end; ++i) {
          const CapturedPacket& p = cap.packets[i];
          sketches[p.host]->update(p.flow, p.timestamp + base,
                                   static_cast<Count>(p.size));
        }
      }
      if (mon) {
        const Scope s(log, Call::kHealthObserve);
        for (std::size_t i = begin; i < end; ++i) {
          const CapturedPacket& p = cap.packets[i];
          mon->watermarks().note(health::Stage::kPacketEvent,
                                 p.timestamp + base);
          mon->probe().observe(p.flow, p.timestamp + base, p.size);
        }
      }
      res.packets += end - begin;
      begin = end;
      {
        const Scope s(log, Call::kResilienceTick);
        channel.advance_to(t);
        if (reverse) reverse->advance_to(t);
        link.tick(t);
      }
      {
        const Scope s(log, Call::kCollectorDrain);
        col.drain();
      }
      seal_settled(/*force=*/false);
      for (std::size_t h = 0; h < hosts; ++h) {
        const int host = static_cast<int>(h);
        const std::uint64_t id = host_epoch_id(host, uplinks[h].next_epoch());
        const std::int64_t flushed_at = now_ns();
        std::vector<sketch::TaggedReport> reports;
        {
          const Scope s(log, Call::kSketchFlush, id);
          reports = sketches[h]->flush_reports();
        }
        collector::HostUplink::EpochUpload up;
        {
          const Scope s(log, Call::kCollectorEncode, id);
          up = uplinks[h].encode_epoch(std::move(reports));
        }
        if (mon) mon->watermarks().note(health::Stage::kSketchSeal, t);
        reports_emitted += up.reports;
        const PendingSeal ps{host,          up.epoch,    up.end_seq,
                             window_of(last_flush[h]), window_of(t), t,
                             flushed_at};
        epoch_windows[id] = {ps.wfrom, ps.wto};
        last_flush[h] = t;
        for (auto& p : up.payloads) {
          res.uplink_bytes += p.bytes.size();
          const Scope s(log, Call::kResilienceSend, id);
          link.send(host, up.epoch, std::move(p.bytes), t);
        }
        awaiting.push_back(ps);
      }
      {
        const Scope s(log, Call::kCollectorDrain);
        col.drain();
      }
      store_checkpoint(t);
      if (mon) {
        const Scope s(log, Call::kHealthTick);
        mon->tick(t);
      }
      if (spec.live_queries) {
        serve_publish(t);
        allowance.fetch_add(kQueriesPerTick);
        allowance.notify_one();
      }
    }
  }
  // Tail, as umon_sim ends its chunked loop: let in-flight frames and acks
  // land, seal what is left, stop the shards, make it durable.
  {
    const Scope s(log, Call::kResilienceTick);
    if (spec.reliable) {
      int rounds = 0;
      while (!link.all_settled() && rounds++ < 256) {
        t += tick_len;
        channel.advance_to(t);
        reverse->advance_to(t);
        link.tick(t);
      }
      link.expire_outstanding();
      channel.flush();
      reverse->flush();
    } else {
      channel.flush();
    }
  }
  {
    const Scope s(log, Call::kCollectorDrain);
    col.drain();
  }
  seal_settled(/*force=*/true);
  {
    const Scope s(log, Call::kCollectorDrain);
    col.stop();
  }
  store_checkpoint(t);
  if (mon) {
    const Scope s(log, Call::kHealthTick);
    mon->tick(t + tick_len);
  }
  if (spec.live_queries) serve_publish(t + tick_len);
  res.replay_ns = now_ns() - replay_start;

  if (spec.live_queries) {
    live.join();
  } else if (spec.post_queries > 0) {
    const std::atomic<bool> never{false};
    res.query_ns = client.run(never, spec.post_queries);
  }
  res.queries = client.samples();

  // --- output checks -------------------------------------------------------------
  const collector::CollectorStats cs = col.stats();
  const store::StoreStats ss = st->stats();
  const resilience::ReliableStats rs = link.stats();
  {
    std::ostringstream d;
    d << "emitted " << reports_emitted << ", decoded " << cs.reports_decoded
      << ", lost " << cs.reports_lost << ", malformed payloads "
      << cs.payloads_malformed << ", malformed reports "
      << cs.reports_malformed << ", shed " << cs.reports_shed;
    check("reports_conserved",
          reports_emitted == cs.reports_decoded && cs.reports_lost == 0 &&
              cs.payloads_malformed == 0 && cs.reports_malformed == 0 &&
              cs.reports_shed == 0 && cs.batches_shed == 0,
          d.str());
  }
  {
    std::ostringstream d;
    d << "seal failures " << ss.seal_failures << ", unrecovered epochs "
      << rs.epochs_unrecovered << ", unsealed " << awaiting.size() + to_store.size();
    check("seals_intact",
          ss.seal_failures == 0 && rs.epochs_unrecovered == 0 &&
              awaiting.empty() && to_store.empty(),
          d.str());
  }
  store::QueryEngine engine(*st);
  {
    // Tiering keeps each chunk's grand sum in approx[0], so the stored
    // volume equals what the analyzer ingested — except that compaction
    // first rounds every window value to whole bytes (integer Haar input),
    // which moves the total by at most 0.5 B per (flow, window) value.
    double analyzer_total = 0;
    for (const FlowKey& f : an.curves().flows()) {
      analyzer_total += an.curves().total_bytes(f);
    }
    double stored_total = 0;
    WindowId lo = 0, hi = 0;
    if (st->window_extent(lo, hi)) {
      store::Query q;
      q.from = lo;
      q.to = hi + 1;
      q.resolution = static_cast<std::uint32_t>(hi + 1 - lo);
      for (double v : engine.run(q).series) stored_total += v;
    }
    const double bound =
        0.5 * static_cast<double>(an.curves().window_count()) +
        1e-9 * analyzer_total;
    const double diff = std::fabs(stored_total - analyzer_total);
    char d[160];
    std::snprintf(d, sizeof(d),
                  "analyzer %.1f B, store %.1f B, |diff| %.1f B <= %.1f B",
                  analyzer_total, stored_total, diff, bound);
    check("volume_conserved", analyzer_total > 0 && diff <= bound, d);
  }
  {
    // /api/v1/query must serve the bytes the in-process engine and the
    // shared serializer produce for the same parameters.
    store::StoreHead head = store::make_head(opt.dir, rinfo, st->flows().size());
    head.last_sealed_epoch = st->last_sealed_epoch();
    struct Probe {
      std::string name;
      std::string target;
      store::Query q;
    };
    std::vector<Probe> probes;
    {
      Probe p{"http_equal_all_sum", "/api/v1/query?op=sum&resolution=64", {}};
      WindowId lo = 0, hi = 0;
      (void)store::flow_extent_union(store::flow_extents(*st), lo, hi);
      p.q.from = lo;
      p.q.to = hi;
      p.q.resolution = 64;
      probes.push_back(std::move(p));
    }
    if (!targets.flows.empty()) {
      const std::string from = fmt_us(0), to = fmt_us(cap.duration);
      Probe p{"http_equal_flow",
              "/api/v1/query?flow=" + flow_param(targets.flows.front()) +
                  "&resolution=1&from_us=" + from + "&to_us=" + to,
              range_query(from, to)};
      p.q.flows = {targets.flows.front()};
      probes.push_back(std::move(p));
    }
    if (!targets.hosts.empty()) {
      const std::string from = fmt_us(std::max<Nanos>(0, t - 5 * kMilli));
      const std::string to = fmt_us(t);
      Probe p{"http_equal_host_max",
              "/api/v1/query?host=" + std::to_string(targets.hosts.front()) +
                  "&op=max&resolution=8&from_us=" + from + "&to_us=" + to,
              range_query(from, to)};
      p.q.src_host = targets.hosts.front();
      p.q.op = store::GroupOp::kMax;
      p.q.resolution = 8;
      probes.push_back(std::move(p));
    }
    for (const Probe& p : probes) {
      std::ostringstream expected;
      store::write_query_json(expected, head, engine.run(p.q));
      const HttpResult got = http_get(server.port(), p.target);
      check(p.name, got.status == 200 && got.body == expected.str(),
            "status " + std::to_string(got.status) + ", " +
                std::to_string(got.body.size()) + " vs " +
                std::to_string(expected.str().size()) + " bytes");
    }
  }

  // --- accuracy (first round only; outside the replay clock) --------------------
  if (opt.evaluate) {
    double cos = 0, are = 0, stored_are = 0;
    int evaluated = 0;
    for (const FlowInfo& f : cap.flows) {
      if (f.bytes < kHeavyFlowBytes) continue;
      const auto truth = cap.truth.series(f.key);
      analyzer::RateCurve est;
      {
        const Scope s(res.eval_spans, Call::kAnalyzerQueryRate, f.key.packed());
        est = an.query_rate(f.key);
      }
      if (truth.empty() || est.empty()) continue;
      const std::size_t n = truth.values.size();
      std::vector<double> aligned(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        aligned[i] = est.bytes_at(truth.w0 + static_cast<WindowId>(i));
      }
      const auto m = analyzer::curve_metrics(truth.values, aligned);
      cos += m.cosine;
      are += m.are;

      store::Query q;
      q.from = truth.w0;
      q.to = truth.w0 + static_cast<WindowId>(n);
      q.flows = {f.key};
      store::QueryResult r;
      {
        const Scope s(res.eval_spans, Call::kStoreQuery, f.key.packed());
        r = engine.run(q);
      }
      std::vector<double> stored(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const WindowId j = truth.w0 + static_cast<WindowId>(i) - r.from;
        if (j >= 0 && j < static_cast<WindowId>(r.series.size())) {
          stored[i] = r.series[static_cast<std::size_t>(j)];
        }
      }
      stored_are += analyzer::curve_metrics(truth.values, stored).are;
      ++evaluated;
    }
    res.heavy_evaluated = evaluated;
    if (evaluated > 0) {
      res.curve_cosine = cos / evaluated;
      res.curve_are = are / evaluated;
      res.stored_are = stored_are / evaluated;
    }
    res.report_mbps_per_host =
        static_cast<double>(an.report_bytes_ingested()) * 8 /
        (static_cast<double>(cap.duration) / 1e9) / 1e6 /
        static_cast<double>(cap.hosts);
    check("heavy_flow_evaluated", evaluated > 0,
          std::to_string(evaluated) + " heavy flows");
  }

  // --- per-layer counts ----------------------------------------------------------
  res.store_bytes = dir_bytes(opt.dir);
  const std::string prom = http_get(server.port(), "/metrics").body;
  auto& c = res.counts;
  c["sketch.packets"] = static_cast<double>(res.packets);
  c["sketch.reports"] = static_cast<double>(reports_emitted);
  c["sketch.reports_per_pkt"] = ratio(static_cast<double>(reports_emitted),
                                      static_cast<double>(res.packets));
  c["collector.payloads"] = static_cast<double>(cs.payloads_submitted);
  c["collector.reports_decoded"] = static_cast<double>(cs.reports_decoded);
  c["collector.reports_lost"] = static_cast<double>(cs.reports_lost);
  c["collector.batches_shed"] = static_cast<double>(cs.batches_shed);
  c["collector.wire_bytes"] = static_cast<double>(res.uplink_bytes);
  c["resilience.frames_sent"] = static_cast<double>(rs.frames_sent);
  c["resilience.retransmits"] = static_cast<double>(rs.frames_retransmitted);
  c["resilience.retx_ratio"] =
      ratio(static_cast<double>(rs.frames_retransmitted),
            static_cast<double>(rs.frames_sent));
  c["resilience.epochs_unrecovered"] =
      static_cast<double>(rs.epochs_unrecovered);
  c["analyzer.fragments"] = static_cast<double>(cs.fragments_ingested);
  c["analyzer.report_bytes"] = static_cast<double>(an.report_bytes_ingested());
  c["store.append_records"] = static_cast<double>(ss.appends);
  c["store.append_bytes"] = static_cast<double>(ss.append_bytes);
  c["store.seals"] = static_cast<double>(ss.epochs_sealed);
  c["store.compactions"] =
      static_cast<double>(ss.compactions_tier1 + ss.compactions_tier2);
  c["store.compaction_ratio"] =
      ratio(static_cast<double>(ss.compaction_output_bytes),
            static_cast<double>(ss.compaction_input_bytes));
  c["store.page_hit_ratio"] = ss.cache.hit_ratio();
  c["store.scrub_bytes"] = static_cast<double>(scrub_bytes);
  c["store.seal_failures"] = static_cast<double>(ss.seal_failures);
  c["store.fsyncs"] = static_cast<double>(io.fsyncs());
  c["health.series"] =
      mon ? static_cast<double>(mon->store().series_count()) : 0.0;
  c["serve.requests"] = prom_value(prom, "umon_serve_requests_total");
  c["serve.shed"] = prom_value(prom, "umon_serve_shed_total");
  const double hits = prom_value(prom, "umon_serve_query_cache_hits_total");
  const double misses =
      prom_value(prom, "umon_serve_query_cache_misses_total");
  c["serve.cache_hit_ratio"] = ratio(hits, hits + misses);
  c["serve.bytes_out"] = prom_value(prom, "umon_serve_bytes_sent_total");
  return res;
}

}  // namespace umon::perfbench
