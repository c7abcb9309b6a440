#include "capture.hpp"

#include "netsim/network.hpp"

namespace umon::perfbench {

std::uint64_t Capture::fingerprint() const {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const CapturedPacket& p : packets) {
    mix(p.flow.packed());
    mix(static_cast<std::uint64_t>(p.timestamp));
    mix((static_cast<std::uint64_t>(p.host) << 32) | p.size);
  }
  for (std::size_t e : tick_end) mix(e);
  return h;
}

Capture capture(const CaptureConfig& cfg) {
  netsim::NetworkConfig ncfg;
  ncfg.queue_sample_interval = 0;
  ncfg.seed = cfg.seed;
  auto net = netsim::Network::fat_tree(ncfg, 4);

  Capture cap;
  cap.hosts = net->host_count();
  cap.duration = cfg.duration;
  cap.horizon = cfg.duration + 5 * kMilli;
  net->set_host_tx_hook([&cap](int host, const PacketRecord& r) {
    cap.packets.push_back(CapturedPacket{
        r.flow, r.timestamp, r.size, static_cast<std::uint32_t>(host)});
    cap.truth.add(r.flow, r.timestamp, r.size);
    cap.total_bytes += r.size;
  });

  workload::WorkloadParams wp;
  wp.hosts = net->host_count();
  wp.load = cfg.load;
  wp.duration = cfg.duration;
  wp.seed = cfg.seed;
  const workload::Workload w = workload::generate(cfg.kind, wp);
  cap.flows.reserve(w.flows.size());
  for (const auto& f : w.flows) cap.flows.push_back(FlowInfo{f.key, f.bytes});
  workload::install(w, *net);

  // Same stepping as umon_sim's chunked loop: the last epoch is cut at the
  // horizon.
  for (Nanos t = cfg.tick;; t += cfg.tick) {
    if (t > cap.horizon) t = cap.horizon;
    net->run_until(t);
    net->settle_telemetry();
    cap.tick_time.push_back(t);
    cap.tick_end.push_back(cap.packets.size());
    if (t >= cap.horizon) break;
  }
  net->finish();
  return cap;
}

}  // namespace umon::perfbench
