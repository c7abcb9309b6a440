// umon_pipeline_bench: end-to-end benchmark of the uMon pipeline on captured
// fat-tree traffic.
//
//   umon_pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                       --work-dir DIR [--trace-seed N] [--git-sha SHA]
//                       [--spans-out FILE] [--fidelity]
//
// Setup captures the workload's host-TX packets from netsim (traffic seed
// --trace-seed, default 7) three times and checks the captures agree. Then
// replay rounds run back to back for --seconds: each round builds a fresh
// pipeline, replays the trace in laps, runs the output checks and tears
// down. Round 0 is a warm-up that also scores the accuracy pass. With
// --trace 1 every other round records spans around each call into a layer
// and the per-layer table is reported instead of the end-to-end metrics.
// --fidelity replays one lap once and prints the lines umon_sim prints for
// the same run (see run.py --fidelity).
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any output check failed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "capture.hpp"
#include "replay.hpp"
#include "spans.hpp"

namespace {

using namespace umon;
using namespace umon::perfbench;

/// Requests each round issues after its replay when the workload has no
/// live query load.
constexpr std::uint64_t kPostQueries = 100;
constexpr int kSetupCaptures = 3;
/// Seed of the simulated traffic. The run seed (--seed) drives the upload
/// channel and the query mix; the traffic itself stays fixed per workload
/// unless --trace-seed picks another, because accuracy and packet volume
/// swing far more between traffic seeds than any bound could absorb.
constexpr std::uint64_t kTraceSeed = 7;

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "websearch25_bulk";
    w.capture.kind = workload::WorkloadKind::kWebSearch;
    w.capture.load = 0.25;
    w.capture.tick = 5 * kMilli;
    w.laps = 4;
    w.post_queries = kPostQueries;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "hadoop15_fine";
    w.capture.kind = workload::WorkloadKind::kHadoop;
    w.capture.load = 0.15;
    w.capture.tick = 100 * kMicro;
    w.laps = 1;
    w.reliable = true;
    w.scrub_every = 16;
    w.post_queries = kPostQueries;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "hadoop15_serve";
    w.capture.kind = workload::WorkloadKind::kHadoop;
    w.capture.load = 0.15;
    w.capture.tick = 500 * kMicro;
    w.laps = 1;
    w.health = true;
    w.live_queries = true;
    out.push_back(w);
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  std::uint64_t trace_seed = kTraceSeed;
  double seconds = 10;
  bool trace = false;
  bool fidelity = false;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--fidelity") {
      a.fidelity = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace-seed") {
      a.trace_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.work_dir.empty() && a.seconds > 0;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(sf.f_type));
  return buf;
}

/// CPUs this process may run on (run.py pins it to one).
unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Latency samples per block: enough that a p99 has ten samples beyond it.
constexpr std::size_t kBlockSamples = 1000;

/// Percentile q of each block of consecutive rounds holding at least
/// kBlockSamples samples, then the median over blocks. A host stall that
/// slows a few rounds moves one block, not the tail of the whole run.
double block_percentile(const std::vector<std::vector<double>>& rounds,
                        double q) {
  std::vector<double> blocks, cur;
  for (const auto& r : rounds) {
    cur.insert(cur.end(), r.begin(), r.end());
    if (cur.size() >= kBlockSamples) {
      blocks.push_back(percentile(cur, q));
      cur.clear();
    }
  }
  if (blocks.empty()) blocks.push_back(percentile(cur, q));
  return median(blocks);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's per-thread arenas,
  // which arena a thread allocates from depends on lock timing, and on one
  // CPU peak RSS of websearch25_bulk read ~104 MB in most runs and ~124 MB
  // in some; with one arena it repeats.
  ::mallopt(M_ARENA_MAX, 1);
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: umon_pipeline_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-seed N] "
                 "[--git-sha SHA] [--spans-out FILE] [--fidelity]\n");
    return 2;
  }
  const std::vector<WorkloadSpec> all = workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return w.name == args.workload;
  });
  if (found == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  // The fidelity check compares against umon_sim --seed S, which seeds the
  // traffic and the upload channel alike.
  if (args.fidelity) {
    spec.laps = 1;
    args.trace_seed = args.seed;
  }
  spec.capture.seed = args.trace_seed;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const std::string store_dir = args.work_dir + "/store";

  std::vector<Check> checks;
  // --- setup -------------------------------------------------------------------
  std::vector<double> capture_s;
  Capture cap;
  std::uint64_t fingerprint = 0;
  bool captures_agree = true;
  const int captures = args.fidelity ? 1 : kSetupCaptures;
  for (int i = 0; i < captures; ++i) {
    const std::int64_t t0 = now_ns();
    Capture c = capture(spec.capture);
    capture_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const std::uint64_t fp = c.fingerprint();
    if (i == 0) {
      fingerprint = fp;
      cap = std::move(c);
    } else {
      captures_agree = captures_agree && fp == fingerprint;
    }
  }
  checks.push_back(Check{"capture_deterministic", captures_agree, {}});

  QueryTargets targets;
  {
    std::vector<FlowInfo> heavy;
    for (const FlowInfo& f : cap.flows) {
      if (f.bytes >= kHeavyFlowBytes) heavy.push_back(f);
    }
    std::stable_sort(heavy.begin(), heavy.end(),
                     [](const auto& a, const auto& b) { return a.bytes > b.bytes; });
    for (const FlowInfo& f : heavy) targets.flows.push_back(f.key);
    for (const FlowInfo& f : cap.flows) {
      if (std::find(targets.hosts.begin(), targets.hosts.end(),
                    f.key.src_ip) == targets.hosts.end()) {
        targets.hosts.push_back(f.key.src_ip);
      }
    }
    std::sort(targets.hosts.begin(), targets.hosts.end());
  }

  // --- replay rounds -------------------------------------------------------------
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // Round 0 is the warm-up: it runs the accuracy pass and the deterministic
  // counts, and its timings are not reported. In a traced run the timed
  // rounds alternate traced / untraced.
  const std::size_t min_rounds = args.fidelity ? 1 : (args.trace ? 5 : 4);
  while (rounds.size() < min_rounds || (!args.fidelity && now_ns() < deadline)) {
    RoundOptions ro;
    ro.dir = store_dir;
    ro.seed = args.seed;
    ro.round = rounds.size();
    ro.evaluate = rounds.empty();
    ro.trace = args.trace && (rounds.empty() || rounds.size() % 2 == 1);
    traced.push_back(ro.trace);
    rounds.push_back(run_round(cap, spec, targets, ro));
    std::filesystem::remove_all(store_dir, ec);
  }
  const RoundResult& first = rounds.front();

  if (args.fidelity) {
    std::printf("  heavy flows evaluated: %d\n", first.heavy_evaluated);
    std::printf("  avg cosine similarity: %.4f\n", first.curve_cosine);
    std::printf("  avg relative error:    %.4f\n", first.curve_are);
    std::printf("  report bandwidth:      %.2f Mbps/host\n",
                first.report_mbps_per_host);
    return 0;
  }

  // --- aggregate -------------------------------------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.host_epochs + r.queries.size() + r.checks.size();
    failed += r.host_epochs_failed;
    for (const auto& q : r.queries) failed += q.status != 200 ? 1 : 0;
    for (const Check& c : r.checks) failed += c.passed ? 0 : 1;
  }

  std::vector<double> pps_untraced, pps_traced, construct_s, q_rps;
  std::vector<std::vector<double>> epoch_us, q_us;
  std::size_t epoch_samples = 0, q_samples = 0;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    const double pps = static_cast<double>(r.packets) /
                       (static_cast<double>(r.replay_ns) / 1e9);
    (traced[i] ? pps_traced : pps_untraced).push_back(pps);
    construct_s.push_back(static_cast<double>(r.construct_ns) / 1e9);
    if (traced[i]) continue;
    epoch_us.push_back(r.epoch_latency_us);
    epoch_samples += r.epoch_latency_us.size();
    q_us.emplace_back();
    for (const auto& q : r.queries) {
      if (q.status == 200) q_us.back().push_back(q.latency_us);
    }
    q_samples += q_us.back().size();
    q_rps.push_back(static_cast<double>(q_us.back().size()) /
                    (static_cast<double>(r.query_ns) / 1e9));
  }
  const double setup_s = median(capture_s) + median(construct_s);
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double packets = static_cast<double>(first.packets);

  std::vector<Metric> metrics;
  std::vector<Metric> info;  // printed, not part of the result object
  info.push_back({"rounds", static_cast<double>(rounds.size()), "count"});
  info.push_back({"laps_per_round", static_cast<double>(spec.laps), "count"});
  info.push_back({"packets_per_round", packets, "pkt"});
  info.push_back({"epoch_latency_samples", static_cast<double>(epoch_samples),
                  "count"});
  info.push_back({"q_samples", static_cast<double>(q_samples), "count"});
  info.push_back({"capture_s_median", median(capture_s), "s"});
  info.push_back({"construct_s_median", median(construct_s), "s"});
  info.push_back({"failed_frac",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio"});

  if (!args.trace) {
    metrics.push_back({"ingest_pps", median(pps_untraced), "pkt/s"});
    metrics.push_back(
        {"epoch_latency_p50_us", block_percentile(epoch_us, 0.50), "us"});
    metrics.push_back(
        {"epoch_latency_p99_us", block_percentile(epoch_us, 0.99), "us"});
    metrics.push_back({"q_latency_p50_us", block_percentile(q_us, 0.50), "us"});
    metrics.push_back({"q_latency_p99_us", block_percentile(q_us, 0.99), "us"});
    metrics.push_back({"q_rps", median(q_rps), "req/s"});
    metrics.push_back({"curve_are", first.curve_are, "ratio"});
    metrics.push_back({"curve_cosine", first.curve_cosine, "ratio"});
    metrics.push_back({"stored_are", first.stored_are, "ratio"});
    metrics.push_back({"uplink_bytes_per_pkt",
                       static_cast<double>(first.uplink_bytes) / packets,
                       "B/pkt"});
    metrics.push_back({"store_bytes_per_pkt",
                       static_cast<double>(first.store_bytes) / packets,
                       "B/pkt"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"setup_s", setup_s, "s"});
  } else {
    // Per-layer table from the traced rounds, normalized per round.
    SpanLog driver(true), client(true);
    std::int64_t wall_ns = 0;
    double traced_rounds = 0, traced_packets = 0;
    for (std::size_t i = 1; i < rounds.size(); ++i) {
      if (!traced[i]) continue;
      driver.absorb(rounds[i].driver_spans);
      client.absorb(rounds[i].client_spans);
      wall_ns += rounds[i].replay_ns;
      traced_rounds += 1;
      traced_packets += static_cast<double>(rounds[i].packets);
    }
    const SpanSummary replay = summarize(driver.spans());
    const SpanSummary eval_sum = summarize(first.eval_spans.spans());
    const SpanSummary client_sum = summarize(client.spans());
    const double wall = static_cast<double>(wall_ns);
    const std::int64_t unattributed_ns = wall_ns - replay.top_level_ns;
    // Layer rows plus bench.unattributed must add up to the traced replay
    // wall time; a residual means spans overlapped instead of nesting.
    const double residual =
        std::abs(wall -
                 static_cast<double>(replay.self_sum_ns + unattributed_ns)) /
        wall;
    checks.push_back(Check{"trace_residual", residual <= 0.01, {}});

    std::map<std::string, double> layer_self_ns;
    for (std::size_t c = 0; c < kCallCount; ++c) {
      // Accuracy-pass calls (round 0 only) and client round trips run
      // outside the replay window and are not part of the layer shares.
      const CallStats* cs = &replay.calls[c];
      double rounds_per_row = traced_rounds;
      if (eval_sum.calls[c].calls > 0) {
        cs = &eval_sum.calls[c];
        rounds_per_row = 1;
      } else if (client_sum.calls[c].calls > 0) {
        cs = &client_sum.calls[c];
      } else {
        layer_self_ns[layer_of(static_cast<Call>(c))] +=
            static_cast<double>(cs->self_ns);
      }
      const std::string n = call_name(static_cast<Call>(c));
      metrics.push_back({n + ".calls",
                         static_cast<double>(cs->calls) / rounds_per_row,
                         "count"});
      metrics.push_back(
          {n + ".self_ms",
           static_cast<double>(cs->self_ns) / 1e6 / rounds_per_row, "ms"});
      metrics.push_back({n + ".p50_us", cs->p50_us, "us"});
      metrics.push_back({n + ".p99_us", cs->p99_us, "us"});
    }
    metrics.push_back(
        {"sketch.update_ns",
         static_cast<double>(
             replay.calls[static_cast<std::size_t>(Call::kSketchUpdate)]
                 .total_ns) /
             traced_packets,
         "ns/pkt"});
    for (const char* layer :
         {"sketch", "collector", "resilience", "store", "health", "serve"}) {
      metrics.push_back({std::string(layer) + ".share",
                         layer_self_ns[layer] / wall, "ratio"});
    }
    for (const auto& [name, value] : first.counts) {
      const bool is_ratio = name.find("ratio") != std::string::npos ||
                            name.find("per_pkt") != std::string::npos;
      const bool is_bytes = name.find("bytes") != std::string::npos;
      metrics.push_back({name, value,
                         is_ratio ? "ratio" : (is_bytes ? "B" : "count")});
    }
    metrics.push_back({"bench.replay_ms", wall / 1e6 / traced_rounds, "ms"});
    metrics.push_back({"bench.unattributed_ms",
                       static_cast<double>(unattributed_ns) / 1e6 / traced_rounds,
                       "ms"});
    metrics.push_back({"bench.unattributed_share",
                       static_cast<double>(unattributed_ns) / wall, "ratio"});
    metrics.push_back({"bench.residual_pct", residual * 100, "%"});
    metrics.push_back(
        {"bench.trace_overhead_pct",
         (median(pps_untraced) / median(pps_traced) - 1.0) * 100, "%"});

    if (!args.spans_out.empty()) {
      // One block per traced round; the first column names the round and
      // the thread (driver / client), parent indices are per block.
      std::ofstream os(args.spans_out);
      os << "source\tcall\tparent\tid\tstart_ns\tdur_ns\n";
      first.eval_spans.write_tsv(os, "eval");
      for (std::size_t i = 1; i < rounds.size(); ++i) {
        if (!traced[i]) continue;
        const std::string r = "round" + std::to_string(i);
        rounds[i].driver_spans.write_tsv(os, (r + ".driver").c_str());
        rounds[i].client_spans.write_tsv(os, (r + ".client").c_str());
      }
    }
  }
  for (const Check& c : checks) {
    ++attempted;
    failed += c.passed ? 0 : 1;
  }

  // --- report ------------------------------------------------------------------
  std::printf("uMon pipeline benchmark: %s, seed %llu, %s run\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  std::printf(
      "env {\"cpu\":%s,\"nproc\":%u,\"affinity_cpus\":%u,\"compiler\":%s,"
      "\"build_type\":%s,\"git_sha\":%s,\"store_fs\":%s,\"seed\":%llu,"
      "\"trace_seed\":%llu}\n",
      json_str(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      affinity_cpus(),
      json_str(UMON_BENCH_COMPILER).c_str(),
      json_str(UMON_BENCH_BUILD_TYPE).c_str(), json_str(args.git_sha).c_str(),
      json_str(fs_type(args.work_dir)).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.trace_seed));
  std::vector<Check> all_checks = checks;
  for (const RoundResult& r : rounds) {
    for (const Check& c : r.checks) {
      if (!c.passed || &r == &first) all_checks.push_back(c);
    }
  }
  for (const Check& c : all_checks) {
    std::printf("check %-24s %s %s\n", c.name.c_str(),
                c.passed ? "ok  " : "FAIL", c.detail.c_str());
  }
  std::printf("  %-36s", "round_replay_ms");
  for (const RoundResult& r : rounds) {
    std::printf(" %.1f", static_cast<double>(r.replay_ns) / 1e6);
  }
  std::printf("\n");
  for (const Metric& m : info) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN/Inf; a metric without samples reads 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
