// umon::pipeline: the one run loop behind umon_sim and the overhead benches.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "obs/prof.hpp"
#include "pipeline/pipeline.hpp"

namespace umon::pipeline {
namespace {

constexpr std::uint64_t kHeavyBytes = 100'000;  // umon_sim's heavy cut

Config small_run() {
  Config cfg;
  cfg.duration = 2 * kMilli;
  return cfg;
}

/// Every heavy flow's reconstructed curve, in workload order; an empty
/// curve stands for a flow the analyzer never saw.
std::vector<analyzer::RateCurve> heavy_curves(Pipeline& p) {
  std::vector<analyzer::RateCurve> out;
  for (const auto& f : p.workload().flows) {
    if (f.bytes >= kHeavyBytes) out.push_back(p.analyzer().query_rate(f.key));
  }
  return out;
}

void expect_same_curves(const std::vector<analyzer::RateCurve>& a,
                        const std::vector<analyzer::RateCurve>& b,
                        double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].empty(), b[i].empty()) << "heavy flow " << i;
    const WindowId lo = std::min(a[i].w0, b[i].w0);
    const WindowId hi = std::max(
        a[i].w0 + static_cast<WindowId>(a[i].bytes_per_window.size()),
        b[i].w0 + static_cast<WindowId>(b[i].bytes_per_window.size()));
    for (WindowId w = lo; w < hi; ++w) {
      ASSERT_NEAR(a[i].bytes_at(w), b[i].bytes_at(w), tol)
          << "heavy flow " << i << " window " << w;
    }
  }
}

void expect_same_stats(const collector::CollectorStats& a,
                       const collector::CollectorStats& b) {
  EXPECT_EQ(a.payloads_submitted, b.payloads_submitted);
  EXPECT_EQ(a.payloads_malformed, b.payloads_malformed);
  EXPECT_EQ(a.batches_enqueued, b.batches_enqueued);
  EXPECT_EQ(a.batches_shed, b.batches_shed);
  EXPECT_EQ(a.reports_scanned, b.reports_scanned);
  EXPECT_EQ(a.reports_decoded, b.reports_decoded);
  EXPECT_EQ(a.reports_malformed, b.reports_malformed);
  EXPECT_EQ(a.reports_lost, b.reports_lost);
  EXPECT_EQ(a.mirror_packets, b.mirror_packets);
  EXPECT_EQ(a.epochs_flushed, b.epochs_flushed);
  EXPECT_EQ(a.fragments_ingested, b.fragments_ingested);
  EXPECT_EQ(a.bytes_by_host, b.bytes_by_host);
}

TEST(Pipeline, SingleEpochCollectorMatchesInProcessIngest) {
  Config cfg = small_run();
  cfg.tick = cfg.horizon();  // one epoch per host
  Pipeline in_process(cfg);
  in_process.run();
  ASSERT_EQ(in_process.collector(), nullptr);

  cfg.collector_shards = 2;
  Pipeline collected(cfg);
  collected.run();
  ASSERT_NE(collected.collector(), nullptr);
  EXPECT_EQ(collected.collector_stats().reports_lost, 0u);
  EXPECT_EQ(collected.packets(), in_process.packets());

  const auto want = heavy_curves(in_process);
  ASSERT_FALSE(want.empty());
  std::size_t seen = 0;
  for (const auto& c : want) seen += c.empty() ? 0 : 1;
  EXPECT_GT(seen, 0u);
  expect_same_curves(want, heavy_curves(collected), 1e-6);
}

TEST(Pipeline, ObservationTapsLeaveTheDataPathUnchanged) {
  Config cfg = small_run();
  cfg.report_loss = 0.05;
  cfg.uplink_reliable = true;

  Pipeline bare(cfg);
  bare.run();
  ASSERT_NE(bare.collector(), nullptr);

  health::HealthMonitor mon;
  obs::LineageTracker lineage;
  Taps taps;
  taps.health = &mon;
  taps.lineage = &lineage;
  Pipeline tapped(cfg, taps);
  obs::prof_enable();
  tapped.run();
  obs::prof_disable();

  EXPECT_GT(mon.ticks(), 0u);
  EXPECT_FALSE(lineage.snapshot().empty());
  EXPECT_GT(bare.collector_stats().reports_decoded, 0u);
  expect_same_stats(bare.collector_stats(), tapped.collector_stats());
  expect_same_curves(heavy_curves(bare), heavy_curves(tapped), 0.0);
}

TEST(Pipeline, PerTickRunsAndTierTapsImplyTheCollectionTier) {
  Config cfg = small_run();
  EXPECT_TRUE(Pipeline::uses_collection_tier(cfg, {}));

  cfg.tick = cfg.horizon();
  EXPECT_FALSE(Pipeline::uses_collection_tier(cfg, {}));
  obs::LineageTracker lineage;
  Taps taps;
  taps.lineage = &lineage;
  Pipeline p(cfg, taps);
  p.run();
  ASSERT_NE(p.collector(), nullptr);
  EXPECT_EQ(p.collector()->config().shards, Pipeline::kDefaultShards);
  EXPECT_FALSE(lineage.snapshot().empty());
}

/// A lossy run with a store tap; returns the analyzer's lost-window count.
std::size_t lost_windows_with_store(Nanos tick, const char* dir,
                                    std::optional<std::uint32_t>* sealed) {
  std::filesystem::remove_all(dir);
  store::StoreConfig scfg;
  scfg.dir = dir;
  auto st = store::Store::open(scfg);
  EXPECT_NE(st, nullptr);
  Config cfg = small_run();
  cfg.report_loss = 0.2;
  cfg.tick = tick;
  Taps taps;
  taps.store = st.get();
  Pipeline p(cfg, taps);
  p.run();
  EXPECT_GT(p.collector_stats().reports_lost, 0u);
  *sealed = st->last_sealed_epoch();
  const std::size_t lost =
      p.analyzer().curves().marked_count(analyzer::WindowConfidence::kLost);
  st.reset();
  std::filesystem::remove_all(dir);
  return lost;
}

TEST(Pipeline, SingleEpochLossFlagsNoWindows) {
  // One epoch spans the run: gaps are counted, no window is flagged, and
  // the store seals once, after the tail seals.
  std::optional<std::uint32_t> sealed;
  const Config cfg = small_run();
  EXPECT_EQ(lost_windows_with_store(cfg.horizon(), "./pipeline_test_single",
                                    &sealed),
            0u);
  EXPECT_EQ(sealed, std::optional<std::uint32_t>(0));

  // Per-tick epochs flag the windows of the epochs that lost reports.
  EXPECT_GT(lost_windows_with_store(cfg.tick, "./pipeline_test_ticks",
                                    &sealed),
            0u);
}

}  // namespace
}  // namespace umon::pipeline
