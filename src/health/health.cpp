#include "health/health.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "analyzer/analyzer.hpp"
#include "common/json.hpp"
#include "telemetry/log.hpp"

namespace umon::health {
namespace {

constexpr std::array<Stage, kStageCount> kStages = {
    Stage::kPacketEvent,
    Stage::kSketchSeal,
    Stage::kCollectorDecode,
    Stage::kAnalyzerCurve,
    Stage::kResilience,
    Stage::kStoreSeal,
};

/// Deterministic shortest-roundtrip-ish formatting: %.10g prints the same
/// bytes for the same double on every run, which the byte-identical export
/// guarantee depends on. Non-finite values (an ARE against an all-zero
/// estimate can overflow) are clamped to 0 so the output stays valid JSON.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Inline SVG sparkline over the ring's resident points.
void write_sparkline(std::ostream& os, const SeriesRing& ring) {
  constexpr double kW = 140.0;
  constexpr double kH = 28.0;
  const auto pts = ring.snapshot();
  if (pts.size() < 2) {
    os << "<span class=\"dim\">&mdash;</span>";
    return;
  }
  const Nanos t0 = pts.front().first;
  const Nanos t1 = pts.back().first;
  double lo = pts.front().second;
  double hi = lo;
  for (const auto& [t, v] : pts) {
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  const double tspan = t1 > t0 ? static_cast<double>(t1 - t0) : 1.0;
  const double vspan = hi > lo ? hi - lo : 1.0;
  os << "<svg class=\"spark\" viewBox=\"0 0 " << fmt_double(kW) << " "
     << fmt_double(kH) << "\"><polyline points=\"";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double x =
        static_cast<double>(pts[i].first - t0) / tspan * (kW - 2.0) + 1.0;
    const double y = kH - 2.0 - (pts[i].second - lo) / vspan * (kH - 4.0);
    if (i > 0) os << ' ';
    os << fmt_double(x) << ',' << fmt_double(y);
  }
  os << "\"/></svg>";
}

}  // namespace

std::string HealthMonitor::default_alarms() {
  return "collector.reports_lost rate > 0; "
         "collector.reports_shed rate > 0; "
         "collector.batches_shed rate > 0; "
         "telemetry.trace_dropped_spans rate > 0; "
         "resilience.epochs_unrecovered rate > 0; "
         "store.compaction_lag_segments last > 1 for 1ms; "
         // Durability plane: any corrupt record the scrubber finds (media
         // rot slipping past the page cache) and any epoch seal that hit an
         // I/O error should page — both mean windows just went lost-at-best.
         "store.scrub_corrupt rate > 0; "
         "store.chunks_quarantined rate > 0; "
         "store.seal_failures rate > 0";
}

HealthMonitor::HealthMonitor(const HealthConfig& cfg)
    : cfg_(cfg),
      store_(cfg.ring_capacity),
      sampler_(store_),
      probe_(cfg.probe),
      engine_([&] {
        std::vector<AlarmSpec> specs;
        const std::string rules =
            cfg.alarms.empty() ? default_alarms() : cfg.alarms;
        if (!parse_alarms(rules, &specs, &alarm_error_)) {
          UMON_LOG(kWarn, "health", "alarm rules rejected",
                   {"error", alarm_error_});
        }
        return AlarmEngine(std::move(specs));
      }()) {
  sampler_.add_registry(&self_);
}

void HealthMonitor::publish_watermarks(Nanos now) {
  for (Stage s : kStages) {
    const telemetry::Labels labels = {{"stage", to_string(s)}};
    self_.gauge("umon_health_watermark_low_ns", labels,
                "earliest event time the stage has seen")
        ->set(marks_.low(s));
    self_.gauge("umon_health_watermark_high_ns", labels,
                "latest event time the stage has fully processed")
        ->set(marks_.high(s));
    self_.gauge("umon_health_freshness_ns", labels,
                "now minus the stage high watermark")
        ->set(marks_.freshness_lag(s, now));
  }
  for (std::size_t i = 0; i + 1 < kStages.size(); ++i) {
    self_.gauge("umon_health_backlog_ns",
                {{"from", to_string(kStages[i])},
                 {"to", to_string(kStages[i + 1])}},
                "event-time span not yet absorbed downstream")
        ->set(marks_.backlog(kStages[i], kStages[i + 1]));
  }
}

void HealthMonitor::prime(Nanos t0) {
  publish_watermarks(t0);
  sampler_.prime(t0);
  last_tick_ = t0;
}

void HealthMonitor::tick(Nanos now) {
  publish_watermarks(now);
  sampler_.tick(now);
  if (cfg_.enable_probe && analyzer_ != nullptr &&
      probe_.probed_flows() > 0) {
    const FidelityProbe::Result r = probe_.evaluate(*analyzer_);
    auto push = [&](const char* name, double v) {
      RingStore::Entry& e = store_.series(name, "", SeriesKind::kGauge);
      e.last_raw = v;
      e.ring.push(now, v);
    };
    push("umon_health_probe_are", r.are);
    push("umon_health_probe_nmse", r.nmse);
    push("umon_health_probe_flows", static_cast<double>(r.flows));
  }
  engine_.evaluate(now, store_);
  last_tick_ = now;
}

void HealthMonitor::write_jsonl(std::ostream& os) const {
  os << "{\"type\":\"header\",\"format\":\"umon-health-v1\""
     << ",\"interval_ns\":" << cfg_.interval
     << ",\"ring_capacity\":" << store_.capacity_per_series()
     << ",\"ticks\":" << sampler_.ticks()
     << ",\"last_tick_ns\":" << last_tick_
     << ",\"series\":" << store_.series_count() << "}\n";

  for (Stage s : kStages) {
    os << "{\"type\":\"watermark\",\"stage\":\"" << to_string(s)
       << "\",\"low_ns\":" << marks_.low(s)
       << ",\"high_ns\":" << marks_.high(s)
       << ",\"freshness_ns\":" << marks_.freshness_lag(s, last_tick_)
       << "}\n";
  }

  // Degraded-window inventory: every window the pipeline could not fully
  // recover is listed with its confidence flag, so a dashboard (or the CI
  // chaos gate) can prove no loss went unflagged.
  if (analyzer_ != nullptr) {
    const analyzer::FlowCurveStore& curves = analyzer_->curves();
    os << "{\"type\":\"confidence\",\"gap_fill\":"
       << (curves.gap_fill() ? "true" : "false") << ",\"retransmitted\":"
       << curves.marked_count(analyzer::WindowConfidence::kRetransmitted)
       << ",\"lost\":"
       << curves.marked_count(analyzer::WindowConfidence::kLost)
       << ",\"windows\":[";
    bool first = true;
    for (const auto& [w, conf] : curves.marks()) {
      if (!first) os << ',';
      first = false;
      os << "[" << w << ",\"" << analyzer::to_string(conf) << "\"]";
    }
    os << "]}\n";
  }

  for (const auto& [key, entry] : store_.all()) {
    os << "{\"type\":\"series\",\"name\":\"" << json_escape(key.name)
       << "\",\"labels\":\"" << json_escape(key.labels) << "\",\"kind\":\""
       << to_string(entry.kind)
       << "\",\"last_raw\":" << fmt_double(entry.last_raw)
       << ",\"points\":[";
    const auto pts = entry.ring.snapshot();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (i > 0) os << ',';
      os << '[' << pts[i].first << ',' << fmt_double(pts[i].second) << ']';
    }
    os << "]}\n";
  }

  for (const AlarmEvent& ev : engine_.events()) {
    os << "{\"type\":\"alarm\",\"t_ns\":" << ev.t << ",\"rule\":" << ev.rule
       << ",\"text\":\"" << json_escape(engine_.specs()[ev.rule].text)
       << "\",\"from\":\"" << to_string(ev.from) << "\",\"to\":\""
       << to_string(ev.to) << "\",\"value\":" << fmt_double(ev.value)
       << "}\n";
  }

  os << "{\"type\":\"verdict\",\"healthy\":"
     << (engine_.healthy() ? "true" : "false")
     << ",\"fires\":" << engine_.total_fires() << ",\"rules\":[";
  for (std::size_t i = 0; i < engine_.specs().size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"text\":\"" << json_escape(engine_.specs()[i].text)
       << "\",\"state\":\"" << to_string(engine_.state(i))
       << "\",\"fires\":" << engine_.fire_count(i)
       << ",\"flaps_suppressed\":" << engine_.flaps_suppressed(i) << '}';
  }
  os << "]}\n";
}

void HealthMonitor::write_alarms_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < engine_.specs().size(); ++i) {
    os << "{\"type\":\"alarm_rule\",\"text\":\""
       << json_escape(engine_.specs()[i].text) << "\",\"state\":\""
       << to_string(engine_.state(i))
       << "\",\"fires\":" << engine_.fire_count(i)
       << ",\"flaps_suppressed\":" << engine_.flaps_suppressed(i) << "}\n";
  }
  for (const AlarmEvent& ev : engine_.events()) {
    os << "{\"type\":\"alarm\",\"t_ns\":" << ev.t << ",\"rule\":" << ev.rule
       << ",\"text\":\"" << json_escape(engine_.specs()[ev.rule].text)
       << "\",\"from\":\"" << to_string(ev.from) << "\",\"to\":\""
       << to_string(ev.to) << "\",\"value\":" << fmt_double(ev.value)
       << "}\n";
  }
}

namespace {

/// Client side of the live dashboard: subscribe to the serve tier's SSE
/// feed and update verdict / last-value cells / sparklines in place. When
/// SSE never connects (proxy stripping, old browser) fall back to polling
/// the /health JSONL export on a 2s interval and applying the same update.
void write_live_script(std::ostream& os) {
  os << R"js(<script>
(function () {
  "use strict";
  var MAX_POINTS = 64;
  var history = {};
  function setVerdict(healthy) {
    var v = document.getElementById("verdict");
    if (!v || healthy === undefined) return;
    v.textContent = healthy ? "HEALTHY" : "UNHEALTHY";
    v.className = healthy ? "ok" : "bad";
  }
  function cssEscape(s) {
    return (window.CSS && CSS.escape) ? CSS.escape(s)
                                      : s.replace(/["\\]/g, "\\$&");
  }
  function apply(sample) {
    setVerdict(sample.healthy);
    if (!sample.series) return;
    for (var key in sample.series) {
      var row = document.querySelector(
          'tr[data-series="' + cssEscape(key) + '"]');
      if (!row) continue;
      var value = sample.series[key];
      var cell = row.querySelector(".last");
      if (cell) cell.textContent = value;
      var poly = row.querySelector("polyline");
      if (!poly) continue;
      var h = history[key] || (history[key] = []);
      h.push(Number(value));
      if (h.length > MAX_POINTS) h.shift();
      if (h.length < 2) continue;
      var lo = Math.min.apply(null, h);
      var hi = Math.max.apply(null, h);
      var span = hi > lo ? hi - lo : 1;
      var pts = "";
      for (var i = 0; i < h.length; i++) {
        var x = i / (h.length - 1) * 138 + 1;
        var y = 26 - (h[i] - lo) / span * 24;
        pts += (i ? " " : "") + x.toFixed(1) + "," + y.toFixed(1);
      }
      poly.setAttribute("points", pts);
    }
  }
  function poll() {
    setInterval(function () {
      fetch("/health").then(function (r) { return r.text(); })
          .then(function (text) {
        var sample = { series: {} };
        text.split("\n").forEach(function (line) {
          if (!line) return;
          var obj;
          try { obj = JSON.parse(line); } catch (e) { return; }
          if (obj.type === "verdict") sample.healthy = obj.healthy;
          if (obj.type === "series") {
            var key = obj.name + (obj.labels ? "{" + obj.labels + "}" : "");
            sample.series[key] = obj.last_raw;
          }
        });
        apply(sample);
      }).catch(function () {});
    }, 2000);
  }
  if (window.EventSource) {
    var es = new EventSource("/api/v1/stream");
    var gotTick = false;
    es.addEventListener("tick", function (ev) {
      gotTick = true;
      try { apply(JSON.parse(ev.data)); } catch (e) {}
    });
    es.onerror = function () {
      if (!gotTick) { es.close(); poll(); }
    };
  } else {
    poll();
  }
})();
</script>)js";
}

}  // namespace

void HealthMonitor::write_html(std::ostream& os, bool live) const {
  const bool ok = engine_.healthy();
  os << "<!doctype html><html><head><meta charset=\"utf-8\">"
        "<title>umon health</title><style>"
        "body{font:13px/1.4 monospace;margin:24px;background:#101418;"
        "color:#cdd6dd}"
        "h1{font-size:16px}h2{font-size:14px;margin-top:28px}"
        "table{border-collapse:collapse;width:100%}"
        "td,th{padding:3px 10px;border-bottom:1px solid #222a31;"
        "text-align:left;white-space:nowrap}"
        "th{color:#8aa0b0}"
        ".ok{color:#4cc38a}.bad{color:#ff6369}.dim{color:#5a6a76}"
        ".spark{width:140px;height:28px}"
        ".spark polyline{fill:none;stroke:#4da6ff;stroke-width:1.5}"
        ".lane{height:14px;background:#1b232b;position:relative;"
        "margin:4px 0}"
        ".lane span{position:absolute;top:0;bottom:0;background:#2f6db3}"
        ".lane b{position:absolute;right:4px;top:-1px;font-weight:normal;"
        "color:#8aa0b0}"
        "</style></head><body><h1>umon health &mdash; verdict: ";
  // Live mode tags the verdict so the stream script can flip it in place;
  // the static branch must keep emitting the exact original bytes.
  if (live) {
    os << "<span id=\"verdict\" class=\"" << (ok ? "ok" : "bad") << "\">"
       << (ok ? "HEALTHY" : "UNHEALTHY") << "</span>";
  } else {
    os << (ok ? "<span class=\"ok\">HEALTHY</span>"
              : "<span class=\"bad\">UNHEALTHY</span>");
  }
  os << "</h1><p class=\"dim\">ticks=" << sampler_.ticks()
     << " last_tick=" << fmt_double(static_cast<double>(last_tick_) /
                                    static_cast<double>(kMicro))
     << "us series=" << store_.series_count()
     << " alarm_fires=" << engine_.total_fires() << "</p>";

  // Watermark lanes: each stage's [low, high] span over the full event-time
  // axis, so decode/analyzer lag is visible as the right-edge gap.
  os << "<h2>freshness watermarks</h2>";
  Nanos axis_lo = Watermarks::kUnset;
  Nanos axis_hi = Watermarks::kUnset;
  for (Stage s : kStages) {
    const Nanos lo = marks_.low(s);
    const Nanos hi = marks_.high(s);
    if (lo != Watermarks::kUnset &&
        (axis_lo == Watermarks::kUnset || lo < axis_lo)) {
      axis_lo = lo;
    }
    if (hi > axis_hi) axis_hi = hi;
  }
  if (axis_hi == Watermarks::kUnset || axis_hi <= axis_lo) {
    os << "<p class=\"dim\">no watermark data</p>";
  } else {
    const double span = static_cast<double>(axis_hi - axis_lo);
    for (Stage s : kStages) {
      const Nanos lo = marks_.low(s);
      const Nanos hi = marks_.high(s);
      os << "<div>" << to_string(s) << "<div class=\"lane\">";
      if (lo != Watermarks::kUnset && hi != Watermarks::kUnset) {
        const double l = static_cast<double>(lo - axis_lo) / span * 100.0;
        const double r = static_cast<double>(hi - axis_lo) / span * 100.0;
        os << "<span style=\"left:" << fmt_double(l) << "%;width:"
           << fmt_double(r - l < 0.5 ? 0.5 : r - l) << "%\"></span><b>lag "
           << fmt_double(
                  static_cast<double>(marks_.freshness_lag(s, last_tick_)) /
                  static_cast<double>(kMicro))
           << "us</b>";
      } else {
        os << "<b>no data</b>";
      }
      os << "</div></div>";
    }
  }

  os << "<h2>alarms</h2><table><tr><th>rule</th><th>state</th>"
        "<th>fires</th><th>flaps suppressed</th></tr>";
  for (std::size_t i = 0; i < engine_.specs().size(); ++i) {
    const AlarmState st = engine_.state(i);
    const bool firing =
        st == AlarmState::kFiring || st == AlarmState::kClearing;
    os << "<tr><td>" << html_escape(engine_.specs()[i].text)
       << "</td><td class=\"" << (firing ? "bad" : "ok") << "\">"
       << to_string(st) << "</td><td>" << engine_.fire_count(i) << "</td><td>"
       << engine_.flaps_suppressed(i) << "</td></tr>";
  }
  os << "</table>";
  if (!engine_.events().empty()) {
    os << "<h2>alarm events</h2><table><tr><th>t (us)</th><th>rule</th>"
          "<th>transition</th><th>value</th></tr>";
    for (const AlarmEvent& ev : engine_.events()) {
      os << "<tr><td>"
         << fmt_double(static_cast<double>(ev.t) /
                       static_cast<double>(kMicro))
         << "</td><td>" << html_escape(engine_.specs()[ev.rule].text)
         << "</td><td>" << to_string(ev.from) << " &rarr; "
         << to_string(ev.to) << "</td><td>" << fmt_double(ev.value)
         << "</td></tr>";
    }
    os << "</table>";
  }

  os << "<h2>series</h2><table><tr><th>series</th><th>kind</th>"
        "<th>last</th><th>min</th><th>max</th><th>trend</th></tr>";
  for (const auto& [key, entry] : store_.all()) {
    if (live) {
      // The data-series key matches write_live_sample's JSON keys, so the
      // stream script can address each row by the sample's map key.
      std::string k = key.name;
      if (!key.labels.empty()) k += "{" + key.labels + "}";
      os << "<tr data-series=\"" << html_escape(k) << "\"><td>"
         << html_escape(key.name);
    } else {
      os << "<tr><td>" << html_escape(key.name);
    }
    if (!key.labels.empty()) {
      os << "<span class=\"dim\">{" << html_escape(key.labels) << "}</span>";
    }
    os << "</td><td class=\"dim\">" << to_string(entry.kind)
       << (live ? "</td><td class=\"last\">" : "</td><td>")
       << fmt_double(entry.ring.last()) << "</td><td>"
       << fmt_double(entry.ring.min()) << "</td><td>"
       << fmt_double(entry.ring.max()) << "</td><td>";
    write_sparkline(os, entry.ring);
    os << "</td></tr>";
  }
  os << "</table>";
  if (live) write_live_script(os);
  os << "</body></html>\n";
}

void HealthMonitor::write_live_sample(std::ostream& os) const {
  os << "{\"type\":\"tick\",\"t_ns\":" << last_tick_ << ",\"healthy\":"
     << (engine_.healthy() ? "true" : "false")
     << ",\"fires\":" << engine_.total_fires() << ",\"series\":{";
  bool first = true;
  for (const auto& [key, entry] : store_.all()) {
    if (!first) os << ',';
    first = false;
    std::string k = key.name;
    if (!key.labels.empty()) k += "{" + key.labels + "}";
    os << '"' << json_escape(k) << "\":\"" << fmt_double(entry.ring.last())
       << '"';
  }
  os << "}}";
}

}  // namespace umon::health
