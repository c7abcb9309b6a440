#include <cmath>
#include <cstdio>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace umon {

std::string FlowKey::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u.%u:%u->%u.%u:%u/%u", src_ip >> 16,
                src_ip & 0xFFFF, src_port, dst_ip >> 16, dst_ip & 0xFFFF,
                dst_port, proto);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

double Rng::exponential(double mean) {
  // Inverse-CDF sampling; uniform() < 1 so the log argument stays positive.
  return -mean * std::log(1.0 - uniform());
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      std::clamp(p, 0.0, 1.0) * static_cast<double>(xs.size() - 1));
  return xs[idx];
}

}  // namespace umon
