#include "metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: empty sample");
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  // Levels in hundredths of a percent, so the count of samples beyond a
  // level is exact integer arithmetic: floor(n * (100% - level)).
  constexpr std::array<std::size_t, 6> kLevels = {5000, 9000, 9500,
                                                  9900, 9990, 9999};
  std::optional<double> best;
  for (const std::size_t level : kLevels) {
    const std::size_t beyond = n * (10000 - level) / 10000;
    if (beyond >= min_beyond) best = static_cast<double>(level) / 100.0;
  }
  return best;
}

Distribution summarize(const std::vector<double>& samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  d.median = quantile(samples, 0.5);
  d.q1 = quantile(samples, 0.25);
  d.q3 = quantile(samples, 0.75);
  d.tail_level = tail_percentile(samples.size());
  if (d.tail_level) d.tail_value = quantile(samples, *d.tail_level / 100.0);
  return d;
}

void MetricSet::set(const std::string& name, const std::string& unit,
                    double value) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value for metric " + name);
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  metrics_.push_back({name, unit, value});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i > 0) out += ", ";
    out.append("\"").append(json_escape(m.name)).append("\": {\"value\": ");
    out.append(json_number(m.value)).append(", \"unit\": \"");
    out.append(json_escape(m.unit)).append("\"}");
  }
  return out + "}";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite JSON number");
  char buf[32];
  // %.17g round-trips every double; try shorter forms first for legibility.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
