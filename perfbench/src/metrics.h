// Metric bookkeeping for the repo benchmark: validated metric names, the
// summary statistics a timing is reported with, and JSON rendering.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// A metric name starts with a letter or digit and is made of at most 64
// characters from [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);

// A unit is 1..16 characters from [A-Za-z0-9_/%.-] ("ms", "MB/s", "count").
bool valid_unit(std::string_view unit);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
// Throws std::invalid_argument on an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// The highest percentile of {50, 90, 95, 99, 99.9, 99.99} that leaves at
// least `min_beyond` samples above it, or nullopt when even the median
// leaves fewer (n < 2 * min_beyond).
std::optional<double> tail_percentile(std::size_t n,
                                      std::size_t min_beyond = 10);

// How a timing is reported: sample count, median, and the tail percentile
// the sample size supports (absent for small samples).
struct Distribution {
  std::size_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::optional<double> tail_level;  // e.g. 90 for p90
  double tail_value = 0;
};
Distribution summarize(const std::vector<double>& samples);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Ordered, name-unique metric list. set() throws std::invalid_argument on
// an invalid name or unit, a duplicate name, or a non-finite value.
class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& all() const noexcept { return metrics_; }
  const Metric* find(std::string_view name) const;
  // {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

std::string json_escape(std::string_view s);
// Shortest round-trip rendering of a finite double.
std::string json_number(double v);

}  // namespace perfbench
