// Unified metrics registry: named, labeled counters/gauges/timings shared by
// every subsystem (docs/observability.md).
//
// The repo's telemetry grew one struct per layer — TenantReport,
// BackupRunStats, TransportStats, IndexStats, KernelRunStats, LinkStats —
// each plumbed by hand to whoever wanted it. The registry is the common
// sink: a hook site increments a Counter or observes a Timing, and any
// consumer (a fleet health check, the obs bench, a test) reads one snapshot
// instead of six structs.
//
// Design constraints, in order:
//   * Near-zero cost when disabled: every mutator early-outs on one relaxed
//     atomic load, so hooks can live on per-buffer hot paths unconditionally
//     ("compiled in but disabled" is the bar BENCH_obs.json enforces).
//   * Cheap when enabled: counters/gauges are single relaxed atomics;
//     timings write to a per-thread shard (uncontended mutex on the owning
//     thread) and shards are Welford-merged only at snapshot time.
//   * No behavior change either way: metrics are write-only from the hot
//     path; nothing in the pipeline reads them back.
//
// Metric identity is (name, labels) with labels sorted by key, so
// `timing("stage_seconds", {{"stage","h2d"}})` always lands on the same
// object regardless of call-site label order. Naming scheme:
// `<module>.<noun>_<unit>` with `_total` for counters
// (e.g. "service.bytes_total", "pipeline.stage_seconds").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/stats.h"

namespace shredder::obs {

// Sorted-by-key label set; the registry canonicalizes order on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Registry;

// Monotonically increasing event/byte count.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value (queue depth, credit, occupancy).
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

// Distribution of observed values (stage seconds, chunk sizes): a Summary
// plus an optional fixed-bucket Histogram, sharded per writer thread. Each
// thread owns one shard for the metric's lifetime — the shard mutex is only
// ever contended by a concurrent snapshot, never by another writer — and
// summary()/histogram() Welford-merge the shards on demand.
class Timing {
 public:
  Timing(const Timing&) = delete;
  Timing& operator=(const Timing&) = delete;

  void observe(double v);

  Summary summary() const;                  // merged across shards
  std::optional<Histogram> histogram() const;  // nullopt without bounds
  bool has_buckets() const noexcept { return !bounds_.empty(); }

 private:
  friend class Registry;
  Timing(const std::atomic<bool>* enabled, std::vector<double> bounds,
         std::uint64_t id)
      : enabled_(enabled), bounds_(std::move(bounds)), id_(id) {}

  struct Shard {
    mutable Mutex mu;
    Summary summary GUARDED_BY(mu);
    std::optional<Histogram> hist GUARDED_BY(mu);
  };
  Shard& local_shard() EXCLUDES(shards_mu_);

  const std::atomic<bool>* enabled_;
  const std::vector<double> bounds_;
  // Process-unique metric id: the thread-local shard cache keys on it, not
  // on `this`, so a new Timing reusing a dead one's address can never pick
  // up the dead metric's shard.
  const std::uint64_t id_;
  mutable Mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(shards_mu_);
};

// One metric's state at snapshot time.
struct MetricSample {
  enum class Type { kCounter, kGauge, kTiming };

  std::string name;
  Labels labels;
  Type type = Type::kCounter;
  double value = 0;   // counter (as double) or gauge
  Summary summary;    // timing only
  std::vector<double> bounds;            // timing with buckets
  std::vector<std::uint64_t> buckets;    // bounds.size() + 1 (overflow last)
  std::uint64_t nan_count = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Disabling makes every mutator a relaxed load + branch; existing values
  // freeze but stay readable.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Idempotent registration: the same (name, labels) returns the same
  // object; a type mismatch throws std::invalid_argument. Returned
  // references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  // `bounds` (ascending histogram upper bounds) only applies on first
  // registration; see log_spaced_bounds() for latency-style buckets.
  Timing& timing(const std::string& name, Labels labels = {},
                 std::vector<double> bounds = {});

  // All metrics in registration order.
  std::vector<MetricSample> snapshot() const;

  // now - base, matched by (name, labels): counters and timing
  // count/sum/bucket deltas subtract; gauges pass through; a timing delta's
  // mean is recomputed from the window while min/max stay run-cumulative
  // (windowed extrema are not recoverable from two cumulative snapshots).
  // Metrics born after `base` delta against zero.
  static std::vector<MetricSample> delta(
      const std::vector<MetricSample>& base,
      const std::vector<MetricSample>& now);

  // Sum of a counter across every label set (0 when absent); the roll-up
  // that reads, e.g., backup.degraded_runs_total back across the servers
  // sharing one registry.
  std::uint64_t counter_sum(const std::string& name) const;

  std::string to_json() const;
  static std::string to_json(const std::vector<MetricSample>& samples);
  std::string to_table() const;
  static std::string to_table(const std::vector<MetricSample>& samples);

  // Process-wide default instance for tools that want one without plumbing.
  static Registry& global();

 private:
  struct Entry {
    MetricSample::Type type = MetricSample::Type::kCounter;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Timing> timing;
  };

  Entry& entry(MetricSample::Type type, const std::string& name,
               Labels labels, std::vector<double> bounds) EXCLUDES(mu_);

  mutable Mutex mu_;
  // Registration order; entries are never removed, so pointers handed out by
  // counter()/gauge()/timing() stay valid without the lock.
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Entry*> by_key_ GUARDED_BY(mu_);
  std::atomic<bool> enabled_{true};
};

// Canonical "name{k=v,...}" rendering shared by exports and tests.
std::string metric_key(const std::string& name, const Labels& labels);

}  // namespace shredder::obs
