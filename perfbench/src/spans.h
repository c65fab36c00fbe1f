// Host-time spans recorded by the benchmark around calls into the library's
// public entry points. Spans live in memory and are written out once, at
// the end of a traced run. Nothing inside the library is instrumented: the
// spans measure each layer from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // spans of one operation share this id
  std::string name;
  std::uint64_t bytes = 0;  // user bytes the call processed, when known
  double start_s = 0;  // seconds since the recorder was created
  double end_s = 0;

  double duration() const noexcept { return end_s - start_s; }
};

// Thread-safe in-memory span log. A disabled recorder hands out id 0 and
// records nothing, so call sites need no branches.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  std::uint64_t new_op();
  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t op);
  void end(std::uint64_t id, std::uint64_t bytes = 0);

  // RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t parent,
          std::uint64_t op)
        : rec_(rec), id_(rec.begin(name, parent, op)) {}
    ~Scope() { rec_.end(id_, bytes_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return id_; }
    void set_bytes(std::uint64_t bytes) noexcept { bytes_ = bytes; }

   private:
    SpanRecorder& rec_;
    std::uint64_t id_;
    std::uint64_t bytes_ = 0;
  };

  std::vector<Span> spans() const;
  // Chrome trace-event JSON ("X" events, microseconds); loads in
  // chrome://tracing and Perfetto.
  std::string to_json() const;

 private:
  double now() const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  std::uint64_t next_op_ = 1;
};

// Self time of every span, in input order: its duration minus the part of
// its interval covered by its direct children (overlapping children count
// once; child time outside the parent's interval is ignored).
std::vector<double> self_times(const std::vector<Span>& spans);

struct LayerTime {
  double self_s = 0;
  double total_s = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};
// Self and total time summed per span name.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace perfbench
