// Content-defined chunking: the canonical scanners.
//
// Two implementations produce bit-identical raw boundary streams:
//
//  * scan_buffer — the branch-free batched fast path for in-memory spans.
//    All chunking backends (serial, parallel CPU, GPU basic kernel, GPU
//    coalesced kernel) run their inner loop through it. See docs/perf.md.
//  * StreamScanner — the incremental scanner for data arriving in arbitrary
//    granularity. It is also the reference oracle the equivalence tests hold
//    scan_buffer against.
//
// Min/max handling composes as a separate pass (chunking/minmax.h) exactly
// like the paper's Store thread does (§3.1, §7.3).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "chunking/cdc_fastpath.h"
#include "chunking/chunk.h"
#include "common/bytes.h"
#include "rabin/rabin.h"

namespace shredder::chunking {
// kMaxWindow (chunk.h) bounds StreamScanner's stack ring buffer; both
// scanners reject larger Rabin tables.

// Incremental raw-boundary scanner. Feed bytes in any granularity; emits
// `emit(end, fp)` for every raw boundary, where `end` is the absolute end
// offset of the window whose fingerprint matched.
//
//  - `base`   : absolute stream offset of the first byte that will be fed.
//  - `warmup` : number of leading bytes that only warm the window; boundaries
//               ending at or before base + warmup are not emitted. A parallel
//               worker passes the w-1 bytes preceding its region here.
//
// A boundary is emitted only once the window is completely full, so the first
// w-1 positions of the whole stream can never produce a boundary — matching
// serial semantics regardless of how the stream is partitioned or fed.
class StreamScanner {
 public:
  StreamScanner(const rabin::RabinTables& tables, const ChunkerConfig& config,
                std::uint64_t base = 0, std::uint64_t warmup = 0)
      : tables_(&tables),
        mask_(config.boundary_mask()),
        marker_(config.marker),
        next_pos_(base),
        emit_after_(base + warmup) {
    config.validate();
    if (tables.window() > kMaxWindow) {
      // The ring buffer is a fixed stack array; a larger window would index
      // past it and silently corrupt the stack.
      throw std::invalid_argument(
          "StreamScanner: tables window exceeds kMaxWindow");
    }
  }

  // Absolute offset of the next byte to be fed.
  std::uint64_t position() const noexcept { return next_pos_; }

  template <typename Emit>
  void feed(ByteSpan data, Emit&& emit) {
    const std::size_t w = tables_->window();
    // Local copies of the hot state for the inner loop.
    std::uint64_t fp = fp_;
    std::size_t pos = pos_;
    std::size_t filled = filled_;
    std::uint64_t at = next_pos_;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::uint8_t b = data[i];
      if (filled == w) {
        fp = tables_->pop(fp, ring_[pos]);
      } else {
        ++filled;
      }
      ring_[pos] = b;
      pos = pos + 1 == w ? 0 : pos + 1;
      fp = tables_->push(fp, b);
      ++at;
      if (filled == w && (fp & mask_) == marker_ && at > emit_after_) {
        emit(at, fp);
      }
    }
    fp_ = fp;
    pos_ = pos;
    filled_ = filled;
    next_pos_ = at;
  }

 private:
  const rabin::RabinTables* tables_;
  std::uint64_t mask_;
  std::uint64_t marker_;
  std::array<std::uint8_t, kMaxWindow> ring_{};
  std::uint64_t fp_ = 0;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t next_pos_;
  std::uint64_t emit_after_;
};

// One-shot scan of `data` located at absolute offset `base`, with the first
// `warmup` bytes warming the window only. Reference implementation; use
// scan_buffer on the hot path.
template <typename Emit>
void scan_raw(const rabin::RabinTables& tables, const ChunkerConfig& config,
              ByteSpan data, std::size_t warmup, std::uint64_t base,
              Emit&& emit) {
  StreamScanner scanner(tables, config, base, warmup);
  scanner.feed(data, emit);
}

// Batched scan of an in-memory span: the hot path shared by every backend.
// Emits exactly the boundaries scan_raw would, bit for bit, but with none
// of StreamScanner's per-byte overhead. Two paths, chosen once at runtime:
//
//  * window sum (x86-64 with AVX512BW + GFNI): the boundary bits of every
//    window are a sum of per-distance GF(2) matrix products of its bytes,
//    evaluated 64 positions per instruction with no carried chain; only
//    hits recompute a full fingerprint (detail::scan_window_sum);
//  * scalar lanes elsewhere: no ring buffer (the byte leaving the window is
//    data[i - w]), a warmup prologue, unrolled batches of 8 with one
//    hoisted mask predicate, a carried fingerprint that hops four bytes per
//    fused table round (RabinTables::slide4), and two interleaved lanes on
//    spans of 256 KiB or more.
//
// See docs/perf.md for the design rationale and measurements.
template <typename Emit>
void scan_buffer(const rabin::RabinTables& tables, const ChunkerConfig& config,
                 ByteSpan data, std::size_t warmup, std::uint64_t base,
                 Emit&& emit) {
  config.validate();
  const std::size_t w = tables.window();
  if (w > kMaxWindow) {
    throw std::invalid_argument("scan_buffer: tables window exceeds kMaxWindow");
  }
  const std::size_t n = data.size();
  if (n < w) return;  // the window never fills: no boundary possible
  const std::uint64_t mask = config.boundary_mask();
  const std::uint64_t marker = config.marker;
  const std::uint8_t* const p = data.data();
  if (detail::window_sum_supported()) {
    detail::scan_window_sum(tables, mask, marker, p, n, warmup, base, emit);
  } else if (n >= detail::kTwoLaneMinBytes) {
    detail::scan_two_lanes(tables, mask, marker, p, n, warmup, base, emit);
  } else {
    detail::scan_lane(tables, mask, marker, p, /*start=*/0, n, warmup, base,
                      emit);
  }
}

// The scan_buffer path this CPU dispatches to, for logs: "window-sum
// (AVX-512BW+GFNI)" or "scalar lanes".
const char* scan_buffer_path() noexcept;

// Raw boundaries (no min/max) of an in-memory buffer. End offsets are
// strictly ascending and never include `data.size()` unless the final window
// happens to match.
std::vector<std::uint64_t> find_raw_boundaries(const rabin::RabinTables& tables,
                                               const ChunkerConfig& config,
                                               ByteSpan data);

// Full serial content-defined chunking: raw scan + min/max post-pass +
// final boundary at data.size(). This is the canonical output every other
// backend must reproduce.
std::vector<Chunk> chunk_serial(const rabin::RabinTables& tables,
                                const ChunkerConfig& config, ByteSpan data);

}  // namespace shredder::chunking
