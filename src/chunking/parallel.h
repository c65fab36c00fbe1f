// Parallel host-only content-defined chunking (paper §5.1).
//
// SPMD decomposition: the input is divided into N equal regions; each worker
// scans its region with a Rabin window warmed on the w-1 bytes preceding the
// region, so the concatenated per-region raw boundaries are bit-identical to
// a serial scan. Neighbouring results are then merged and the min/max pass
// runs once, sequentially, exactly like the serial reference.
//
// Chunk records are allocated through a pluggable Allocator so the
// malloc-vs-Hoard contrast of the paper is reproducible (see arena.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chunking/arena.h"
#include "chunking/cdc.h"
#include "chunking/chunk.h"
#include "common/bytes.h"
#include "common/thread_pool.h"
#include "rabin/rabin.h"

namespace shredder::chunking {

enum class AllocMode {
  kSharedLockedHeap,  // one global-locked heap shared by all workers
  kThreadArena,       // a private slab arena per worker (Hoard substitute)
};

struct ParallelChunkerStats {
  std::uint64_t bytes_scanned = 0;
  std::uint64_t raw_boundaries = 0;
  double scan_seconds = 0;   // parallel region only
  double merge_seconds = 0;  // boundary merge + min/max
};

class ParallelChunker {
 public:
  // `threads` == 0 means hardware concurrency. The pool is owned by the
  // chunker and reused across calls.
  ParallelChunker(const rabin::RabinTables& tables, ChunkerConfig config,
                  std::size_t threads = 0,
                  AllocMode alloc_mode = AllocMode::kThreadArena);

  // Chunks `data`, returning the same result as chunk_serial.
  std::vector<Chunk> chunk(ByteSpan data);

  // Raw boundaries only (no min/max, no final boundary).
  std::vector<std::uint64_t> raw_boundaries(ByteSpan data);

  const ParallelChunkerStats& stats() const noexcept { return stats_; }
  std::size_t threads() const noexcept { return pool_.size(); }
  // The worker pool, idle between chunk() calls; consumers borrow it for
  // follow-on per-chunk work (dedup::hash_chunks).
  ThreadPool& pool() noexcept { return pool_; }

 private:
  const rabin::RabinTables& tables_;
  ChunkerConfig config_;
  AllocMode alloc_mode_;
  ThreadPool pool_;
  ParallelChunkerStats stats_;
};

}  // namespace shredder::chunking
