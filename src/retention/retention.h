// RetentionManager — the snapshot-lifecycle driver (docs/retention.md).
// Owns the ManifestStore, orchestrates delete → release_ref walks over a
// deferred-reclaim ChunkStore, and runs the GC epoch/pin protocol that makes
// reclamation safe against in-flight backups:
//
//   * Pins. Every in-flight backup holds an RAII Pin for its whole dedup
//     walk. A pin remembers the epoch it was taken in.
//   * Zeroing. delete_image walks the manifest releasing one reference per
//     occurrence; chunks whose count hits zero are parked (deferred-reclaim
//     store) and enter the graveyard stamped with the current epoch.
//   * Sweeping. gc() advances the epoch and frees graveyard chunks whose
//     zero-stamp precedes every active pin's epoch — any backup that could
//     still resurrect the digest via add_ref was pinned after the chunk was
//     parked and is ordered behind us. Chunks resurrected in the meantime
//     (ref_count > 0 again) silently leave the graveyard.
//
// The data plane stays self-healing regardless: the dedup paths treat a
// failed add_ref (index hit on a chunk GC freed between probe and take) as
// a unique chunk and re-ship the payload, so even a mistimed sweep degrades
// dedup ratio, never correctness.
//
// All reclamation is cost-modelled on virtual time (one flash read per
// container scanned, one flash write per container rewritten — the same
// constants as docs/dedup_index.md) and published as retention.* / store.*
// metrics; GC and compaction emit virtual-time spans through obs::Tracer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "dedup/digest.h"
#include "dedup/sparse_index.h"
#include "dedup/store.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "retention/manifest.h"

namespace shredder::retention {

// Modelled costs of the retention control plane. The store sweep touches
// chunk metadata (RAM-resident refcount table) per chunk and pays a flash
// erase per chunk actually freed; manifest records append to a log write
// buffer like index entries do.
struct RetentionCostModel {
  double sweep_scan_s = 0.05e-6;      // per chunk examined by the GC sweep
  double reclaim_s = 1.0e-6;          // per chunk freed (amortized erase)
  double release_s = 0.2e-6;          // per manifest digest release-walked
  double manifest_append_s = 0.3e-6;  // per manifest-log record appended
};

struct RetentionConfig {
  RetentionCostModel costs;
  obs::Registry* registry = nullptr;  // store.* / retention.* metrics
  obs::Tracer* tracer = nullptr;      // GC / compaction spans
};

// Adds the index's probe-outcome movement from `before` to `after` to the
// index.* counters. dedup sits below obs in the module DAG, so the layers
// driving an index publish on its behalf — as the manager does for store.*.
void publish_index_delta(obs::Registry& registry,
                         const dedup::IndexStats& before,
                         const dedup::IndexStats& after);

class RetentionManager {
 public:
  // The store should be constructed with deferred_reclaim = true; with an
  // immediate-reclaim store the manager still works (deletes free chunks
  // inline, gc() finds nothing) but the epoch protocol is vacuous.
  // Installs itself as the store's occupancy observer when a registry is
  // configured (store.chunks / store.bytes / store.refs gauges).
  RetentionManager(std::shared_ptr<dedup::ChunkStore> store,
                   RetentionConfig config = {});
  ~RetentionManager();

  RetentionManager(const RetentionManager&) = delete;
  RetentionManager& operator=(const RetentionManager&) = delete;

  // --- Pins (in-flight backup protection) ---
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept {
      release();
      mgr_ = other.mgr_;
      epoch_ = other.epoch_;
      other.mgr_ = nullptr;
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    void release();
    std::uint64_t epoch() const noexcept { return epoch_; }
    bool active() const noexcept { return mgr_ != nullptr; }

   private:
    friend class RetentionManager;
    Pin(RetentionManager* mgr, std::uint64_t epoch)
        : mgr_(mgr), epoch_(epoch) {}
    RetentionManager* mgr_ = nullptr;
    std::uint64_t epoch_ = 0;
  };
  Pin pin();

  // --- Manifests (the backup path records, the delete path walks) ---
  ManifestStore& manifests() noexcept { return manifests_; }
  const ManifestStore& manifests() const noexcept { return manifests_; }

  // Records a sealed image's ordered digest list (begin + chunks + seal)
  // and charges the manifest-log append cost. The store references were
  // already taken by the dedup path (one per occurrence).
  void record_image(const std::string& tenant, const std::string& image,
                    const std::vector<dedup::ChunkDigest>& digests);

  // Deletes a snapshot: two-phase manifest tombstone around a release_ref
  // walk. Chunks parked at zero refs enter the graveyard stamped with the
  // current epoch. Throws RetentionError (kUnknownImage / kImageInProgress /
  // kAlreadyDeleted); the manifest is untouched on the error paths.
  struct DeleteStats {
    std::uint64_t chunks_released = 0;  // digest occurrences walked
    std::uint64_t chunks_zeroed = 0;    // parked (or freed) at zero refs
    std::uint64_t bytes_zeroed = 0;     // reclaimable payload bytes
    double virtual_seconds = 0;
  };
  DeleteStats delete_image(const std::string& tenant,
                           const std::string& image);

  // --- GC (epoch-scoped graveyard sweep) ---
  struct GcStats {
    std::uint64_t epoch = 0;            // epoch after the advance
    std::uint64_t chunks_freed = 0;
    std::uint64_t bytes_freed = 0;
    std::uint64_t kept_pinned = 0;      // zeroed too recently for active pins
    std::uint64_t resurrected = 0;      // re-referenced; left the graveyard
    double virtual_seconds = 0;
  };
  GcStats gc();

  // --- Entry-log compaction driver ---
  // Compacts `index` keeping only digests still referenced by the store
  // (live or parked — parked entries are the GC's to free, not ours), then
  // compacts the manifest log. Emits a retention/compact span.
  struct CompactStats {
    dedup::SparseChunkIndex::CompactionStats index;
    ManifestStore::CompactionStats manifest;
    double virtual_seconds = 0;
  };
  CompactStats compact_index(dedup::SparseChunkIndex& index);

  // --- Crash recovery ---
  // Rebuilds the manifest map from `records`, rolls kDeleting images
  // forward to kDeleted (their intent is durable), recomputes every store
  // refcount from the surviving live manifests, and re-seeds the graveyard
  // from the chunks left at zero refs. Never frees a referenced chunk: a
  // digest appearing in any live manifest ends with refs > 0.
  struct RecoveryStats {
    std::uint64_t live_images = 0;
    std::uint64_t deletes_rolled_forward = 0;
    std::uint64_t chunks_zeroed = 0;  // graveyard re-seeded
    double virtual_seconds = 0;
  };
  RecoveryStats recover(std::vector<ManifestRecord> records);

  std::uint64_t epoch() const;
  std::uint64_t active_pins() const;
  std::uint64_t graveyard_size() const;
  double virtual_seconds() const;
  const std::shared_ptr<dedup::ChunkStore>& store() const noexcept {
    return store_;
  }

 private:
  void unpin(std::uint64_t epoch);
  void publish_gauges();
  // Oldest active pin's epoch, or current epoch when no pins are held.
  std::uint64_t safe_epoch_locked() const REQUIRES(mu_);

  const RetentionCostModel costs_;
  obs::Registry* const registry_;
  obs::Tracer* const tracer_;
  std::shared_ptr<dedup::ChunkStore> store_;
  ManifestStore manifests_;

  struct Grave {
    dedup::ChunkDigest digest;
    std::uint64_t epoch = 0;  // epoch the chunk hit zero refs in
  };
  mutable Mutex mu_;
  std::uint64_t epoch_ GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::uint64_t> pins_by_epoch_ GUARDED_BY(mu_);
  std::vector<Grave> graveyard_ GUARDED_BY(mu_);
  double vclock_ GUARDED_BY(mu_) = 0;  // cumulative modelled retention time
};

}  // namespace shredder::retention
