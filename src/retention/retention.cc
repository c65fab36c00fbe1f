#include "retention/retention.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace shredder::retention {

RetentionManager::RetentionManager(std::shared_ptr<dedup::ChunkStore> store,
                                   RetentionConfig config)
    : costs_(config.costs),
      registry_(config.registry),
      tracer_(config.tracer),
      store_(std::move(store)) {
  SHREDDER_CHECK_MSG(store_ != nullptr, "RetentionManager: null store");
  if (registry_ != nullptr) {
    // Pre-resolve the gauges once; the observer then runs under the store
    // lock on every mutation and must stay at set()-on-an-atomic cost.
    obs::Gauge* chunks = &registry_->gauge("store.chunks");
    obs::Gauge* bytes = &registry_->gauge("store.bytes");
    obs::Gauge* refs = &registry_->gauge("store.refs");
    obs::Gauge* zchunks = &registry_->gauge("store.zero_ref_chunks");
    obs::Gauge* zbytes = &registry_->gauge("store.zero_ref_bytes");
    store_->set_observer([=](const dedup::StoreOccupancy& o) {
      chunks->set(static_cast<double>(o.chunks));
      bytes->set(static_cast<double>(o.bytes));
      refs->set(static_cast<double>(o.refs));
      zchunks->set(static_cast<double>(o.zero_ref_chunks));
      zbytes->set(static_cast<double>(o.zero_ref_bytes));
    });
  }
}

RetentionManager::~RetentionManager() {
  // The observer captures registry gauges; detach it so a store outliving
  // this manager cannot call into a dead registry.
  store_->set_observer({});
}

void RetentionManager::Pin::release() {
  if (mgr_ != nullptr) {
    mgr_->unpin(epoch_);
    mgr_ = nullptr;
  }
}

RetentionManager::Pin RetentionManager::pin() {
  std::uint64_t e;
  {
    MutexLock lock(mu_);
    e = epoch_;
    ++pins_by_epoch_[e];
  }
  publish_gauges();
  return Pin(this, e);
}

void RetentionManager::unpin(std::uint64_t epoch) {
  {
    MutexLock lock(mu_);
    const auto it = pins_by_epoch_.find(epoch);
    SHREDDER_CHECK_MSG(it != pins_by_epoch_.end() && it->second > 0,
                       "RetentionManager: unpin without pin");
    if (--it->second == 0) pins_by_epoch_.erase(it);
  }
  publish_gauges();
}

std::uint64_t RetentionManager::safe_epoch_locked() const {
  return pins_by_epoch_.empty() ? epoch_ : pins_by_epoch_.begin()->first;
}

void RetentionManager::record_image(const std::string& tenant,
                                    const std::string& image,
                                    const std::vector<dedup::ChunkDigest>& digests) {
  manifests_.record_image(tenant, image, digests);
  {
    MutexLock lock(mu_);
    // begin + one record per chunk + seal, all log appends.
    vclock_ += static_cast<double>(digests.size() + 2) *
               costs_.manifest_append_s;
  }
  if (registry_ != nullptr) {
    registry_->counter("retention.images_recorded_total").add(1);
  }
  publish_gauges();
}

RetentionManager::DeleteStats RetentionManager::delete_image(
    const std::string& tenant, const std::string& image) {
  // Phase 1: durable delete intent. Throws (manifest untouched) on unknown /
  // in-progress / double delete.
  const std::vector<dedup::ChunkDigest> digests =
      manifests_.begin_delete(tenant, image);

  DeleteStats stats;
  const dedup::StoreOccupancy before = store_->occupancy();
  for (const dedup::ChunkDigest& d : digests) {
    const dedup::ReleaseOutcome out = store_->release_ref(d);
    SHREDDER_CHECK_MSG(out != dedup::ReleaseOutcome::kUnknownDigest &&
                           out != dedup::ReleaseOutcome::kNoRefs,
                       "RetentionManager::delete_image: manifest references "
                       "a chunk the store has no reference for");
    ++stats.chunks_released;
    if (out == dedup::ReleaseOutcome::kDeferred) {
      ++stats.chunks_zeroed;
      MutexLock lock(mu_);
      graveyard_.push_back(Grave{d, epoch_});
    } else if (out == dedup::ReleaseOutcome::kReclaimed) {
      ++stats.chunks_zeroed;
    }
  }
  // Phase 2: tombstone. A crash before this point recovers by rolling the
  // delete forward from the intent record.
  manifests_.commit_delete(tenant, image);

  const dedup::StoreOccupancy after = store_->occupancy();
  // Zeroed bytes = newly parked (deferred) + freed inline (immediate mode).
  stats.bytes_zeroed = (after.zero_ref_bytes - before.zero_ref_bytes) +
                       (before.bytes - after.bytes);
  {
    MutexLock lock(mu_);
    stats.virtual_seconds =
        static_cast<double>(digests.size()) * costs_.release_s +
        2 * costs_.manifest_append_s;
    vclock_ += stats.virtual_seconds;
  }
  if (registry_ != nullptr) {
    registry_->counter("retention.deletes_total").add(1);
    registry_->counter("retention.chunks_zeroed_total")
        .add(stats.chunks_zeroed);
  }
  publish_gauges();
  return stats;
}

RetentionManager::GcStats RetentionManager::gc() {
  GcStats stats;
  double span_start = 0;
  std::unordered_set<dedup::ChunkDigest, dedup::ChunkDigestHash> reclaim;
  {
    MutexLock lock(mu_);
    ++epoch_;
    stats.epoch = epoch_;
    span_start = vclock_;
    const std::uint64_t safe = safe_epoch_locked();
    // Partition the graveyard: entries zeroed before every active pin's
    // epoch are reclaim candidates (re-checking the live refcount drops
    // resurrected chunks); younger entries stay for a later sweep.
    std::vector<Grave> survivors;
    survivors.reserve(graveyard_.size());
    for (const Grave& g : graveyard_) {
      if (g.epoch >= safe) {
        ++stats.kept_pinned;
        survivors.push_back(g);
        continue;
      }
      const auto rc = store_->ref_count(g.digest);
      if (rc.has_value() && *rc == 0) {
        reclaim.insert(g.digest);
      } else if (rc.has_value()) {
        ++stats.resurrected;
      }
      // nullopt: already gone (e.g. duplicate graveyard entry) — drop.
    }
    graveyard_ = std::move(survivors);
  }

  const dedup::SweepStats sweep = store_->sweep_zero_refs(
      [&](const dedup::ChunkDigest& d) { return !reclaim.contains(d); });
  stats.chunks_freed = sweep.freed_chunks;
  stats.bytes_freed = sweep.freed_bytes;

  {
    MutexLock lock(mu_);
    stats.virtual_seconds =
        static_cast<double>(sweep.scanned) * costs_.sweep_scan_s +
        static_cast<double>(sweep.freed_chunks) * costs_.reclaim_s;
    vclock_ = span_start + stats.virtual_seconds;
  }
  if (tracer_ != nullptr) {
    tracer_->span("retention/gc", "gc_sweep", span_start,
                  span_start + stats.virtual_seconds,
                  {{"epoch", std::to_string(stats.epoch)},
                   {"chunks_freed", std::to_string(stats.chunks_freed)},
                   {"bytes_freed", std::to_string(stats.bytes_freed)}});
  }
  if (registry_ != nullptr) {
    registry_->counter("retention.gc_runs_total").add(1);
    registry_->counter("retention.chunks_freed_total").add(stats.chunks_freed);
    registry_->counter("retention.bytes_freed_total").add(stats.bytes_freed);
  }
  publish_gauges();
  return stats;
}

RetentionManager::CompactStats RetentionManager::compact_index(
    dedup::SparseChunkIndex& index) {
  CompactStats stats;
  double span_start;
  {
    MutexLock lock(mu_);
    span_start = vclock_;
  }
  // Liveness = the store still holds the chunk (referenced or parked —
  // parked entries are the GC's to free, not compaction's). Run GC first to
  // let compaction drop the dead entries.
  stats.index = index.compact(
      [&](const dedup::ChunkDigest& d, const dedup::ChunkLocation&) {
        return store_->contains(d);
      });
  stats.manifest = manifests_.compact();
  {
    MutexLock lock(mu_);
    stats.virtual_seconds = stats.index.virtual_seconds;
    vclock_ = span_start + stats.virtual_seconds;
  }
  if (tracer_ != nullptr) {
    tracer_->span(
        "retention/compact", "log_compaction", span_start,
        span_start + stats.virtual_seconds,
        {{"entries_dropped", std::to_string(stats.index.dropped)},
         {"manifest_records_dropped",
          std::to_string(stats.manifest.dropped_records)}});
  }
  if (registry_ != nullptr) {
    registry_->counter("retention.compactions_total").add(1);
    registry_->counter("retention.log_entries_dropped_total")
        .add(stats.index.dropped);
  }
  publish_gauges();
  return stats;
}

RetentionManager::RecoveryStats RetentionManager::recover(
    std::vector<ManifestRecord> records) {
  RecoveryStats stats;
  const std::size_t n_records = records.size();
  manifests_.rebuild_from_log(std::move(records));
  // Roll delete intents forward: the walk may have been interrupted but the
  // refcounts are recomputed from live manifests below, so committing is
  // always consistent.
  for (const auto& [tenant, image] : manifests_.deleting_images()) {
    manifests_.commit_delete(tenant, image);
    ++stats.deletes_rolled_forward;
  }
  // Recompute every refcount from the durable authority: one reference per
  // digest occurrence across live (in-progress or sealed) manifests. A
  // chunk referenced anywhere ends with refs > 0 — recovery can only park
  // or free chunks no manifest mentions.
  std::unordered_map<dedup::ChunkDigest, std::uint64_t, dedup::ChunkDigestHash>
      counts;
  for (const auto& [name, digests] : manifests_.live_manifests()) {
    (void)name;
    ++stats.live_images;
    for (const dedup::ChunkDigest& d : digests) ++counts[d];
  }
  const std::vector<dedup::ChunkDigest> zeroed = store_->rebuild_refs(counts);
  stats.chunks_zeroed = zeroed.size();
  {
    MutexLock lock(mu_);
    // A crash killed every in-flight backup with its pins; re-seed the
    // graveyard at epoch 0 so the next sweep may reclaim immediately.
    pins_by_epoch_.clear();
    graveyard_.clear();
    graveyard_.reserve(zeroed.size());
    for (const dedup::ChunkDigest& d : zeroed) {
      graveyard_.push_back(Grave{d, 0});
    }
    // Recovery scans the manifest log once and touches every store entry —
    // charged like the index's rebuild scan.
    stats.virtual_seconds =
        static_cast<double>(n_records) * costs_.manifest_append_s +
        static_cast<double>(store_->unique_chunks()) * costs_.sweep_scan_s;
    vclock_ += stats.virtual_seconds;
  }
  if (registry_ != nullptr) {
    registry_->counter("retention.recoveries_total").add(1);
  }
  publish_gauges();
  return stats;
}

std::uint64_t RetentionManager::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

std::uint64_t RetentionManager::active_pins() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [e, c] : pins_by_epoch_) {
    (void)e;
    n += c;
  }
  return n;
}

std::uint64_t RetentionManager::graveyard_size() const {
  MutexLock lock(mu_);
  return graveyard_.size();
}

double RetentionManager::virtual_seconds() const {
  MutexLock lock(mu_);
  return vclock_;
}

void RetentionManager::publish_gauges() {
  if (registry_ == nullptr) return;
  std::uint64_t epoch, pins, graves;
  {
    MutexLock lock(mu_);
    epoch = epoch_;
    graves = graveyard_.size();
    pins = 0;
    for (const auto& [e, c] : pins_by_epoch_) {
      (void)e;
      pins += c;
    }
  }
  registry_->gauge("retention.epoch").set(static_cast<double>(epoch));
  registry_->gauge("retention.pins_active").set(static_cast<double>(pins));
  registry_->gauge("retention.graveyard_chunks")
      .set(static_cast<double>(graves));
  registry_->gauge("retention.images_live")
      .set(static_cast<double>(manifests_.live_images()));
  registry_->gauge("retention.images_deleted")
      .set(static_cast<double>(manifests_.deleted_images()));
}

void publish_index_delta(obs::Registry& registry,
                         const dedup::IndexStats& before,
                         const dedup::IndexStats& after) {
  registry.counter("index.probes_total").add(after.probes - before.probes);
  registry.counter("index.inserts_total").add(after.inserts - before.inserts);
  registry.counter("index.signature_hits_total")
      .add(after.signature_hits - before.signature_hits);
  registry.counter("index.false_signature_hits_total")
      .add(after.false_signature_hits - before.false_signature_hits);
  registry.counter("index.flash_reads_total")
      .add(after.flash_reads - before.flash_reads);
  registry.counter("index.cache_hits_total")
      .add(after.cache_hits - before.cache_hits);
}

}  // namespace shredder::retention
