// Snapshot-retention suite (docs/retention.md): manifest state machine and
// typed errors, log rebuild with torn tails, the delete → GC epoch/pin
// protocol over the deferred-reclaim store, crash-consistency (kill between
// manifest write, release walk, GC sweep and compaction — recovery must
// never free a referenced chunk), the entry-log compaction differential, and
// the churn workload end-to-end through BackupServer and ChunkingService.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "chunking/cdc.h"
#include "common/rng.h"
#include "core/source.h"
#include "dedup/dedup.h"
#include "dedup/sparse_index.h"
#include "dedup/store.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "retention/manifest.h"
#include "retention/retention.h"
#include "service/service.h"

namespace shredder::retention {
namespace {

using dedup::ChunkDigest;
using dedup::ChunkStore;

ChunkDigest synth_digest(std::uint64_t seed) {
  ChunkDigest d{};
  SplitMix64 rng(seed ^ 0x5EED5EED5EED5EEDull);
  for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.next());
  return d;
}

ByteVec payload_for(std::uint64_t seed, std::size_t n = 64) {
  ByteVec v(n);
  SplitMix64 rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

RetentionViolation violation_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const RetentionError& e) {
    return e.violation();
  }
  ADD_FAILURE() << "expected a RetentionError";
  return RetentionViolation::kUnknownImage;
}

// --- ManifestStore: state machine + typed errors ---------------------------

TEST(ManifestStore, RecordAndIntrospect) {
  ManifestStore m;
  const std::vector<ChunkDigest> digests = {synth_digest(1), synth_digest(2),
                                            synth_digest(1)};
  m.record_image("t", "img", digests);
  EXPECT_EQ(m.state("t", "img"), ImageState::kSealed);
  EXPECT_EQ(m.digests("t", "img"), digests);  // order and multiplicity kept
  EXPECT_EQ(m.images("t"), std::vector<std::string>{"img"});
  EXPECT_EQ(m.live_images(), 1u);
  EXPECT_EQ(m.deleted_images(), 0u);
  // begin + 3 chunks + seal.
  EXPECT_EQ(m.record_count(), 5u);
  EXPECT_FALSE(m.state("t", "other").has_value());
}

TEST(ManifestStore, TypedErrorsCoverEveryTransition) {
  ManifestStore m;
  m.begin_image("t", "a");
  EXPECT_EQ(violation_of([&] { m.begin_image("t", "a"); }),
            RetentionViolation::kImageExists);
  EXPECT_EQ(violation_of([&] { m.append_chunk("t", "nope", synth_digest(0)); }),
            RetentionViolation::kUnknownImage);
  EXPECT_EQ(violation_of([&] { m.seal_image("t", "nope"); }),
            RetentionViolation::kUnknownImage);
  // Deleting an unsealed image is a violation (its backup is still running).
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kImageInProgress);
  m.append_chunk("t", "a", synth_digest(0));
  m.seal_image("t", "a");
  EXPECT_EQ(violation_of([&] { m.append_chunk("t", "a", synth_digest(1)); }),
            RetentionViolation::kImageSealed);
  EXPECT_EQ(violation_of([&] { m.seal_image("t", "a"); }),
            RetentionViolation::kImageSealed);
  // Delete: begin yields the walk list; a second begin (or one after commit)
  // is a double delete.
  const auto walk = m.begin_delete("t", "a");
  EXPECT_EQ(walk, std::vector<ChunkDigest>{synth_digest(0)});
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  m.commit_delete("t", "a");
  EXPECT_EQ(m.state("t", "a"), ImageState::kDeleted);
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  EXPECT_EQ(violation_of([&] { (void)m.digests("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  // A fully deleted id is reusable.
  m.begin_image("t", "a");
  EXPECT_EQ(m.state("t", "a"), ImageState::kInProgress);
}

TEST(ManifestStore, RebuildFromLogRoundTrips) {
  ManifestStore m;
  m.record_image("t", "a", {synth_digest(1), synth_digest(2)});
  m.record_image("u", "b", {synth_digest(3)});
  auto walk = m.begin_delete("t", "a");
  m.commit_delete("t", "a");
  m.begin_image("t", "c");  // unsealed at "crash" time
  m.append_chunk("t", "c", synth_digest(4));

  ManifestStore rebuilt;
  const auto deleting = rebuilt.rebuild_from_log(m.log_records());
  EXPECT_EQ(deleting, 0u);
  EXPECT_EQ(rebuilt.state("t", "a"), ImageState::kDeleted);
  EXPECT_EQ(rebuilt.state("u", "b"), ImageState::kSealed);
  EXPECT_EQ(rebuilt.digests("u", "b"), std::vector<ChunkDigest>{synth_digest(3)});
  // The torn-tail image recovers as in-progress with its chunks intact —
  // its store references stay accounted.
  EXPECT_EQ(rebuilt.state("t", "c"), ImageState::kInProgress);
  EXPECT_EQ(rebuilt.digests("t", "c"), std::vector<ChunkDigest>{synth_digest(4)});
  EXPECT_EQ(rebuilt.record_count(), m.record_count());
}

TEST(ManifestStore, RebuildToleratesTornAndImpossibleRecords) {
  ManifestStore m;
  m.record_image("t", "a", {synth_digest(1)});
  auto records = m.log_records();
  // A record for an image whose kBegin the crash ate must be skipped, not
  // fatal.
  ManifestRecord orphan;
  orphan.op = ManifestOp::kChunk;
  orphan.tenant = "t";
  orphan.image = "ghost";
  orphan.digest = synth_digest(9);
  records.push_back(orphan);
  ManifestRecord orphan_seal;
  orphan_seal.op = ManifestOp::kSeal;
  orphan_seal.tenant = "t";
  orphan_seal.image = "ghost2";
  records.push_back(orphan_seal);

  ManifestStore rebuilt;
  rebuilt.rebuild_from_log(records);
  EXPECT_EQ(rebuilt.state("t", "a"), ImageState::kSealed);
  EXPECT_FALSE(rebuilt.state("t", "ghost").has_value());
  EXPECT_FALSE(rebuilt.state("t", "ghost2").has_value());
}

TEST(ManifestStore, CompactionPurgesDeletedImages) {
  ManifestStore m;
  m.record_image("t", "keep", {synth_digest(1), synth_digest(2)});
  m.record_image("t", "drop", {synth_digest(3), synth_digest(4),
                               synth_digest(5)});
  m.begin_delete("t", "drop");
  m.commit_delete("t", "drop");
  const auto before = m.record_count();

  const auto cs = m.compact();
  EXPECT_EQ(cs.records_before, before);
  EXPECT_EQ(cs.images_purged, 1u);
  EXPECT_EQ(cs.records_after, 4u);  // keep: begin + 2 chunks + seal
  EXPECT_EQ(cs.dropped_records, before - 4u);
  EXPECT_EQ(m.record_count(), 4u);
  // The purged id reads unknown and is reusable; the survivor is untouched.
  EXPECT_FALSE(m.state("t", "drop").has_value());
  EXPECT_EQ(m.digests("t", "keep"),
            (std::vector<ChunkDigest>{synth_digest(1), synth_digest(2)}));
  // The compacted log round-trips.
  ManifestStore rebuilt;
  rebuilt.rebuild_from_log(m.log_records());
  EXPECT_EQ(rebuilt.digests("t", "keep"), m.digests("t", "keep"));
}

// --- RetentionManager: delete walk, epoch/pin GC ---------------------------

struct Rig {
  std::shared_ptr<ChunkStore> store;
  std::unique_ptr<RetentionManager> mgr;
  obs::Registry registry;

  explicit Rig(bool deferred = true) {
    store = std::make_shared<ChunkStore>(deferred);
    RetentionConfig cfg;
    cfg.registry = &registry;
    mgr = std::make_unique<RetentionManager>(store, cfg);
  }

  // Backs a synthetic image "up": store refs (put per unique occurrence,
  // add_ref per duplicate — the dedup path's invariant) + its manifest.
  void record(const std::string& image, const std::vector<ChunkDigest>& ds) {
    for (const auto& d : ds) {
      if (!store->add_ref(d)) store->put(d, as_bytes(payload_for(d.bytes[0])));
    }
    mgr->record_image("t", image, ds);
  }
};

TEST(RetentionManager, DeleteWalkReleasesOneRefPerOccurrence) {
  Rig rig;
  const auto d1 = synth_digest(1);
  const auto d2 = synth_digest(2);
  rig.record("a", {d1, d2, d1});  // d1 twice, d2 once
  rig.record("b", {d2});
  EXPECT_EQ(rig.store->ref_count(d1), 2u);
  EXPECT_EQ(rig.store->ref_count(d2), 2u);

  const auto stats = rig.mgr->delete_image("t", "a");
  EXPECT_EQ(stats.chunks_released, 3u);
  EXPECT_EQ(stats.chunks_zeroed, 1u);  // d1 hit zero; d2 lives via "b"
  EXPECT_GT(stats.bytes_zeroed, 0u);
  EXPECT_GT(stats.virtual_seconds, 0.0);
  // Deferred store: the zeroed chunk is parked, not freed, until gc().
  EXPECT_EQ(rig.store->ref_count(d1), 0u);
  EXPECT_TRUE(rig.store->contains(d1));
  EXPECT_EQ(rig.store->ref_count(d2), 1u);
  EXPECT_EQ(rig.mgr->graveyard_size(), 1u);
  EXPECT_EQ(rig.mgr->manifests().state("t", "a"), ImageState::kDeleted);
}

TEST(RetentionManager, DeleteErrorsAreTypedAndLeaveStateUntouched) {
  Rig rig;
  rig.record("a", {synth_digest(1)});
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "nope"); }),
            RetentionViolation::kUnknownImage);
  rig.mgr->manifests().begin_image("t", "open");
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "open"); }),
            RetentionViolation::kImageInProgress);
  rig.mgr->delete_image("t", "a");
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  // The failed deletes released nothing extra.
  EXPECT_EQ(rig.store->ref_count(synth_digest(1)), 0u);
  EXPECT_EQ(rig.mgr->graveyard_size(), 1u);
}

TEST(RetentionManager, GcFreesZeroedChunksOnceUnpinned) {
  Rig rig;
  rig.record("a", {synth_digest(1), synth_digest(2)});

  // A pin taken before the delete keeps its chunks sweep-proof: the pinned
  // walk may still resurrect them via add_ref.
  auto pin = rig.mgr->pin();
  rig.mgr->delete_image("t", "a");
  auto gc1 = rig.mgr->gc();
  EXPECT_EQ(gc1.chunks_freed, 0u);
  EXPECT_EQ(gc1.kept_pinned, 2u);
  EXPECT_TRUE(rig.store->contains(synth_digest(1)));

  pin.release();
  EXPECT_EQ(rig.mgr->active_pins(), 0u);
  auto gc2 = rig.mgr->gc();
  EXPECT_EQ(gc2.chunks_freed, 2u);
  EXPECT_GT(gc2.bytes_freed, 0u);
  EXPECT_GT(gc2.virtual_seconds, 0.0);
  EXPECT_FALSE(rig.store->contains(synth_digest(1)));
  EXPECT_FALSE(rig.store->contains(synth_digest(2)));
  EXPECT_EQ(rig.mgr->graveyard_size(), 0u);
  // Metrics moved.
  EXPECT_EQ(rig.registry.counter_sum("retention.gc_runs_total"), 2u);
  EXPECT_EQ(rig.registry.counter_sum("retention.chunks_freed_total"), 2u);
}

TEST(RetentionManager, SweepStaysConservativeWhilePinsOverlapTheZeroEpoch) {
  Rig rig;
  rig.record("a", {synth_digest(1)});
  rig.mgr->delete_image("t", "a");
  // Taken after the zeroing but in the same epoch: this pin could still have
  // observed (and may yet resurrect) the parked chunk, so the sweep defers
  // until it lifts — conservative by an epoch, never by correctness.
  auto pin = rig.mgr->pin();
  const auto gc = rig.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 0u);
  EXPECT_EQ(gc.kept_pinned, 1u);
  pin.release();
  EXPECT_EQ(rig.mgr->gc().chunks_freed, 1u);
}

TEST(RetentionManager, ResurrectedChunksEscapeTheGraveyard) {
  Rig rig;
  const auto d = synth_digest(1);
  rig.record("a", {d});
  rig.mgr->delete_image("t", "a");
  // A new backup dedups against the parked chunk before the sweep runs:
  // add_ref resurrects it.
  rig.record("b", {d});
  EXPECT_EQ(rig.store->ref_count(d), 1u);
  const auto gc = rig.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 0u);
  EXPECT_EQ(gc.resurrected, 1u);
  EXPECT_TRUE(rig.store->contains(d));
  EXPECT_EQ(rig.mgr->graveyard_size(), 0u);
}

TEST(RetentionManager, StoreGaugesTrackOccupancy) {
  Rig rig;
  rig.record("a", {synth_digest(1), synth_digest(2)});
  EXPECT_EQ(rig.registry.gauge("store.chunks").value(), 2.0);
  EXPECT_EQ(rig.registry.gauge("store.refs").value(), 2.0);
  rig.mgr->delete_image("t", "a");
  rig.mgr->gc();
  EXPECT_EQ(rig.registry.gauge("store.chunks").value(), 0.0);
  EXPECT_EQ(rig.registry.gauge("store.bytes").value(), 0.0);
}

// --- Crash consistency ------------------------------------------------------
// Each scenario snapshots the manifest log at the kill point, builds a fresh
// manager over the surviving store state, and recovers. The invariant under
// every kill: after recover(), a digest referenced by any live manifest is
// in the store with refs > 0, and gc() frees only unreferenced chunks.

void expect_live_manifests_intact(RetentionManager& mgr) {
  for (const auto& [key, digests] : mgr.manifests().live_manifests()) {
    for (const auto& d : digests) {
      ASSERT_TRUE(mgr.store()->contains(d)) << "manifest " << key;
      ASSERT_GT(mgr.store()->ref_count(d).value_or(0), 0u);
    }
  }
}

TEST(RetentionCrash, KillBetweenRefsAndManifestWrite) {
  // The dedup walk took its references but the crash ate the manifest seal.
  Rig rig;
  rig.record("done", {synth_digest(1)});
  rig.mgr->manifests().begin_image("t", "torn");
  rig.mgr->manifests().append_chunk("t", "torn", synth_digest(2));
  rig.store->put(synth_digest(2), as_bytes(payload_for(2)));
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;  // same store, new manager (the RAM state died)
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.live_images, 2u);  // torn image recovers as in-progress
  EXPECT_EQ(rs.deletes_rolled_forward, 0u);
  expect_live_manifests_intact(*fresh.mgr);
  // gc() after recovery frees nothing: every chunk is still referenced.
  EXPECT_EQ(fresh.mgr->gc().chunks_freed, 0u);
  EXPECT_TRUE(fresh.store->contains(synth_digest(2)));
}

TEST(RetentionCrash, KillMidReleaseWalkRollsTheDeleteForward) {
  Rig rig;
  const auto shared = synth_digest(1);
  const auto doomed = synth_digest(2);
  rig.record("keep", {shared});
  rig.record("drop", {shared, doomed});
  // Crash mid-delete: intent logged, walk half-done (one of two releases
  // landed), commit never written.
  auto walk = rig.mgr->manifests().begin_delete("t", "drop");
  ASSERT_EQ(walk.size(), 2u);
  rig.store->release_ref(walk[0]);
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.deletes_rolled_forward, 1u);
  EXPECT_EQ(rs.live_images, 1u);
  EXPECT_EQ(fresh.mgr->manifests().state("t", "drop"), ImageState::kDeleted);
  // Refcounts recomputed from the surviving manifests — the partial walk
  // neither under- nor over-releases.
  EXPECT_EQ(fresh.store->ref_count(shared), 1u);
  EXPECT_EQ(fresh.store->ref_count(doomed), 0u);
  expect_live_manifests_intact(*fresh.mgr);
  const auto gc = fresh.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 1u);  // exactly the doomed chunk
  EXPECT_TRUE(fresh.store->contains(shared));
  EXPECT_FALSE(fresh.store->contains(doomed));
}

TEST(RetentionCrash, KillMidGcSweepRecovers) {
  Rig rig;
  rig.record("keep", {synth_digest(1)});
  rig.record("drop", {synth_digest(2), synth_digest(3)});
  rig.mgr->delete_image("t", "drop");
  // Crash mid-sweep: one graveyard chunk was erased, the other survived.
  rig.store->erase(synth_digest(2));
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.chunks_zeroed, 1u);  // the unswept zombie re-enters the yard
  expect_live_manifests_intact(*fresh.mgr);
  const auto gc = fresh.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 1u);
  EXPECT_TRUE(fresh.store->contains(synth_digest(1)));
  EXPECT_FALSE(fresh.store->contains(synth_digest(3)));
}

TEST(RetentionCrash, KillDuringCompactionFallsBackToTheOldLog) {
  // Compaction swaps the log atomically; a crash before the swap leaves the
  // pre-compaction log, which must rebuild to the same live state.
  Rig rig;
  rig.record("keep", {synth_digest(1), synth_digest(2)});
  rig.record("drop", {synth_digest(3)});
  rig.mgr->delete_image("t", "drop");
  const auto old_log = rig.mgr->manifests().log_records();
  rig.mgr->manifests().compact();

  ManifestStore from_old;
  from_old.rebuild_from_log(old_log);
  ManifestStore from_new;
  from_new.rebuild_from_log(rig.mgr->manifests().log_records());
  // Both recoveries agree on every live manifest.
  EXPECT_EQ(from_old.live_manifests(), from_new.live_manifests());
  EXPECT_EQ(from_old.digests("t", "keep"), from_new.digests("t", "keep"));
}

// --- Entry-log compaction differential -------------------------------------

TEST(RetentionCompaction, IndexDecisionsBitIdenticalAgainstOracle) {
  dedup::IndexConfig cfg;
  cfg.kind = dedup::IndexKind::kSparse;
  cfg.sparse.container_entries = 64;  // several containers at test scale
  dedup::SparseChunkIndex index(cfg);

  constexpr std::uint64_t kKeys = 4000;
  std::map<std::uint64_t, dedup::ChunkLocation> oracle;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const dedup::ChunkLocation loc{k * 7, 1 + static_cast<std::uint32_t>(k % 9)};
    index.lookup_or_insert(synth_digest(k), loc);
    oracle.emplace(k, loc);
  }
  // Kill every third key, as a deleted-and-swept snapshot would.
  std::unordered_map<ChunkDigest, bool, dedup::ChunkDigestHash> live;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    live[synth_digest(k)] = (k % 3) != 0;
    if ((k % 3) == 0) oracle.erase(k);
  }

  const auto before = index.stats();
  const auto cs = index.compact(
      [&](const ChunkDigest& d, const dedup::ChunkLocation&) {
        return live.at(d);
      });
  EXPECT_EQ(cs.entries_before, kKeys);
  EXPECT_EQ(cs.dropped, kKeys - oracle.size());
  EXPECT_EQ(cs.entries_after, oracle.size());
  EXPECT_EQ(index.size(), oracle.size());
  EXPECT_GT(cs.containers_rewritten, 0u);
  EXPECT_GT(cs.virtual_seconds, 0.0);
  const auto after = index.stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_EQ(after.log_entries_dropped - before.log_entries_dropped,
            cs.dropped);

  // Differential: every live key answers exactly its oracle location, every
  // dead key misses.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto got = index.lookup(synth_digest(k));
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << "key " << k;
    if (got.has_value()) {
      EXPECT_EQ(got->store_offset, it->second.store_offset);
      EXPECT_EQ(got->size, it->second.size);
    }
  }
  // And the compacted log itself survives a restart.
  index.rebuild_from_log();
  for (const auto& [k, loc] : oracle) {
    const auto got = index.lookup(synth_digest(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(got->store_offset, loc.store_offset);
  }
}

TEST(RetentionCompaction, ManagerDrivesIndexAndManifestTogether) {
  Rig rig;
  dedup::IndexConfig cfg;
  cfg.kind = dedup::IndexKind::kSparse;
  cfg.sparse.container_entries = 32;
  dedup::SparseChunkIndex index(cfg);

  std::vector<ChunkDigest> keep_digests, drop_digests;
  for (std::uint64_t k = 0; k < 200; ++k) {
    (k % 2 ? keep_digests : drop_digests).push_back(synth_digest(k));
    index.lookup_or_insert(synth_digest(k), {k, 1});
  }
  rig.record("keep", keep_digests);
  rig.record("drop", drop_digests);
  rig.mgr->delete_image("t", "drop");
  rig.mgr->gc();  // dead chunks leave the store; their index entries go stale

  const auto cs = rig.mgr->compact_index(index);
  EXPECT_EQ(cs.index.dropped, drop_digests.size());
  EXPECT_EQ(cs.manifest.images_purged, 1u);
  EXPECT_GT(cs.virtual_seconds, 0.0);
  for (const auto& d : keep_digests) {
    EXPECT_TRUE(index.lookup(d).has_value());
  }
  for (const auto& d : drop_digests) {
    EXPECT_FALSE(index.lookup(d).has_value());
  }
  EXPECT_EQ(rig.registry.counter_sum("retention.compactions_total"), 1u);
}

// --- End-to-end churn through BackupServer ----------------------------------

backup::BackupServerConfig churn_server_config() {
  backup::BackupServerConfig c;
  c.backend = backup::ChunkerBackend::kPthreadsCpu;
  c.chunker.window = 32;
  c.chunker.mask_bits = 11;
  c.chunker.marker = 0x42;
  c.chunker.min_size = 512;
  c.chunker.max_size = 8 * 1024;
  c.shredder.buffer_bytes = 512 * 1024;
  c.cpu_threads = 4;
  c.index.kind = dedup::IndexKind::kSparse;
  c.index.sparse.container_entries = 128;
  return c;
}

TEST(RetentionEndToEnd, ChurnDeleteGcCompactThroughBackupServer) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  repo_cfg.seed = 7;
  backup::ImageRepository repo(repo_cfg);
  backup::BackupServer server(churn_server_config());
  backup::BackupAgent agent;

  // Back up 6 mostly-distinct snapshots.
  constexpr int kSnapshots = 6;
  std::vector<ByteVec> images;
  for (int i = 0; i < kSnapshots; ++i) {
    images.push_back(repo.snapshot(0.8, static_cast<std::uint64_t>(i + 1)));
    const auto stats = server.backup_image("snap" + std::to_string(i),
                                           as_bytes(images.back()), repo, agent);
    ASSERT_TRUE(stats.verified);
  }
  ASSERT_EQ(server.retention().manifests().live_images(),
            static_cast<std::uint64_t>(kSnapshots));
  const auto occ_full = server.retention().store()->occupancy();
  const auto log_full = server.index().stats().inserts;

  // Delete the odd snapshots on both sides, then sweep and compact.
  for (int i = 1; i < kSnapshots; i += 2) {
    const std::string id = "snap" + std::to_string(i);
    const auto ds = server.delete_image(id);
    EXPECT_GT(ds.chunks_released, 0u);
    EXPECT_GT(agent.delete_image(id), 0u);
  }
  const auto gc = server.gc();
  EXPECT_GT(gc.chunks_freed, 0u);
  const auto cs = server.compact_index();
  EXPECT_EQ(cs.index.dropped, gc.chunks_freed);

  // Survivors recreate bit-identically on the backup site.
  for (int i = 0; i < kSnapshots; i += 2) {
    const auto recreated = agent.recreate("snap" + std::to_string(i));
    EXPECT_EQ(recreated, images[static_cast<std::size_t>(i)]) << "snap" << i;
  }
  // The mostly-distinct churn reclaims a proportional share of the store
  // and of the entry log (the acceptance bar is enforced at bench scale;
  // here we assert the direction and rough proportion).
  const auto occ_after = server.retention().store()->occupancy();
  EXPECT_LT(occ_after.bytes, occ_full.bytes * 7 / 10);
  EXPECT_LT(cs.index.entries_after, log_full * 7 / 10);
  EXPECT_EQ(occ_after.zero_ref_chunks, 0u);

  // Deleted ids are unknown on both sides...
  EXPECT_THROW(server.delete_image("snap1"), RetentionError);
  EXPECT_THROW(agent.recreate("snap1"), backup::ProtocolError);
  // ...and every surviving manifest digest still resolves in the store.
  for (int i = 0; i < kSnapshots; i += 2) {
    for (const auto& d :
         server.retention().manifests().digests("", "snap" + std::to_string(i))) {
      EXPECT_TRUE(server.retention().store()->contains(d));
    }
  }
}

TEST(RetentionEndToEnd, SelfHealingReshipsAfterOverzealousSweep) {
  // Delete + GC everything, then back the same content up again: every index
  // hit is now stale (the chunks are gone), so the self-healing dedup path
  // must re-ship the full payload and the new backup must still verify.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 1 * 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  repo_cfg.seed = 11;
  backup::ImageRepository repo(repo_cfg);
  backup::BackupServer server(churn_server_config());
  backup::BackupAgent agent_a;
  const auto image = repo.snapshot(0.0, 1);
  const auto first = server.backup_image("v1", as_bytes(image), repo, agent_a);
  ASSERT_TRUE(first.verified);
  server.delete_image("v1");
  agent_a.delete_image("v1");
  ASSERT_GT(server.gc().chunks_freed, 0u);
  EXPECT_EQ(server.retention().store()->occupancy().chunks, 0u);

  backup::BackupAgent agent_b;
  const auto second = server.backup_image("v2", as_bytes(image), repo, agent_b);
  EXPECT_TRUE(second.verified);
  // No add_ref succeeded — every chunk re-shipped as unique.
  EXPECT_EQ(second.duplicate_chunks, 0u);
  EXPECT_EQ(second.unique_bytes, image.size());
  EXPECT_EQ(agent_b.recreate("v2"), image);
}

// --- Per-tenant deletes through ChunkingService ------------------------------

TEST(RetentionService, PerTenantImageDeleteOverSharedStore) {
  service::ServiceConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.buffer_bytes = 256 * 1024;
  cfg.sim_threads = 2;
  cfg.fingerprint_on_device = true;
  cfg.dedup_on_store = true;
  service::ChunkingService svc(cfg);
  ASSERT_NE(svc.retention(), nullptr);

  const auto shared_payload = payload_for(101, 256 * 1024);
  const auto extra_payload = payload_for(202, 128 * 1024);
  ByteVec b_payload = shared_payload;
  b_payload.insert(b_payload.end(), extra_payload.begin(), extra_payload.end());

  const auto run = [&](const std::string& name, ByteSpan data) {
    core::MemorySource source(data, cfg.host.reader_bw);
    service::TenantOptions opts;
    opts.name = name;
    opts.image_id = name + "-snap1";
    return svc.chunk_stream(source, std::move(opts));
  };
  const auto res_a = run("alice", as_bytes(shared_payload));
  const auto res_b = run("bob", as_bytes(b_payload));
  ASSERT_EQ(svc.retention()->manifests().live_images(), 2u);

  // Deleting alice's snapshot must not strand bob: their shared chunks stay
  // referenced, only alice-exclusive ones hit zero.
  const auto ds = svc.delete_image("alice", "alice-snap1");
  EXPECT_EQ(ds.chunks_released, res_a.chunks.size());
  for (const auto& d : res_b.digests) {
    ASSERT_TRUE(svc.chunk_store()->contains(d));
    EXPECT_GT(svc.chunk_store()->ref_count(d).value_or(0), 0u);
  }
  const auto gc = svc.retention()->gc();
  EXPECT_GT(gc.chunks_freed, 0u);
  // Bob's stream still reconstructs from the store after the sweep.
  ByteVec rebuilt;
  for (std::size_t i = 0; i < res_b.chunks.size(); ++i) {
    const auto bytes = svc.chunk_store()->get(res_b.digests[i]);
    ASSERT_TRUE(bytes.has_value());
    rebuilt.insert(rebuilt.end(), bytes->begin(), bytes->end());
  }
  EXPECT_EQ(rebuilt, b_payload);
  // Unknown tenant/image stays a typed error.
  EXPECT_THROW(svc.delete_image("alice", "alice-snap1"), RetentionError);
  svc.shutdown();
}

TEST(RetentionService, ReingestAfterDeleteAndGcCountsEveryChunk) {
  // Every chunk of a re-ingested, deleted and swept image is a stale index
  // hit. The report must still account for every chunk — self-healed ones
  // as unique — and count their re-stored payloads.
  service::ServiceConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.buffer_bytes = 256 * 1024;
  cfg.sim_threads = 2;
  cfg.fingerprint_on_device = true;
  cfg.dedup_on_store = true;
  service::ChunkingService svc(cfg);

  const auto payload = payload_for(303, 1024 * 1024);
  const auto run = [&](const std::string& image) {
    core::MemorySource source(as_bytes(payload), cfg.host.reader_bw);
    service::TenantOptions opts;
    opts.name = "tenant";
    opts.image_id = image;
    return svc.chunk_stream(source, std::move(opts));
  };
  const auto first = run("v1");
  svc.delete_image("tenant", "v1");
  ASSERT_EQ(svc.retention()->gc().chunks_freed, first.chunks.size());
  const auto second = run("v2");
  ASSERT_EQ(second.chunks, first.chunks);
  EXPECT_EQ(second.report.n_duplicate_chunks, 0u);
  EXPECT_EQ(second.report.n_healed_chunks, second.chunks.size());
  EXPECT_EQ(second.report.stored_bytes, payload.size());

  const auto report = svc.shutdown();
  EXPECT_EQ(report.dedup_unique_chunks + report.dedup_duplicate_chunks,
            first.chunks.size() + second.chunks.size());
  EXPECT_EQ(report.dedup_duplicate_chunks, 0u);
  EXPECT_EQ(report.dedup_stored_bytes, 2 * payload.size());
}

// --- Differential: every ingest frontend makes the same decisions ------------

// Per-snapshot decision counts of one frontend.
struct SnapshotCounts {
  std::uint64_t chunks = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t healed = 0;
  bool operator==(const SnapshotCounts&) const = default;
};

// One ingest frontend driven through the differential stream: back up a
// snapshot, delete one, sweep; then expose the store it deduplicated into.
struct Frontend {
  std::string name;
  std::function<SnapshotCounts(const std::string& id, const ByteVec& image)>
      ingest;
  std::function<void(const std::string& id)> delete_and_gc;
  std::function<const ChunkStore&()> store;
};

TEST(IngestDifferential, EveryFrontendMakesTheSameDecisions) {
  // Three snapshots of one master, with snapshot s1 deleted and swept
  // between s2 and s3. s3 then holds fresh chunks, duplicates of s2 and
  // stale index hits on s1-only chunks the sweep freed, which must self-heal.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 1024 * 1024;
  repo_cfg.segment_bytes = 32 * 1024;
  repo_cfg.seed = 23;
  backup::ImageRepository repo(repo_cfg);
  const std::vector<std::string> ids{"s1", "s2", "s3"};
  std::vector<ByteVec> images;
  for (std::uint64_t k = 1; k <= 3; ++k) images.push_back(repo.snapshot(0.5, k));

  chunking::ChunkerConfig chunker;
  chunker.window = 32;
  chunker.mask_bits = 11;
  chunker.marker = 0x42;
  chunker.min_size = 512;
  chunker.max_size = 8 * 1024;
  const rabin::RabinTables tables(chunker.window);

  // Library Deduplicator over a deferred store; the delete is a release_ref
  // walk over the snapshot's chunks, the GC a sweep of the zero-ref entries.
  dedup::Deduplicator dd(dedup::IndexConfig{},
                         std::make_shared<ChunkStore>(/*deferred_reclaim=*/true));
  std::map<std::string, std::vector<ChunkDigest>> dd_manifests;
  Frontend library{
      "Deduplicator",
      [&](const std::string& id, const ByteVec& image) {
        const auto chunks = chunking::chunk_serial(tables, chunker, as_bytes(image));
        auto digests = dedup::hash_chunks(nullptr, as_bytes(image), chunks);
        const auto st = dd.ingest(as_bytes(image), chunks, digests);
        dd_manifests[id] = std::move(digests);
        return SnapshotCounts{st.chunks_total, st.chunks_duplicate,
                              st.chunks_healed};
      },
      [&](const std::string& id) {
        for (const auto& d : dd_manifests.at(id)) dd.store().release_ref(d);
        dd.store().sweep_zero_refs();
      },
      [&]() -> const ChunkStore& { return dd.store(); }};

  const auto server_frontend = [&](const std::string& name,
                                   backup::BackupServerConfig cfg) {
    cfg.chunker = chunker;
    cfg.shredder.buffer_bytes = 256 * 1024;
    cfg.shredder.sim_threads = 2;
    cfg.cpu_threads = 2;
    auto server = std::make_shared<backup::BackupServer>(cfg);
    auto agent = std::make_shared<backup::BackupAgent>();
    return Frontend{
        name,
        [=, &repo](const std::string& id, const ByteVec& image) {
          const auto st = server->backup_image(id, as_bytes(image), repo, *agent);
          EXPECT_TRUE(st.verified) << name << " " << id;
          return SnapshotCounts{st.chunks, st.duplicate_chunks, st.healed_chunks};
        },
        [=](const std::string& id) {
          server->delete_image(id);
          agent->delete_image(id);
          server->gc();
        },
        [=]() -> const ChunkStore& { return *server->retention().store(); }};
  };
  backup::BackupServerConfig cpu_cfg;
  cpu_cfg.backend = backup::ChunkerBackend::kPthreadsCpu;
  backup::BackupServerConfig gpu_cfg;
  gpu_cfg.backend = backup::ChunkerBackend::kShredderGpu;
  gpu_cfg.fingerprint_on_device = true;

  service::ServiceConfig svc_cfg;
  svc_cfg.chunker = chunker;
  svc_cfg.buffer_bytes = 256 * 1024;
  svc_cfg.sim_threads = 2;
  svc_cfg.fingerprint_on_device = true;
  svc_cfg.dedup_on_store = true;
  service::ChunkingService svc(svc_cfg);
  Frontend inline_dedup{
      "ChunkingService",
      [&](const std::string& id, const ByteVec& image) {
        core::MemorySource source(as_bytes(image), svc_cfg.host.reader_bw);
        service::TenantOptions opts;
        opts.name = "tenant";
        opts.image_id = id;
        const auto r = svc.chunk_stream(source, std::move(opts)).report;
        return SnapshotCounts{r.n_chunks, r.n_duplicate_chunks,
                              r.n_healed_chunks};
      },
      [&](const std::string& id) {
        svc.delete_image("tenant", id);
        svc.retention()->gc();
      },
      [&]() -> const ChunkStore& { return *svc.chunk_store(); }};

  std::vector<Frontend> frontends{library,
                                  server_frontend("BackupServer/cpu", cpu_cfg),
                                  server_frontend("BackupServer/gpu", gpu_cfg),
                                  inline_dedup};
  std::vector<std::vector<SnapshotCounts>> counts(frontends.size());
  for (std::size_t f = 0; f < frontends.size(); ++f) {
    for (std::size_t k = 0; k < images.size(); ++k) {
      if (k == 2) frontends[f].delete_and_gc("s1");
      counts[f].push_back(frontends[f].ingest(ids[k], images[k]));
    }
  }

  // The stream exercises every decision: s3 has fresh chunks, duplicates
  // and self-healed stale hits, and only stale hits are healed.
  const auto& ref = counts[0];
  EXPECT_EQ(ref[0].duplicate + ref[0].healed, 0u);
  EXPECT_EQ(ref[1].healed, 0u);
  EXPECT_GT(ref[2].healed, 0u);
  EXPECT_GT(ref[2].duplicate, 0u);
  EXPECT_GT(ref[2].chunks, ref[2].duplicate + ref[2].healed);

  // Identical decisions per snapshot, and identical store contents: the
  // same digests at the same reference counts.
  std::vector<ChunkDigest> all_digests;
  for (const auto& [id, digests] : dd_manifests) {
    all_digests.insert(all_digests.end(), digests.begin(), digests.end());
  }
  const ChunkStore& ref_store = frontends[0].store();
  for (std::size_t f = 0; f < frontends.size(); ++f) {
    const auto& name = frontends[f].name;
    for (std::size_t k = 0; k < images.size(); ++k) {
      EXPECT_EQ(counts[f][k], ref[k]) << name << " " << ids[k];
    }
    const ChunkStore& store = frontends[f].store();
    EXPECT_EQ(store.unique_chunks(), ref_store.unique_chunks()) << name;
    EXPECT_EQ(store.unique_bytes(), ref_store.unique_bytes()) << name;
    EXPECT_EQ(store.total_refs(), ref_store.total_refs()) << name;
    for (const auto& d : all_digests) {
      ASSERT_EQ(store.ref_count(d), ref_store.ref_count(d)) << name;
    }
    // The surviving snapshots reassemble from the store.
    for (const std::size_t k : {1, 2}) {
      ByteVec rebuilt;
      for (const auto& d : dd_manifests.at(ids[k])) {
        const auto bytes = store.get(d);
        ASSERT_TRUE(bytes.has_value()) << name << " " << ids[k];
        rebuilt.insert(rebuilt.end(), bytes->begin(), bytes->end());
      }
      EXPECT_EQ(rebuilt, images[k]) << name << " " << ids[k];
    }
  }
  svc.shutdown();
}

}  // namespace
}  // namespace shredder::retention
