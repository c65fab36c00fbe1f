// Tests for the cloud-backup case study: image repository + similarity
// table, backup agent protocol, and the end-to-end dedup backup server.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "chunking/cdc.h"
#include "common/rng.h"
#include "service/service.h"

namespace shredder::backup {
namespace {

ImageRepoConfig small_repo_config() {
  ImageRepoConfig c;
  c.image_bytes = 4 * 1024 * 1024;
  c.segment_bytes = 256 * 1024;
  c.seed = 99;
  return c;
}

chunking::ChunkerConfig small_backup_chunker() {
  chunking::ChunkerConfig c;
  c.window = 32;
  c.mask_bits = 11;  // ~2 KB chunks for test density
  c.marker = 0x42;
  c.min_size = 512;
  c.max_size = 8 * 1024;
  return c;
}

std::shared_ptr<service::ChunkingService> make_shared_service() {
  service::ServiceConfig cfg;
  cfg.chunker = small_backup_chunker();
  cfg.buffer_bytes = 512 * 1024;
  cfg.sim_threads = 4;
  return std::make_shared<service::ChunkingService>(cfg);
}

BackupServerConfig small_server_config(ChunkerBackend backend) {
  BackupServerConfig c;
  c.backend = backend;
  c.chunker = small_backup_chunker();
  c.shredder.buffer_bytes = 512 * 1024;
  c.shredder.sim_threads = 4;
  c.cpu_threads = 4;
  if (backend == ChunkerBackend::kSharedService) {
    c.service = make_shared_service();
  }
  return c;
}

// --- ImageRepository ---

TEST(ImageRepository, SnapshotZeroProbabilityIsMaster) {
  ImageRepository repo(small_repo_config());
  const auto snap = repo.snapshot(0.0, 1);
  EXPECT_TRUE(std::equal(snap.begin(), snap.end(), repo.master().begin(),
                         repo.master().end()));
}

TEST(ImageRepository, SnapshotOneReplacesEverySegment) {
  ImageRepository repo(small_repo_config());
  const auto snap = repo.snapshot(1.0, 1);
  const auto master = repo.master();
  // Every segment must differ somewhere.
  const auto seg = small_repo_config().segment_bytes;
  for (std::uint64_t s = 0; s < repo.num_segments(); ++s) {
    const std::size_t begin = static_cast<std::size_t>(s * seg);
    const std::size_t end = std::min<std::size_t>(begin + seg, master.size());
    EXPECT_FALSE(std::equal(snap.begin() + begin, snap.begin() + end,
                            master.begin() + begin))
        << "segment " << s;
  }
}

TEST(ImageRepository, IntermediateProbabilityChangesRoughlyThatFraction) {
  ImageRepoConfig cfg = small_repo_config();
  cfg.image_bytes = 16 * 1024 * 1024;
  cfg.segment_bytes = 64 * 1024;  // 256 segments
  ImageRepository repo(cfg);
  const auto snap = repo.snapshot(0.25, 7);
  const auto master = repo.master();
  std::uint64_t changed = 0;
  for (std::uint64_t s = 0; s < repo.num_segments(); ++s) {
    const std::size_t begin = static_cast<std::size_t>(s * cfg.segment_bytes);
    const std::size_t end =
        std::min<std::size_t>(begin + cfg.segment_bytes, master.size());
    changed += !std::equal(snap.begin() + begin, snap.begin() + end,
                           master.begin() + begin);
  }
  const double frac =
      static_cast<double>(changed) / static_cast<double>(repo.num_segments());
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.35);
}

TEST(ImageRepository, SnapshotsDeterministicPerId) {
  ImageRepository repo(small_repo_config());
  EXPECT_EQ(repo.snapshot(0.3, 5), repo.snapshot(0.3, 5));
  EXPECT_NE(repo.snapshot(0.3, 5), repo.snapshot(0.3, 6));
}

TEST(ImageRepository, GenerationRate) {
  ImageRepository repo(small_repo_config());
  // 10 Gb/s == 1.25 GB/s.
  EXPECT_NEAR(repo.generation_seconds(1250000000ull), 1.0, 1e-9);
}

TEST(ImageRepository, Validation) {
  ImageRepoConfig bad = small_repo_config();
  bad.segment_bytes = 0;
  EXPECT_THROW(ImageRepository{bad}, std::invalid_argument);
  bad = small_repo_config();
  bad.segment_bytes = bad.image_bytes * 2;
  EXPECT_THROW(ImageRepository{bad}, std::invalid_argument);
  ImageRepository repo(small_repo_config());
  EXPECT_THROW(repo.snapshot(-0.1, 0), std::invalid_argument);
}

// --- BackupAgent protocol ---

TEST(BackupAgent, StoresAndRecreates) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(100, 1);
  const auto b = random_bytes(50, 2);
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), a});
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(b)), b});
  // Duplicate chunk as pointer.
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), {}});
  const auto out = agent.recreate("img");
  ByteVec expect(a);
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), a.begin(), a.end());
  EXPECT_EQ(out, expect);
  EXPECT_EQ(agent.unique_chunks(), 2u);
}

TEST(BackupAgent, PointerToUnknownChunkThrows) {
  BackupAgent agent;
  agent.begin_image("img");
  EXPECT_THROW(
      agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(random_bytes(8, 3))), {}}),
      std::invalid_argument);
}

TEST(BackupAgent, UnknownImageThrows) {
  BackupAgent agent;
  EXPECT_THROW(agent.recreate("nope"), std::invalid_argument);
  const auto a = random_bytes(8, 4);
  EXPECT_THROW(agent.receive("nope", {dedup::ChunkHasher::hash(as_bytes(a)), a}),
               std::invalid_argument);
}

TEST(BackupAgent, BeginImageIdempotentWhileOpen) {
  // A retransmitted begin control frame must neither duplicate nor reset an
  // in-progress recipe; only re-opening a *sealed* image is a violation.
  BackupAgent agent;
  EXPECT_TRUE(agent.begin_image("img"));
  const auto a = random_bytes(100, 1);
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), a});
  EXPECT_FALSE(agent.begin_image("img"));  // no-op re-open
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), {}});
  EXPECT_EQ(agent.recreate("img").size(), 200u);  // recipe survived intact
  agent.end_image("img", 2);
  EXPECT_TRUE(agent.image_sealed("img"));
  agent.end_image("img", 2);  // sealing twice is harmless
  try {
    agent.begin_image("img");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kDuplicateImage);
  }
}

TEST(BackupAgent, EndImageValidatesRecipeLength) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(64, 9);
  agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), a});
  try {
    agent.end_image("img", 5);  // truncated stream: only 1 chunk arrived
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kRecipeLengthMismatch);
  }
  agent.end_image("img", 1);
  // Data after the seal is a violation too.
  try {
    agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), {}});
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kSealedImage);
  }
}

// --- BackupServer end-to-end ---

class BackupBackends : public ::testing::TestWithParam<ChunkerBackend> {};

TEST_P(BackupBackends, FirstBackupAllUniqueAndVerified) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(GetParam()));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  const auto stats = server.backup_image("vm1", as_bytes(snap), repo, agent);
  EXPECT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(stats.unique_bytes, snap.size());
  EXPECT_GT(stats.backup_bandwidth_gbps, 0.0);
}

TEST_P(BackupBackends, SecondIdenticalSnapshotFullyDeduplicated) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(GetParam()));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  server.backup_image("vm1", as_bytes(snap), repo, agent);
  const auto stats = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, stats.chunks);
  EXPECT_EQ(stats.unique_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackupBackends,
                         ::testing::Values(ChunkerBackend::kShredderGpu,
                                           ChunkerBackend::kPthreadsCpu,
                                           ChunkerBackend::kSharedService));

// --- CPU backend: chunk hashing on the chunker's pool ---

TEST(BackupServer, CpuPoolHashingIndependentOfThreadCount) {
  // The CPU backend hashes chunks across its chunker's pool before the
  // serial dedup walk; the walk must see exactly what a one-thread run and
  // a serial ChunkHasher over chunk_serial see.
  ImageRepoConfig repo_cfg = small_repo_config();
  repo_cfg.segment_bytes = 64 * 1024;
  ImageRepository repo(repo_cfg);
  const auto snap1 = repo.snapshot(0.0, 1);
  const auto snap2 = repo.snapshot(0.3, 2);

  struct Run {
    std::vector<BackupRunStats> stats;
    std::vector<std::vector<dedup::ChunkDigest>> manifests;
  };
  const auto run = [&](std::size_t threads) {
    BackupServerConfig cfg = small_server_config(ChunkerBackend::kPthreadsCpu);
    cfg.cpu_threads = threads;
    BackupServer server(cfg);
    BackupAgent agent;
    Run r;
    r.stats.push_back(server.backup_image("vm1", as_bytes(snap1), repo, agent));
    r.stats.push_back(server.backup_image("vm2", as_bytes(snap2), repo, agent));
    for (const char* id : {"vm1", "vm2"}) {
      r.manifests.push_back(server.retention().manifests().digests("", id));
    }
    return r;
  };
  const Run one = run(1);
  const Run four = run(4);

  const rabin::RabinTables tables(small_backup_chunker().window);
  const std::vector<ByteVec> snaps = {snap1, snap2};
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    std::vector<dedup::ChunkDigest> serial;
    for (const auto& c : chunking::chunk_serial(tables, small_backup_chunker(),
                                                as_bytes(snaps[i]))) {
      serial.push_back(dedup::ChunkHasher::hash(
          ByteSpan(snaps[i]).subspan(static_cast<std::size_t>(c.offset),
                                     static_cast<std::size_t>(c.size))));
    }
    EXPECT_EQ(one.manifests[i], serial) << "snapshot " << i;
    EXPECT_EQ(four.manifests[i], serial) << "snapshot " << i;

    const BackupRunStats& a = one.stats[i];
    const BackupRunStats& b = four.stats[i];
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.chunks, serial.size());
    EXPECT_EQ(a.duplicate_chunks, b.duplicate_chunks);
    EXPECT_EQ(a.unique_bytes, b.unique_bytes);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.generation_seconds, b.generation_seconds);
    EXPECT_EQ(a.chunking_seconds, b.chunking_seconds);
    EXPECT_EQ(a.hashing_seconds, b.hashing_seconds);
    EXPECT_EQ(a.index_seconds, b.index_seconds);
    EXPECT_EQ(a.link_seconds, b.link_seconds);
    EXPECT_EQ(a.index_transfer_seconds, b.index_transfer_seconds);
    EXPECT_EQ(a.virtual_seconds, b.virtual_seconds);
  }
  // The second snapshot shares most segments with the first, so the walk
  // really made both kinds of decision.
  EXPECT_GT(one.stats[1].duplicate_chunks, 0u);
  EXPECT_LT(one.stats[1].unique_bytes, snap2.size());
  EXPECT_GT(one.stats[1].unique_bytes, 0u);
}

// --- Shared-service backend ---

TEST(BackupServer, SharedServiceMatchesDedicatedGpu) {
  // Routing the chunker through the multi-tenant service must not change a
  // single byte of the backup stream: same chunk counts, same dedup result.
  ImageRepository repo(small_repo_config());
  BackupServer gpu_server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupServer svc_server(small_server_config(ChunkerBackend::kSharedService));
  BackupAgent agent_a, agent_b;
  for (int step = 0; step < 2; ++step) {
    const auto snap = repo.snapshot(step * 0.1, step + 1);
    std::string id = "vm";
    id += std::to_string(step);
    const auto ga = gpu_server.backup_image(id, as_bytes(snap), repo, agent_a);
    const auto gb = svc_server.backup_image(id, as_bytes(snap), repo, agent_b);
    EXPECT_TRUE(ga.verified);
    EXPECT_TRUE(gb.verified);
    EXPECT_EQ(ga.chunks, gb.chunks);
    EXPECT_EQ(ga.duplicate_chunks, gb.duplicate_chunks);
    EXPECT_EQ(ga.unique_bytes, gb.unique_bytes);
    EXPECT_GT(gb.chunking_seconds, 0.0);
  }
  EXPECT_EQ(agent_a.unique_bytes(), agent_b.unique_bytes());
}

TEST(BackupServer, ConcurrentSnapshotsThroughOneDevice) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kSharedService));
  BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto similar = repo.snapshot(0.10, 2);
  std::vector<BackupServer::SnapshotJob> jobs;
  jobs.push_back({"vm1", as_bytes(base)});
  jobs.push_back({"vm2", as_bytes(similar)});
  jobs.push_back({"vm3", as_bytes(base)});  // identical to vm1
  const auto stats = server.backup_images(jobs, repo, agent);
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) EXPECT_TRUE(s.verified);
  EXPECT_EQ(stats[0].duplicate_chunks, 0u);
  // vm3 is byte-identical to vm1: everything deduplicates.
  EXPECT_EQ(stats[2].duplicate_chunks, stats[2].chunks);
  EXPECT_EQ(stats[2].unique_bytes, 0u);
  // vm2 shares most content with vm1.
  EXPECT_LT(stats[1].unique_bytes, stats[1].bytes / 2);
  // The shared service stays usable for the next batch.
  const auto again =
      server.backup_image("vm4", as_bytes(similar), repo, agent);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.duplicate_chunks, again.chunks);
}

TEST(BackupServer, SharedServiceConfigValidation) {
  auto cfg = small_server_config(ChunkerBackend::kSharedService);
  cfg.service = nullptr;
  EXPECT_THROW(BackupServer{cfg}, std::invalid_argument);
  cfg = small_server_config(ChunkerBackend::kSharedService);
  cfg.chunker.mask_bits = 9;  // diverges from the service's chunker
  EXPECT_THROW(BackupServer{cfg}, std::invalid_argument);
}

TEST(BackupServer, MinMaxChunkSizesRespected) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.1, 1);
  server.backup_image("vm1", as_bytes(snap), repo, agent);
  // Recreate and re-chunk to check sizes; simpler: rely on config and check
  // chunk count bounds: chunks >= bytes/max and <= bytes/min + 1.
  const auto& cfg = server.config().chunker;
  const auto stats = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_GE(stats.chunks, snap.size() / cfg.max_size);
  EXPECT_LE(stats.chunks, snap.size() / cfg.min_size + 1);
}

TEST(BackupServer, SimilarSnapshotMostlyDeduplicated) {
  // 64 segments so a 10% change probability deterministically hits several.
  ImageRepoConfig repo_cfg = small_repo_config();
  repo_cfg.segment_bytes = 64 * 1024;
  ImageRepository repo(repo_cfg);
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  server.backup_image("vm1", as_bytes(repo.snapshot(0.0, 1)), repo, agent);
  const auto snap2 = repo.snapshot(0.10, 2);
  const auto stats = server.backup_image("vm2", as_bytes(snap2), repo, agent);
  EXPECT_TRUE(stats.verified);
  const double unique_frac = static_cast<double>(stats.unique_bytes) /
                             static_cast<double>(stats.bytes);
  EXPECT_GT(unique_frac, 0.03);
  EXPECT_LT(unique_frac, 0.30);
}

TEST(BackupServer, GpuBeatsCpuBandwidth) {
  // The Figure 18 headline: Shredder raises backup bandwidth ~2.5x because
  // the CPU baseline is chunking-bound.
  ImageRepository repo(small_repo_config());
  BackupServer gpu_server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupServer cpu_server(small_server_config(ChunkerBackend::kPthreadsCpu));
  BackupAgent agent_a, agent_b;
  const auto base = repo.snapshot(0.0, 1);
  gpu_server.backup_image("vm1", as_bytes(base), repo, agent_a);
  cpu_server.backup_image("vm1", as_bytes(base), repo, agent_b);
  const auto snap = repo.snapshot(0.10, 2);
  const auto gpu_stats = gpu_server.backup_image("vm2", as_bytes(snap), repo, agent_a);
  const auto cpu_stats = cpu_server.backup_image("vm2", as_bytes(snap), repo, agent_b);
  // At this test scale (4 MB image, 2 KB chunks) the index stage is twice as
  // expensive per byte as the paper's 4 KB configuration and pipeline
  // startup penalizes the GPU path, so the margin is below the ~2.5x of
  // Fig 18 (the full-scale bench reproduces that number).
  EXPECT_GT(gpu_stats.backup_bandwidth_gbps,
            1.4 * cpu_stats.backup_bandwidth_gbps);
}

TEST(BackupServer, BandwidthDecreasesWithDissimilarity) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  server.backup_image("base", as_bytes(repo.snapshot(0.0, 1)), repo, agent);
  const auto low = server.backup_image(
      "low", as_bytes(repo.snapshot(0.05, 2)), repo, agent);
  const auto high = server.backup_image(
      "high", as_bytes(repo.snapshot(0.60, 3)), repo, agent);
  EXPECT_GT(low.backup_bandwidth_gbps, high.backup_bandwidth_gbps);
}

// --- Sparse fingerprint index (docs/dedup_index.md) ---

TEST(BackupServer, SparseIndexMatchesBaselineAcrossSimilarity) {
  // The low-similarity regression sweep: 0% / 50% / 100% duplicate
  // snapshots through two servers differing only in IndexKind. The sparse
  // index must (a) make bit-identical dedup decisions and (b) never back up
  // slower than the baseline at any similarity point.
  ImageRepoConfig repo_cfg = small_repo_config();
  repo_cfg.segment_bytes = 64 * 1024;  // enough segments for 50% to bite
  ImageRepository repo(repo_cfg);

  auto cfg_with = [&](dedup::IndexKind kind) {
    auto c = small_server_config(ChunkerBackend::kShredderGpu);
    c.index.kind = kind;
    return c;
  };
  BackupServer baseline(cfg_with(dedup::IndexKind::kPaperBaseline));
  BackupServer sparse(cfg_with(dedup::IndexKind::kSparse));
  BackupAgent agent_a, agent_b;

  const auto base = repo.snapshot(0.0, 1);
  // change_probability 1.0 / 0.5 / 0.0 => ~0% / ~50% / 100% duplicates.
  const double change_probs[] = {1.0, 0.5, 0.0};
  std::uint64_t step = 0;
  for (const double p : change_probs) {
    if (step == 0) {
      baseline.backup_image("base", as_bytes(base), repo, agent_a);
      sparse.backup_image("base", as_bytes(base), repo, agent_b);
    }
    const auto snap = repo.snapshot(p, 100 + step);
    std::string id = "snap" + std::to_string(step++);
    const auto sb = baseline.backup_image(id, as_bytes(snap), repo, agent_a);
    const auto ss = sparse.backup_image(id, as_bytes(snap), repo, agent_b);
    ASSERT_TRUE(sb.verified);
    ASSERT_TRUE(ss.verified);
    // Bit-identical dedup decisions.
    EXPECT_EQ(ss.chunks, sb.chunks) << "p=" << p;
    EXPECT_EQ(ss.duplicate_chunks, sb.duplicate_chunks) << "p=" << p;
    EXPECT_EQ(ss.unique_bytes, sb.unique_bytes) << "p=" << p;
    // The sparse probe path is never the slower one.
    EXPECT_GE(ss.backup_bandwidth_gbps, sb.backup_bandwidth_gbps) << "p=" << p;
    EXPECT_LE(ss.index_seconds, sb.index_seconds) << "p=" << p;
    EXPECT_EQ(ss.index_kind, dedup::IndexKind::kSparse);
    EXPECT_EQ(sb.index_kind, dedup::IndexKind::kPaperBaseline);
  }
  // Identical backup streams reached both agents.
  EXPECT_EQ(agent_a.unique_bytes(), agent_b.unique_bytes());
  EXPECT_EQ(agent_a.unique_chunks(), agent_b.unique_chunks());
  EXPECT_EQ(baseline.index().size(), sparse.index().size());
}

TEST(BackupServer, SparseIndexDuplicateRunsHitThePrefetchCache) {
  // A fully duplicate snapshot probes the index in the same order the base
  // snapshot inserted it, so the sparse backend should serve almost every
  // probe from a prefetched container instead of the modelled flash.
  ImageRepository repo(small_repo_config());
  auto cfg = small_server_config(ChunkerBackend::kShredderGpu);
  cfg.index.kind = dedup::IndexKind::kSparse;
  cfg.index.sparse.container_entries = 64;
  BackupServer server(cfg);
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  server.backup_image("base", as_bytes(snap), repo, agent);
  const auto stats = server.backup_image("dup", as_bytes(snap), repo, agent);
  ASSERT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, stats.chunks);
  EXPECT_GT(stats.index_cache_hits, 0u);
  // One flash read per sealed container (plus alias noise), far fewer than
  // one per chunk.
  EXPECT_LT(stats.index_flash_reads,
            stats.chunks / 8 + cfg.index.sparse.container_entries);
}

TEST(BackupAgent, CatalogKnobKeepsProtocolExact) {
  // The agent-side catalog index behaves identically under both kinds.
  for (const auto kind :
       {dedup::IndexKind::kPaperBaseline, dedup::IndexKind::kSparse}) {
    dedup::IndexConfig cfg;
    cfg.kind = kind;
    BackupAgent agent(cfg);
    agent.begin_image("img");
    const auto a = random_bytes(100, 1);
    agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), a});
    agent.receive("img", {dedup::ChunkHasher::hash(as_bytes(a)), {}});
    EXPECT_THROW(
        agent.receive(
            "img", {dedup::ChunkHasher::hash(as_bytes(random_bytes(8, 2))), {}}),
        std::invalid_argument);
    ByteVec expect(a);
    expect.insert(expect.end(), a.begin(), a.end());
    EXPECT_EQ(agent.recreate("img"), expect);
    EXPECT_GT(agent.catalog_seconds(), 0.0);
    EXPECT_EQ(agent.catalog().kind(), kind);
  }
}

}  // namespace
}  // namespace shredder::backup
