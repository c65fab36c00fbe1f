// Fault-injection suite for the windowed, ack-clocked backup transport
// (backup/transport.h): differential schedules of loss, reordering,
// duplication, delay and agent stalls must never change a delivered byte,
// only the accounted recovery work. Also the typed-ProtocolError negative
// tests for malformed frames, the LinkStats accounting identities and the
// per-chunk framing price.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "backup/transport.h"
#include "common/rng.h"
#include "service/service.h"

namespace shredder::backup {
namespace {

// A synthetic multi-batch backup stream with pseudo-random duplicate runs:
// the batches a server would ship, plus the bytes the agent must recreate.
struct Stream {
  std::vector<BackupAgent::ExtentBatch> batches;
  ByteVec image;
  std::unordered_map<dedup::ChunkDigest, ByteVec, dedup::ChunkDigestHash>
      chunks;  // every unique payload, keyed by digest (the repair source)
};

Stream make_stream(std::uint64_t seed, int n_batches, int chunks_per_batch) {
  SplitMix64 rng(seed);
  Stream s;
  std::vector<dedup::ChunkDigest> shipped;  // uniques in ship order
  for (int b = 0; b < n_batches; ++b) {
    BackupAgent::ExtentBatch batch;
    for (int c = 0; c < chunks_per_batch; ++c) {
      const bool dup = !shipped.empty() && rng.next_below(3) == 0;
      dedup::ChunkDigest digest;
      const ByteVec* payload = nullptr;
      bool unique = false;
      if (dup) {
        digest = shipped[rng.next_below(shipped.size())];
        payload = &s.chunks.at(digest);
      } else {
        ByteVec bytes = random_bytes(
            512 + rng.next_below(2048),
            seed * 7919 + static_cast<std::uint64_t>(b) * 131 + c);
        digest = dedup::ChunkHasher::hash(as_bytes(bytes));
        auto [it, inserted] = s.chunks.emplace(digest, std::move(bytes));
        if (inserted) shipped.push_back(digest);
        payload = &it->second;
        unique = inserted;
      }
      const auto idx = static_cast<std::uint32_t>(batch.digests.size());
      batch.digests.push_back(digest);
      if (batch.extents.empty() || batch.extents.back().unique != unique) {
        batch.extents.push_back({idx, 1, unique});
      } else {
        ++batch.extents.back().count;
      }
      if (unique) {
        batch.payload_sizes.push_back(
            static_cast<std::uint32_t>(payload->size()));
        batch.payload.insert(batch.payload.end(), payload->begin(),
                             payload->end());
      }
      s.image.insert(s.image.end(), payload->begin(), payload->end());
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

RepairSource repair_from(const Stream& s) {
  return [&s](const dedup::ChunkDigest& digest) -> std::optional<ByteVec> {
    const auto it = s.chunks.find(digest);
    if (it == s.chunks.end()) return std::nullopt;
    return it->second;
  };
}

TransportStats ship(BackupAgent& agent, const Stream& s, TransportConfig cfg,
                    bool with_repair = true) {
  Transport t(agent, cfg, with_repair ? repair_from(s) : RepairSource{});
  t.begin_image("img");
  for (const auto& batch : s.batches) t.send_batch("img", batch);
  t.end_image("img");
  t.flush();
  return t.stats();
}

// frames_sent must decompose exactly into the logical stream plus the
// recovery traffic — nothing double-charged, nothing unaccounted.
void expect_accounting(const TransportStats& ts) {
  EXPECT_EQ(ts.frames_sent,
            ts.link.messages + ts.retransmits + ts.repair_frames + ts.probes);
  EXPECT_GT(ts.acks_sent, 0u);
  EXPECT_GT(ts.virtual_seconds, 0.0);
  EXPECT_GE(ts.virtual_seconds, ts.link.virtual_seconds);
}

// --- differential fault matrix --------------------------------------------

TEST(Transport, LosslessMatchesDirectBatchStream) {
  const Stream s = make_stream(11, 6, 24);
  // Reference: an agent fed the batches directly, no wire in between.
  BackupAgent ref_agent;
  ref_agent.begin_image("img");
  for (const auto& batch : s.batches) ref_agent.receive_batch("img", batch);
  EXPECT_EQ(ref_agent.recreate("img"), s.image);

  BackupAgent agent;
  const TransportStats ts = ship(agent, s, TransportConfig{});
  EXPECT_EQ(agent.recreate("img"), s.image);
  EXPECT_TRUE(agent.image_sealed("img"));
  expect_accounting(ts);
  EXPECT_EQ(ts.retransmits, 0u);
  EXPECT_EQ(ts.rto_fires, 0u);
  EXPECT_EQ(ts.payloads_stripped, 0u);
  EXPECT_EQ(ts.repair_requests, 0u);
  EXPECT_EQ(ts.frames_dropped, 0u);
  EXPECT_FALSE(ts.degraded);
  // Both sides agree on the stream contents.
  EXPECT_EQ(agent.unique_chunks(), ref_agent.unique_chunks());
  EXPECT_EQ(agent.unique_bytes(), ref_agent.unique_bytes());
  // The logical link accounting covers every chunk exactly once, and the
  // makespan of the serialized simulation stays within the final handshake
  // of the logical serialized time.
  EXPECT_EQ(ts.link.chunks, 6u * 24u);
  EXPECT_NEAR(ts.virtual_seconds, ts.link.virtual_seconds, 1e-3);
}

TEST(Transport, FaultMatrixDeliversBitIdenticalImages) {
  const Stream s = make_stream(23, 8, 32);
  struct Schedule {
    const char* name;
    FaultModel faults;
  };
  std::vector<Schedule> schedules;
  {
    FaultModel f;
    f.drop = 0.05;
    schedules.push_back({"loss5", f});
  }
  {
    FaultModel f;
    f.drop = 0.20;
    schedules.push_back({"loss20", f});
  }
  {
    FaultModel f;
    f.reorder = 0.5;
    f.reorder_jitter_s = 500e-6;
    schedules.push_back({"reorder", f});
  }
  {
    FaultModel f;
    f.duplicate = 0.3;
    schedules.push_back({"duplicate", f});
  }
  {
    FaultModel f;
    f.delay = 0.1;
    schedules.push_back({"delay", f});
  }
  {
    FaultModel f;
    f.drop = 0.10;
    f.reorder = 0.25;
    f.duplicate = 0.10;
    f.delay = 0.05;
    f.stall = 0.10;
    schedules.push_back({"combined", f});
  }

  // Small frames force segmentation, so every schedule sees enough wire
  // messages (~100 data frames) for its fault rate to actually bite.
  TransportConfig base;
  base.max_frame_bytes = 4 * 1024;
  BackupAgent ref_agent;
  const TransportStats ref = ship(ref_agent, s, base);
  ASSERT_EQ(ref_agent.recreate("img"), s.image);

  for (const auto& schedule : schedules) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      TransportConfig cfg = base;
      cfg.faults = schedule.faults;
      cfg.faults.seed = seed;
      BackupAgent agent;
      const TransportStats ts = ship(agent, s, cfg);
      SCOPED_TRACE(std::string(schedule.name) + "/seed" +
                   std::to_string(seed));
      // The one invariant that matters: identical delivered bytes.
      EXPECT_EQ(agent.recreate("img"), s.image);
      EXPECT_TRUE(agent.image_sealed("img"));
      EXPECT_EQ(agent.pending_repairs(), 0u);
      expect_accounting(ts);
      // No double-charge: the logical stream accounting is byte-identical
      // to the lossless run no matter how much recovery traffic flowed.
      EXPECT_EQ(ts.link.messages, ref.link.messages);
      EXPECT_EQ(ts.link.extents, ref.link.extents);
      EXPECT_EQ(ts.link.chunks, ref.link.chunks);
      EXPECT_EQ(ts.link.wire_bytes, ref.link.wire_bytes);
      EXPECT_EQ(ts.link.payload_bytes, ref.link.payload_bytes);
      if (schedule.faults.drop > 0) {
        EXPECT_GT(ts.frames_dropped, 0u);
        EXPECT_GT(ts.retransmits, 0u);
        EXPECT_GT(ts.virtual_seconds, ref.virtual_seconds);
      }
      if (schedule.faults.duplicate > 0) {
        EXPECT_GT(ts.frames_duplicated, 0u);
        EXPECT_GT(ts.duplicate_frames, 0u);
      }
      if (schedule.faults.reorder > 0) {
        EXPECT_GT(ts.frames_reordered, 0u);
      }
    }
  }
}

TEST(Transport, DeterministicUnderSeed) {
  const Stream s = make_stream(31, 5, 20);
  TransportConfig cfg;
  cfg.faults.drop = 0.15;
  cfg.faults.reorder = 0.2;
  cfg.faults.seed = 77;
  BackupAgent a1, a2;
  const TransportStats t1 = ship(a1, s, cfg);
  const TransportStats t2 = ship(a2, s, cfg);
  EXPECT_EQ(t1.frames_sent, t2.frames_sent);
  EXPECT_EQ(t1.retransmits, t2.retransmits);
  EXPECT_EQ(t1.frames_dropped, t2.frames_dropped);
  EXPECT_EQ(t1.acks_sent, t2.acks_sent);
  EXPECT_DOUBLE_EQ(t1.virtual_seconds, t2.virtual_seconds);
}

// --- flow control ----------------------------------------------------------

TEST(Transport, SlowAgentBackpressuresSender) {
  const Stream s = make_stream(41, 8, 24);
  TransportConfig cfg;
  cfg.recv_frames = 2;
  cfg.window_frames = 8;
  cfg.agent_apply_bw = 5e6;  // ~13 ms to apply a 64 KiB frame
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  // The sender spent most of the run blocked on the agent's window, and the
  // health heuristic flags the agent as degraded.
  EXPECT_GT(ts.window_stalls, 0u);
  EXPECT_GT(ts.window_stall_seconds, 0.5 * ts.virtual_seconds);
  EXPECT_TRUE(ts.degraded);
  // The makespan is apply-bound, far beyond the wire-limited time.
  EXPECT_GT(ts.virtual_seconds, 2.0 * ts.link.virtual_seconds);
}

TEST(Transport, ZeroWindowPersistProbes) {
  const Stream s = make_stream(43, 6, 16);
  TransportConfig cfg;
  cfg.recv_frames = 1;  // one receive buffer: window shuts after every frame
  cfg.agent_apply_bw = 2e6;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_GT(ts.probes, 0u);
  EXPECT_GT(ts.window_stall_seconds, 0.0);
}

TEST(Transport, BoundedReorderBufferDropsHonestly) {
  const Stream s = make_stream(47, 8, 24);
  TransportConfig cfg;
  cfg.reorder_slots = 2;
  cfg.faults.reorder = 0.8;
  cfg.faults.reorder_jitter_s = 3e-3;  // far beyond a frame service time
  cfg.faults.seed = 5;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_GT(ts.out_of_order_frames, 0u);
  // With two reassembly slots under heavy reordering some arrivals found no
  // buffer and were dropped — and recovered by retransmission.
  EXPECT_GT(ts.reassembly_drops, 0u);
  EXPECT_GT(ts.retransmits, 0u);
}

// --- repair protocol -------------------------------------------------------

TEST(Transport, StrippedPayloadsRecoverViaRepair) {
  const Stream s = make_stream(53, 8, 24);
  TransportConfig cfg;
  cfg.max_payload_retx = 0;  // first payload loss strips the frame
  cfg.faults.drop = 0.30;
  cfg.faults.seed = 9;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  EXPECT_EQ(agent.pending_repairs(), 0u);
  expect_accounting(ts);
  EXPECT_GT(ts.payloads_stripped, 0u);
  EXPECT_GT(ts.repair_requests, 0u);
  EXPECT_GT(ts.repair_frames, 0u);
  EXPECT_GT(ts.repair_digests_requested, 0u);
  EXPECT_GT(ts.repair_payload_bytes, 0u);
}

TEST(Transport, NoRepairSourceNeverStrips) {
  const Stream s = make_stream(59, 6, 16);
  TransportConfig cfg;
  cfg.max_payload_retx = 0;
  cfg.faults.drop = 0.25;
  cfg.faults.seed = 3;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg, /*with_repair=*/false);
  // Without a repair source the payload must keep retransmitting — stripping
  // would lose bytes for good.
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_EQ(ts.payloads_stripped, 0u);
  EXPECT_EQ(ts.repair_requests, 0u);
  EXPECT_GT(ts.retransmits, 0u);
}

TEST(BackupAgent, StrippedBatchAndRepairFlow) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(300, 1);
  const auto b = random_bytes(200, 2);
  const auto da = dedup::ChunkHasher::hash(as_bytes(a));
  const auto db = dedup::ChunkHasher::hash(as_bytes(b));

  BackupAgent::ExtentBatch batch;
  batch.digests = {da, db, da};  // two uniques then a pointer to the first
  batch.extents = {{0, 2, true}, {2, 1, false}};
  batch.payload_sizes = {300, 200};
  const auto missing = agent.receive_stripped("img", batch);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], da);
  EXPECT_EQ(missing[1], db);
  EXPECT_EQ(agent.pending_repairs(), 2u);
  EXPECT_EQ(agent.missing_chunks("img"), missing);
  // Recreate is impossible while repairs are pending.
  try {
    agent.recreate("img");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kRecipeIncomplete);
  }
  // A corrupt repair payload must not poison the store.
  try {
    agent.receive_repair(da, as_bytes(b));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kBadRepairPayload);
  }
  EXPECT_TRUE(agent.receive_repair(da, as_bytes(a)));
  EXPECT_FALSE(agent.receive_repair(da, as_bytes(a)));  // duplicate repair
  EXPECT_TRUE(agent.receive_repair(db, as_bytes(b)));
  EXPECT_EQ(agent.pending_repairs(), 0u);
  ByteVec expect(a);
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), a.begin(), a.end());
  EXPECT_EQ(agent.recreate("img"), expect);
  // The deferred pointer reference was applied when the repair landed: all
  // three recipe entries are backed by two stored chunks.
  EXPECT_EQ(agent.unique_chunks(), 2u);
}

// --- malformed frames: typed violations ------------------------------------

ProtocolViolation catch_violation(const std::function<void()>& op) {
  try {
    op();
  } catch (const ProtocolError& e) {
    return e.violation();
  }
  ADD_FAILURE() << "expected ProtocolError";
  return ProtocolViolation::kUnknownImage;
}

TEST(BackupAgent, MalformedFramesCarryTypedViolations) {
  const auto a = random_bytes(100, 1);
  const auto digest = dedup::ChunkHasher::hash(as_bytes(a));

  BackupAgent agent;
  agent.begin_image("img");

  BackupAgent::ExtentBatch gap;
  gap.digests = {digest, digest};
  gap.extents = {{0, 1, true}};
  gap.payload_sizes = {100};
  gap.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", gap); }),
            ProtocolViolation::kBadExtentPartition);

  BackupAgent::ExtentBatch overlap;
  overlap.digests = {digest, digest};
  overlap.extents = {{0, 2, true}, {1, 1, false}};
  overlap.payload_sizes = {100, 100};
  overlap.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", overlap); }),
            ProtocolViolation::kBadExtentPartition);

  BackupAgent::ExtentBatch no_sizes;
  no_sizes.digests = {digest};
  no_sizes.extents = {{0, 1, true}};
  no_sizes.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", no_sizes); }),
            ProtocolViolation::kPayloadCountMismatch);

  BackupAgent::ExtentBatch short_payload;
  short_payload.digests = {digest};
  short_payload.extents = {{0, 1, true}};
  short_payload.payload_sizes = {64};
  short_payload.payload = a;  // 100 bytes
  EXPECT_EQ(
      catch_violation([&] { agent.receive_batch("img", short_payload); }),
      ProtocolViolation::kPayloadBytesMismatch);

  BackupAgent::ExtentBatch empty_chunk;
  empty_chunk.digests = {digest};
  empty_chunk.extents = {{0, 1, true}};
  empty_chunk.payload_sizes = {0};
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", empty_chunk); }),
            ProtocolViolation::kEmptyChunk);

  BackupAgent::ExtentBatch unknown_ptr;
  unknown_ptr.digests = {digest};
  unknown_ptr.extents = {{0, 1, false}};
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", unknown_ptr); }),
            ProtocolViolation::kUnknownPointer);

  // A stripped frame carrying payload bytes is malformed.
  BackupAgent::ExtentBatch not_stripped;
  not_stripped.digests = {digest};
  not_stripped.extents = {{0, 1, true}};
  not_stripped.payload_sizes = {100};
  not_stripped.payload = a;
  EXPECT_EQ(
      catch_violation([&] { agent.receive_stripped("img", not_stripped); }),
      ProtocolViolation::kPayloadBytesMismatch);

  EXPECT_EQ(catch_violation([&] { agent.recreate("nope"); }),
            ProtocolViolation::kUnknownImage);
  // Nothing malformed was applied: the image is still empty and usable.
  BackupAgent::ExtentBatch ok;
  ok.digests = {digest};
  ok.extents = {{0, 1, true}};
  ok.payload_sizes = {100};
  ok.payload = a;
  agent.receive_batch("img", ok);
  EXPECT_EQ(agent.recreate("img"), a);
}

// --- LinkStats accounting and the per-chunk price ---------------------------

TEST(LinkStats, MixedTrafficAccountingIsExact) {
  // One-chunk frames (what per-chunk framing ships) beside a mixed batch:
  // the logical link charges every original frame its header plus content,
  // control frames included.
  const LinkCostModel costs;
  BackupAgent agent;
  Transport t(agent, TransportConfig{});

  const auto a = random_bytes(1000, 1);
  const auto b = random_bytes(500, 2);
  const auto da = dedup::ChunkHasher::hash(as_bytes(a));
  const auto db = dedup::ChunkHasher::hash(as_bytes(b));

  std::uint64_t wire = 0;
  double seconds = 0;
  const auto msg = [&](std::size_t content) {
    wire += costs.msg_header_bytes + content;
    seconds += costs.msg_s +
               static_cast<double>(costs.msg_header_bytes + content) /
                   costs.bw;
  };

  t.begin_image("img");
  msg(3);  // "img"
  BackupAgent::ExtentBatch unique_a;
  unique_a.digests = {da};
  unique_a.extents = {{0, 1, true}};
  unique_a.payload_sizes = {static_cast<std::uint32_t>(a.size())};
  unique_a.payload = a;
  t.send_batch("img", unique_a);
  msg(sizeof(dedup::ChunkDigest) + costs.extent_record_bytes +
      sizeof(std::uint32_t) + a.size());
  BackupAgent::ExtentBatch pointer_a;
  pointer_a.digests = {da};
  pointer_a.extents = {{0, 1, false}};
  t.send_batch("img", pointer_a);
  msg(sizeof(dedup::ChunkDigest) + costs.extent_record_bytes);

  BackupAgent::ExtentBatch batch;
  batch.digests = {db, da};
  batch.extents = {{0, 1, true}, {1, 1, false}};
  batch.payload_sizes = {static_cast<std::uint32_t>(b.size())};
  batch.payload = b;
  t.send_batch("img", batch);
  msg(2 * sizeof(dedup::ChunkDigest) + 2 * costs.extent_record_bytes +
      sizeof(std::uint32_t) + b.size());
  t.end_image("img");
  msg(3 + sizeof(std::uint64_t));  // "img" + the chunk count
  t.flush();

  const LinkStats& st = t.stats().link;
  EXPECT_EQ(st.messages, 5u);
  EXPECT_EQ(st.chunks, 4u);    // 2 one-chunk frames + 2 batch entries
  EXPECT_EQ(st.extents, 4u);   // one record per run: 1 + 1 + 2
  EXPECT_EQ(st.wire_bytes, wire);
  EXPECT_EQ(st.payload_bytes, a.size() + b.size());
  EXPECT_NEAR(st.virtual_seconds, seconds, 1e-12);
  EXPECT_EQ(agent.recreate("img"), [&] {
    ByteVec e(a);
    e.insert(e.end(), a.begin(), a.end());
    e.insert(e.end(), b.begin(), b.end());
    e.insert(e.end(), a.begin(), a.end());
    return e;
  }());

  // The per-chunk price of the same four chunks: a begin message carrying
  // the id, then one message per chunk — digest, plus payload when unique.
  const LinkStats price =
      per_chunk_link_price(costs, 4, a.size() + b.size(), 3);
  const std::uint64_t price_wire = 5 * costs.msg_header_bytes + 3 +
                                   4 * sizeof(dedup::ChunkDigest) + a.size() +
                                   b.size();
  EXPECT_EQ(price.messages, 5u);
  EXPECT_EQ(price.chunks, 4u);
  EXPECT_EQ(price.extents, 0u);
  EXPECT_EQ(price.payload_bytes, a.size() + b.size());
  EXPECT_EQ(price.wire_bytes, price_wire);
  EXPECT_NEAR(price.virtual_seconds,
              5 * costs.msg_s + static_cast<double>(price_wire) / costs.bw,
              1e-15);
}

// --- end-to-end through BackupServer ---------------------------------------

BackupServerConfig faulty_server_config() {
  BackupServerConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.shredder.buffer_bytes = 512 * 1024;
  cfg.shredder.sim_threads = 4;
  return cfg;
}

TEST(BackupServer, FaultySnapshotsStayVerified) {
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 77;
  ImageRepository repo(repo_cfg);

  auto cfg = faulty_server_config();
  cfg.transport.faults.drop = 0.10;
  cfg.transport.faults.reorder = 0.20;
  cfg.transport.faults.duplicate = 0.05;
  cfg.transport.faults.seed = 13;
  BackupServer server(cfg);
  BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto s1 = server.backup_image("vm1", as_bytes(base), repo, agent);
  EXPECT_TRUE(s1.verified);
  EXPECT_GT(s1.transport.retransmits, 0u);
  EXPECT_EQ(s1.transport.frames_sent,
            s1.transport.link.messages + s1.transport.retransmits +
                s1.transport.repair_frames + s1.transport.probes);
  // Recovery work made this link stage slower than its logical stream time.
  EXPECT_GT(s1.link_seconds, s1.transport.link.virtual_seconds);

  const auto snap = repo.snapshot(0.3, 2);
  const auto s2 = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_TRUE(s2.verified);
  EXPECT_GT(s2.duplicate_chunks, 0u);
  EXPECT_EQ(agent.recreate("vm2"),
            ByteVec(snap.begin(), snap.end()));
}

TEST(BackupServer, ForcedRepairPathEndToEnd) {
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 78;
  ImageRepository repo(repo_cfg);

  auto cfg = faulty_server_config();
  cfg.transport.max_payload_retx = 0;
  cfg.transport.faults.drop = 0.30;
  cfg.transport.faults.seed = 21;
  BackupServer server(cfg);
  BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto stats = server.backup_image("vm1", as_bytes(base), repo, agent);
  EXPECT_TRUE(stats.verified);
  EXPECT_GT(stats.transport.payloads_stripped, 0u);
  EXPECT_GT(stats.transport.repair_frames, 0u);
  EXPECT_EQ(agent.pending_repairs(), 0u);
}

// --- service: per-tenant transport = one server per TransportConfig --------

TEST(BackupServer, ServiceTenantsWithOwnTransportShareOneLedger) {
  service::ServiceConfig svc_cfg;
  svc_cfg.chunker.window = 32;
  svc_cfg.chunker.mask_bits = 11;
  svc_cfg.chunker.marker = 0x42;
  svc_cfg.chunker.min_size = 512;
  svc_cfg.chunker.max_size = 8 * 1024;
  svc_cfg.buffer_bytes = 512 * 1024;
  svc_cfg.sim_threads = 4;
  auto svc = std::make_shared<service::ChunkingService>(svc_cfg);

  // A tenant's transport is its server's own TransportConfig: vm-lossy's
  // agent sits behind a 25% loss wire, vm-clean's keeps the defaults. Both
  // servers chunk on the one shared service and publish into its registry.
  auto clean_cfg = faulty_server_config();
  clean_cfg.backend = ChunkerBackend::kSharedService;
  clean_cfg.service = svc;
  auto lossy_cfg = clean_cfg;
  lossy_cfg.transport.faults.drop = 0.25;
  lossy_cfg.transport.faults.seed = 42;
  BackupServer lossy_server(lossy_cfg);
  BackupServer clean_server(clean_cfg);

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 80;
  ImageRepository repo(repo_cfg);
  BackupAgent lossy_agent;
  BackupAgent clean_agent;
  const auto snap_a = repo.snapshot(0.0, 1);
  const auto snap_b = repo.snapshot(0.5, 2);
  const auto sl = lossy_server.backup_image("vm-lossy", as_bytes(snap_a),
                                            repo, lossy_agent);
  const auto sc = clean_server.backup_image("vm-clean", as_bytes(snap_b),
                                            repo, clean_agent);
  EXPECT_TRUE(sl.verified);
  EXPECT_TRUE(sc.verified);
  EXPECT_GT(sl.transport.retransmits, 0u);
  EXPECT_TRUE(sl.link_degraded);  // 25% loss is far past the 5% threshold
  EXPECT_EQ(sc.transport.retransmits, 0u);
  EXPECT_FALSE(sc.link_degraded);
  EXPECT_EQ(lossy_agent.recreate("vm-lossy"),
            ByteVec(snap_a.begin(), snap_a.end()));
  EXPECT_EQ(clean_agent.recreate("vm-clean"),
            ByteVec(snap_b.begin(), snap_b.end()));

  // The service's registry is the one record of both snapshots' transport
  // health: one degraded run, and every retransmit the lossy one paid.
  const obs::Registry& reg = svc->registry();
  EXPECT_EQ(reg.counter_sum("backup.snapshots_total"), 2u);
  EXPECT_EQ(reg.counter_sum("backup.degraded_runs_total"), 1u);
  EXPECT_GT(reg.counter_sum("backup.retransmits_total"), 0u);
  EXPECT_EQ(reg.counter_sum("backup.retransmits_total"),
            sl.transport.retransmits);
  svc->shutdown();
}

}  // namespace
}  // namespace shredder::backup
