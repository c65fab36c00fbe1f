#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "backup/transport.h"
#include "chunking/cdc.h"
#include "chunking/parallel.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "core/sink.h"
#include "dedup/digest.h"
#include "dedup/index.h"
#include "dedup/store.h"
#include "obs/registry.h"
#include "rabin/rabin.h"
#include "service/service.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace shredder;
using Clock = std::chrono::steady_clock;
using DigestSet = std::unordered_set<dedup::ChunkDigest, dedup::ChunkDigestHash>;

constexpr double kMB = 1e6;
// Repetitions per run: at least kMinReps even when one repetition outlasts
// --seconds, at most kMaxReps however fast they are.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 256;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // KiB on Linux
}

// --- Operation ledger -------------------------------------------------------
//
// Every operation (snapshot backup, restore, tenant stream, delete/gc/
// compact call, chunked stream) is opened here and counted as attempted;
// it fails when any gate check on it fails or it throws.
class Ledger {
 public:
  using OpId = std::size_t;

  OpId open(std::string name) {
    ops_.push_back({std::move(name), false});
    ++attempted;
    return ops_.size() - 1;
  }

  void check(OpId op, const char* gate, bool ok,
             const std::string& detail = {}) {
    auto& g = gates[gate];
    ++g.checks;
    if (ok) return;
    ++g.failures;
    fail(op, std::string("[") + gate + "] " + detail);
  }

  // Virtual-time outputs of an operation must equal, bit for bit, those of
  // the same-named operation in the first repetition.
  void repeats_exactly(OpId op, const std::vector<double>& values) {
    const auto [it, first] = reference_.try_emplace(ops_[op].name, values);
    const bool same = first || bit_equal(it->second, values);
    std::string detail;
    for (std::size_t i = 0; !same && i < values.size(); ++i) {
      if (i >= it->second.size() || values[i] != it->second[i]) {
        detail = "output " + std::to_string(i) + " = " + json_number(values[i]) +
                 ", first repetition had " +
                 (i < it->second.size() ? json_number(it->second[i]) : "none");
        break;
      }
    }
    check(op, "virtual_repeats_exactly", same, detail);
  }

  // An exception escaped a repetition: the operation in flight failed.
  void fail_in_flight(const std::string& why) {
    if (ops_.empty()) open("set-up");
    fail(ops_.size() - 1, why);
  }

  std::map<std::string, GateResult> gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

 private:
  struct OpState {
    std::string name;
    bool failed = false;
  };

  void fail(OpId op, const std::string& why) {
    if (!ops_[op].failed) {
      ops_[op].failed = true;
      ++failed;
    }
    if (failures.size() < 20) failures.push_back(ops_[op].name + ": " + why);
  }

  std::vector<OpState> ops_;
  std::map<std::string, std::vector<double>> reference_;
};

// --- Tracing state of one traced repetition ---------------------------------

struct Trace {
  SpanRecorder rep_spans{true};     // calls made by the workload itself
  SpanRecorder replay_spans{true};  // the layer-by-layer replay
  obs::Registry registry;           // counts, via the public configs
  std::map<std::string, double> layer;  // per-layer values not from spans
  std::vector<std::string> notes;
};

SpanRecorder& rep_spans(Trace* trace) {
  static SpanRecorder off(false);
  return trace != nullptr ? trace->rep_spans : off;
}

double timing_sum(const obs::Registry& reg, const std::string& name,
                  const std::string& stage = {}) {
  double sum = 0;
  for (const auto& m : reg.snapshot()) {
    if (m.name != name || m.type != obs::MetricSample::Type::kTiming) continue;
    if (!stage.empty()) {
      const bool match = std::any_of(
          m.labels.begin(), m.labels.end(),
          [&](const auto& kv) { return kv.first == "stage" && kv.second == stage; });
      if (!match) continue;
    }
    sum += m.summary.sum();
  }
  return sum;
}

// Core pipeline counts and virtual stage totals, from the registry the
// pipeline publishes into.
void core_layer_values(const obs::Registry& reg,
                       std::map<std::string, double>& layer) {
  layer["core.buffers"] =
      static_cast<double>(reg.counter_sum("pipeline.buffers_total"));
  layer["core.virtual_h2d_s"] = timing_sum(reg, "pipeline.stage_seconds", "h2d");
  layer["core.virtual_kernel_s"] =
      timing_sum(reg, "pipeline.stage_seconds", "kernel");
  layer["core.virtual_fingerprint_s"] =
      timing_sum(reg, "pipeline.stage_seconds", "fingerprint");
  layer["core.virtual_d2h_s"] = timing_sum(reg, "core.store_seconds");
}

void index_layer_values(const obs::Registry& reg,
                        std::map<std::string, double>& layer) {
  layer["dedup.index_probes"] =
      static_cast<double>(reg.counter_sum("index.probes_total"));
  layer["dedup.index_flash_reads"] =
      static_cast<double>(reg.counter_sum("index.flash_reads_total"));
  layer["dedup.index_cache_hits"] =
      static_cast<double>(reg.counter_sum("index.cache_hits_total"));
}

// --- Oracles ------------------------------------------------------------------

struct ChunkedImage {
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
};

ByteSpan chunk_bytes(ByteSpan data, const chunking::Chunk& c) {
  return data.subspan(static_cast<std::size_t>(c.offset),
                      static_cast<std::size_t>(c.size));
}

// Serial chunking plus host SHA-256: what every backend must reproduce.
ChunkedImage chunk_oracle(const chunking::ChunkerConfig& config,
                          ByteSpan data, bool hash) {
  const rabin::RabinTables tables(config.window);
  ChunkedImage out;
  out.chunks = chunking::chunk_serial(tables, config, data);
  if (hash) {
    out.digests.reserve(out.chunks.size());
    for (const auto& c : out.chunks) {
      out.digests.push_back(dedup::Sha256::hash(chunk_bytes(data, c)));
    }
  }
  return out;
}

struct DedupExpect {
  std::uint64_t chunks = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unique_bytes = 0;
};

// Exact dedup accounting of images ingested in order into one empty index.
std::vector<DedupExpect> expect_dedup(const std::vector<ChunkedImage>& images) {
  DigestSet seen;
  std::vector<DedupExpect> out;
  for (const auto& img : images) {
    DedupExpect e;
    e.chunks = img.chunks.size();
    for (std::size_t i = 0; i < img.chunks.size(); ++i) {
      if (seen.insert(img.digests[i]).second) {
        e.unique_bytes += img.chunks[i].size;
      } else {
        ++e.duplicates;
      }
    }
    out.push_back(e);
  }
  return out;
}

// --- Repetition result and workload interface --------------------------------

struct Rep {
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t timed_bytes = 0;
  double restore_s = 0;
  std::uint64_t restore_bytes = 0;  // 0: the workload has no read path
  double virtual_gbps = 0;
  double stored_per_user_byte = -1;  // < 0: the workload has no store
  std::uint64_t unique_chunks = 0;
  std::uint64_t duplicate_chunks = 0;

  double host_mbps() const {
    return timed_s > 0 ? static_cast<double>(timed_bytes) / timed_s / kMB : 0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One repetition: set-up, timed phase, restore; outputs checked outside
  // the clock. `trace` is null for untraced repetitions.
  virtual Rep rep(Ledger& ledger, Trace* trace) = 0;
  // Drives the generated inputs through each layer's entry points with a
  // span around every call; its dedup decisions must equal `reference`'s.
  virtual void replay(Ledger& ledger, Trace& trace, const Rep& reference) = 0;
};

// Counts what a chunk-only consumer sees (the inchdfs shape).
class CountingSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    chunks += batch.chunks.size();
    for (const auto& c : batch.chunks) bytes += c.size;
  }
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
};

// Records the drained-buffer batch structure the backup wire ships at.
class BatchEnds final : public ChunkSink {
 public:
  explicit BatchEnds(std::vector<std::size_t>& ends) : ends_(ends) {}
  void on_batch(const ChunkBatchView& batch) override {
    total_ += batch.chunks.size();
    if (!batch.chunks.empty()) ends_.push_back(total_);
  }

 private:
  std::vector<std::size_t>& ends_;
  std::size_t total_ = 0;
};

// --- Backup workloads (backup_incremental, backup_churn) ----------------------

// Both backup workloads back a base image (the master) up during set-up,
// which seeds the index and the store; the timed phase then backs up
// `snapshots` changed snapshots.
struct BackupShape {
  bool churn = false;
  backup::ImageRepoConfig repo;
  double change = 0;
  int snapshots = 0;
  backup::BackupServerConfig server;
};

// backup_incremental: the fig18 line-rate configuration. The timed phase
// backs up snapshots at 10% segment change; then every image is restored.
BackupShape incremental_shape(std::uint64_t seed) {
  BackupShape s;
  s.repo.image_bytes = 32ull << 20;
  s.repo.segment_bytes = 1ull << 20;
  s.repo.seed = seed;
  s.change = 0.10;
  s.snapshots = 4;
  s.server.backend = backup::ChunkerBackend::kShredderGpu;
  s.server.fingerprint_on_device = true;
  s.server.index.kind = dedup::IndexKind::kSparse;
  s.server.shredder.buffer_bytes = 4ull << 20;
  // Chunker: the BackupServerConfig default, ~4 KB chunks within 2-16 KB.
  return s;
}

// backup_churn: the retention churn workload. Host SHA-256 (CPU chunker),
// ~2 KB chunks, 95% change. The timed phase backs up the snapshots, deletes
// every other one on server and agent, then runs gc() and compact_index();
// the base and the surviving snapshots are then restored.
BackupShape churn_shape(std::uint64_t seed) {
  BackupShape s;
  s.churn = true;
  s.repo.image_bytes = 16ull << 20;
  s.repo.segment_bytes = 512ull << 10;
  s.repo.seed = seed;
  s.change = 0.95;
  s.snapshots = 6;
  s.server.backend = backup::ChunkerBackend::kPthreadsCpu;
  s.server.cpu_threads = 4;
  s.server.chunker.window = 48;
  s.server.chunker.mask_bits = 11;
  s.server.chunker.marker = 0x78;
  s.server.chunker.min_size = 1024;
  s.server.chunker.max_size = 8 * 1024;
  s.server.index.kind = dedup::IndexKind::kSparse;
  s.server.shredder.buffer_bytes = 4ull << 20;  // wire batch granularity
  return s;
}

class BackupWorkload final : public Workload {
 public:
  BackupWorkload(BackupShape shape)
      : shape_(std::move(shape)), repo_(shape_.repo) {
    ids_.push_back("base");
    images_.push_back(repo_.snapshot(0.0, 0));
    for (int i = 1; i <= shape_.snapshots; ++i) {
      ids_.push_back("snap" + std::to_string(i));
      images_.push_back(repo_.snapshot(shape_.change, i));
    }
    for (const auto& img : images_) {
      oracle_.push_back(chunk_oracle(shape_.server.chunker, as_bytes(img),
                                     /*hash=*/true));
    }
    expect_ = expect_dedup(oracle_);
    // Churn deletes every other snapshot: snap1, snap3, ...
    live_.assign(images_.size(), true);
    if (shape_.churn) {
      for (std::size_t i = 1; i < images_.size(); i += 2) live_[i] = false;
    }
    for (std::size_t i = 0; i < images_.size(); ++i) {
      if (live_[i]) {
        survivors_.insert(oracle_[i].digests.begin(), oracle_[i].digests.end());
      }
    }
    for (std::size_t i = 0; i < images_.size(); ++i) {
      if (live_[i]) continue;
      for (const auto& d : oracle_[i].digests) {
        if (survivors_.count(d) == 0) dead_.insert(d);
      }
    }
  }

  Rep rep(Ledger& ledger, Trace* trace) override;
  void replay(Ledger& ledger, Trace& trace, const Rep& reference) override;

 private:
  BackupShape shape_;
  backup::ImageRepository repo_;
  std::vector<std::string> ids_;
  std::vector<ByteVec> images_;  // backup order
  std::vector<ChunkedImage> oracle_;
  std::vector<DedupExpect> expect_;
  std::vector<bool> live_;  // after the timed phase
  DigestSet survivors_;     // digests of images that stay live
  DigestSet dead_;          // digests only deleted images referenced
};

Rep BackupWorkload::rep(Ledger& ledger, Trace* trace) {
  SpanRecorder& spans = rep_spans(trace);
  const std::uint64_t op = spans.new_op();
  Rep r;
  std::vector<backup::BackupRunStats> stats(images_.size());

  const auto setup_start = Clock::now();
  auto store = std::make_shared<dedup::ChunkStore>(/*deferred_reclaim=*/true);
  backup::BackupServerConfig cfg = shape_.server;
  cfg.store = store;
  cfg.registry = trace != nullptr ? &trace->registry : nullptr;
  backup::BackupServer server(cfg);
  backup::BackupAgent agent;

  auto backup_one = [&](std::size_t i, std::uint64_t parent) {
    const auto id = ledger.open("backup " + ids_[i]);
    {
      SpanRecorder::Scope s(spans, "BackupServer::backup_image", parent, op);
      s.set_bytes(images_[i].size());
      stats[i] = server.backup_image(ids_[i], as_bytes(images_[i]), repo_,
                                     agent);
    }
    const auto& st = stats[i];
    const auto& e = expect_[i];
    ledger.check(id, "backup_verified", st.verified);
    ledger.check(id, "dedup_matches_oracle",
                 st.chunks == e.chunks && st.duplicate_chunks == e.duplicates &&
                     st.unique_bytes == e.unique_bytes,
                 "chunks/duplicates/unique bytes differ from the oracle");
    ledger.repeats_exactly(id, {st.virtual_seconds, st.chunking_seconds,
                                st.index_seconds, st.link_seconds,
                                static_cast<double>(st.wire_bytes)});
  };

  backup_one(0, 0);  // the base image seeds the index and the store
  const std::size_t first_timed = 1;
  r.setup_s = since(setup_start);

  dedup::StoreOccupancy occ_full, occ_after_gc;
  retention::RetentionManager::GcStats gc;
  retention::RetentionManager::CompactStats compact;
  double delete_virtual_s = 0;
  Ledger::OpId gc_op = 0, compact_op = 0;
  const auto timed_start = Clock::now();
  {
    SpanRecorder::Scope root(spans, "op.timed", 0, op);
    for (std::size_t i = first_timed; i < images_.size(); ++i) {
      backup_one(i, root.id());
    }
    if (shape_.churn) {
      occ_full = store->occupancy();
      for (std::size_t i = 0; i < images_.size(); ++i) {
        if (live_[i]) continue;
        const auto id = ledger.open("delete " + ids_[i]);
        retention::RetentionManager::DeleteStats ds;
        {
          SpanRecorder::Scope s(spans, "BackupServer::delete_image", root.id(),
                                op);
          ds = server.delete_image(ids_[i]);
        }
        {
          SpanRecorder::Scope s(spans, "BackupAgent::delete_image", root.id(),
                                op);
          agent.delete_image(ids_[i]);
        }
        delete_virtual_s += ds.virtual_seconds;
        ledger.check(id, "retention_matches_oracle",
                     ds.chunks_released == oracle_[i].chunks.size(),
                     "delete walked a different number of chunks");
        ledger.repeats_exactly(id, {ds.virtual_seconds,
                                    static_cast<double>(ds.bytes_zeroed)});
      }
      gc_op = ledger.open("gc");
      {
        SpanRecorder::Scope s(spans, "BackupServer::gc", root.id(), op);
        gc = server.gc();
      }
      occ_after_gc = store->occupancy();
      compact_op = ledger.open("compact_index");
      {
        SpanRecorder::Scope s(spans, "BackupServer::compact_index", root.id(),
                              op);
        compact = server.compact_index();
      }
    }
  }
  r.timed_s = since(timed_start);

  for (std::size_t i = first_timed; i < images_.size(); ++i) {
    r.timed_bytes += images_[i].size();
  }
  double bytes = 0, virtual_s = 0;
  for (std::size_t i = first_timed; i < images_.size(); ++i) {
    bytes += static_cast<double>(stats[i].bytes);
    virtual_s += stats[i].virtual_seconds;
  }
  // Modelled time of the whole timed phase: the snapshots' pipelined
  // backup time plus, for churn, the retention calls.
  virtual_s += delete_virtual_s + gc.virtual_seconds + compact.virtual_seconds;
  r.virtual_gbps = virtual_s > 0 ? bytes * 8.0 / virtual_s / 1e9 : 0;
  for (std::size_t i = 0; i < images_.size(); ++i) {
    r.unique_chunks += stats[i].chunks - stats[i].duplicate_chunks;
    r.duplicate_chunks += stats[i].duplicate_chunks;
  }

  if (shape_.churn) {
    // GC oracle: exactly the survivors' distinct chunks remain, none parked.
    bool contained = true;
    for (const auto& d : survivors_) contained = contained && store->contains(d);
    ledger.check(gc_op, "retention_matches_oracle",
                 contained && occ_after_gc.chunks == survivors_.size() &&
                     occ_after_gc.zero_ref_chunks == 0,
                 "store after gc differs from the survivors' chunk set");
    ledger.repeats_exactly(gc_op, {gc.virtual_seconds,
                                   static_cast<double>(gc.bytes_freed)});
    // Compaction oracle: survivors still probe as hits, dead digests miss.
    bool probes_ok = true;
    for (const auto& d : survivors_) {
      probes_ok = probes_ok && server.index().lookup(d).has_value();
    }
    for (const auto& d : dead_) {
      probes_ok = probes_ok && !server.index().lookup(d).has_value();
    }
    ledger.check(compact_op, "retention_matches_oracle", probes_ok,
                 "index probes after compaction differ from the oracle");
    ledger.repeats_exactly(
        compact_op, {compact.virtual_seconds,
                     static_cast<double>(compact.index.entries_after)});
  }

  // Restore: the only read path.
  for (std::size_t i = 0; i < images_.size(); ++i) {
    if (!live_[i]) continue;
    const auto id = ledger.open("restore " + ids_[i]);
    ByteVec out;
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "BackupAgent::recreate", 0, op);
      s.set_bytes(images_[i].size());
      out = agent.recreate(ids_[i]);
    }
    r.restore_s += since(t0);
    r.restore_bytes += images_[i].size();
    ledger.check(id, "restore_bit_identical", out == images_[i],
                 "recreated image differs");
  }
  const auto occ_end = store->occupancy();
  r.stored_per_user_byte = static_cast<double>(occ_end.bytes) /
                           static_cast<double>(r.restore_bytes);

  if (trace != nullptr) {
    auto& L = trace->layer;
    double chunks = 0, user = 0, wire = 0, payload = 0, frames = 0,
           logical_link = 0, dups = 0;
    double gen = 0, chunking_s = 0, hashing = 0, index = 0, link = 0;
    static const char* const kStages[] = {"generation", "chunking", "hashing",
                                          "index+link"};
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const auto& st = stats[i];
      chunks += static_cast<double>(st.chunks);
      dups += static_cast<double>(st.duplicate_chunks);
      user += static_cast<double>(st.bytes);
      wire += static_cast<double>(st.wire_bytes);
      payload += static_cast<double>(st.transport.link.payload_bytes);
      frames += static_cast<double>(st.transport.frames_sent);
      logical_link += st.transport.link.virtual_seconds;
      gen += st.generation_seconds;
      chunking_s += st.chunking_seconds;
      hashing += st.hashing_seconds;
      index += st.index_seconds;
      link += st.link_seconds;
      const double stage[] = {st.generation_seconds, st.chunking_seconds,
                              st.hashing_seconds, st.index_transfer_seconds};
      const auto bound = std::max_element(std::begin(stage), std::end(stage)) -
                         std::begin(stage);
      trace->notes.push_back(ids_[i] + " bound by " + kStages[bound] +
                             " stage");
    }
    L["chunking.chunks"] = chunks;
    L["chunking.mean_chunk_bytes"] = chunks > 0 ? user / chunks : 0;
    L["dedup.index_dup_ratio"] = chunks > 0 ? dups / chunks : 0;
    L["dedup.index_virtual_s"] = index;
    L["dedup.store_bytes"] = static_cast<double>(occ_end.bytes);
    L["backup.virtual_generation_s"] = gen;
    L["backup.virtual_chunking_s"] = chunking_s;
    L["backup.virtual_hashing_s"] = hashing;
    L["backup.virtual_index_s"] = index;
    L["backup.virtual_link_s"] = link;
    L["backup.frames"] = frames;
    L["backup.wire_bytes"] = wire;
    L["backup.wire_overhead"] = wire > 0 ? 1.0 - payload / wire : 0;
    L["backup.retransmits"] =
        static_cast<double>(trace->registry.counter_sum("backup.retransmits_total"));
    L["backup.link_virtual_s"] = logical_link;
    index_layer_values(trace->registry, L);
    if (shape_.server.backend == backup::ChunkerBackend::kShredderGpu) {
      core_layer_values(trace->registry, L);
    }
    if (shape_.churn) {
      L["retention.virtual_s"] =
          delete_virtual_s + gc.virtual_seconds + compact.virtual_seconds;
      L["retention.bytes_freed"] = static_cast<double>(gc.bytes_freed);
      L["retention.store_shrink"] =
          occ_full.bytes > 0 ? 1.0 - static_cast<double>(occ_after_gc.bytes) /
                                         static_cast<double>(occ_full.bytes)
                             : 0;
      L["retention.log_shrink"] =
          compact.index.entries_before > 0
              ? 1.0 - static_cast<double>(compact.index.entries_after) /
                          static_cast<double>(compact.index.entries_before)
              : 0;
    }
  }
  return r;
}

void BackupWorkload::replay(Ledger& ledger, Trace& trace,
                            const Rep& reference) {
  SpanRecorder& spans = trace.replay_spans;
  const auto& sc = shape_.server;
  dedup::IndexConfig index_cfg = sc.index;
  index_cfg.costs.probe_s = sc.costs.index_probe_s;
  index_cfg.costs.insert_s = sc.costs.index_insert_s;
  const auto index = dedup::make_index(index_cfg);
  auto store = std::make_shared<dedup::ChunkStore>(/*deferred_reclaim=*/true);
  backup::BackupAgent agent;
  backup::TransportConfig transport_cfg = sc.transport;
  transport_cfg.link = sc.costs.link;

  std::unique_ptr<core::Shredder> shredder;
  std::unique_ptr<rabin::RabinTables> tables;
  std::unique_ptr<chunking::ParallelChunker> chunker;
  if (sc.backend == backup::ChunkerBackend::kShredderGpu) {
    core::ShredderConfig shredder_cfg = sc.shredder;
    shredder_cfg.chunker = sc.chunker;
    shredder_cfg.fingerprint_on_device = sc.fingerprint_on_device;
    shredder = std::make_unique<core::Shredder>(shredder_cfg);
  } else {
    tables = std::make_unique<rabin::RabinTables>(sc.chunker.window);
    chunker = std::make_unique<chunking::ParallelChunker>(
        *tables, sc.chunker, sc.cpu_threads, chunking::AllocMode::kThreadArena);
  }

  std::uint64_t unique = 0, duplicates = 0, puts = 0, add_refs = 0;
  std::uint64_t next_offset = 0;
  for (std::size_t i = 0; i < images_.size(); ++i) {
    const ByteSpan image = as_bytes(images_[i]);
    const std::uint64_t op = spans.new_op();
    const auto id = ledger.open("replay " + ids_[i]);
    SpanRecorder::Scope root(spans, "op.replay_snapshot", 0, op);

    std::vector<chunking::Chunk> chunks;
    std::vector<dedup::ChunkDigest> device_digests;
    std::vector<std::size_t> batch_ends;
    if (shredder) {
      BatchEnds sink(batch_ends);
      SpanRecorder::Scope s(spans, "Shredder::run", root.id(), op);
      s.set_bytes(image.size());
      auto result = shredder->run(image, sink);
      chunks = std::move(result.chunks);
      device_digests = std::move(result.digests);
    } else {
      {
        SpanRecorder::Scope s(spans, "ParallelChunker::chunk", root.id(), op);
        s.set_bytes(image.size());
        chunks = chunker->chunk(image);
      }
      // Wire batches at the buffer granularity, as the CPU backend ships.
      const std::uint64_t buffer = sc.shredder.buffer_bytes;
      std::uint64_t limit = buffer;
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        if (chunks[k].end() >= limit) {
          batch_ends.push_back(k + 1);
          while (limit <= chunks[k].end()) limit += buffer;
        }
      }
    }
    if (batch_ends.empty() || batch_ends.back() != chunks.size()) {
      batch_ends.push_back(chunks.size());
    }
    ledger.check(id, "chunks_equal_serial", chunks == oracle_[i].chunks,
                 "chunks differ from chunk_serial");
    if (!device_digests.empty()) {
      ledger.check(id, "digests_equal_sha256",
                   device_digests == oracle_[i].digests,
                   "device digests differ from host SHA-256");
    }

    std::vector<dedup::ChunkDigest> digests(chunks.size());
    {
      SpanRecorder::Scope s(spans, "ChunkHasher::hash", root.id(), op);
      s.set_bytes(image.size());
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        digests[k] = dedup::ChunkHasher::hash(chunk_bytes(image, chunks[k]));
      }
    }
    ledger.check(id, "digests_equal_sha256", digests == oracle_[i].digests,
                 "host digests differ from the oracle");

    std::vector<char> is_unique(chunks.size());
    {
      SpanRecorder::Scope s(spans, "IndexBackend::lookup_or_insert", root.id(),
                            op);
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        const bool hit =
            index
                ->lookup_or_insert(digests[k],
                                   dedup::ChunkLocation{next_offset,
                                                        chunks[k].size},
                                   static_cast<std::uint32_t>(i))
                .has_value();
        is_unique[k] = !hit;
        if (!hit) next_offset += chunks[k].size;
      }
    }
    {
      SpanRecorder::Scope s(spans, "ChunkStore::put", root.id(), op);
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        if (!is_unique[k] && store->add_ref(digests[k])) {
          ++add_refs;
          continue;
        }
        is_unique[k] = 1;  // a stale index hit re-ships, as the server does
        store->put(digests[k], chunk_bytes(image, chunks[k]));
        ++puts;
      }
    }
    for (const char u : is_unique) (u ? unique : duplicates) += 1;

    // Extent-coalesced wire batches (glue: not a layer call).
    std::vector<backup::BackupAgent::ExtentBatch> batches;
    std::size_t k = 0;
    for (const std::size_t end : batch_ends) {
      backup::BackupAgent::ExtentBatch wire;
      for (; k < end; ++k) {
        const bool u = is_unique[k] != 0;
        const auto idx = static_cast<std::uint32_t>(wire.digests.size());
        wire.digests.push_back(digests[k]);
        if (wire.extents.empty() || wire.extents.back().unique != u) {
          wire.extents.push_back({idx, 1, u});
        } else {
          ++wire.extents.back().count;
        }
        if (u) {
          const ByteSpan payload = chunk_bytes(image, chunks[k]);
          wire.payload_sizes.push_back(static_cast<std::uint32_t>(payload.size()));
          wire.payload.insert(wire.payload.end(), payload.begin(), payload.end());
        }
      }
      if (!wire.digests.empty()) batches.push_back(std::move(wire));
    }
    {
      SpanRecorder::Scope s(spans, "Transport::send_batch", root.id(), op);
      s.set_bytes(image.size());
      backup::Transport transport(
          agent, transport_cfg,
          [store](const dedup::ChunkDigest& d) { return store->get(d); });
      transport.begin_image(ids_[i]);
      for (auto& b : batches) transport.send_batch(ids_[i], std::move(b));
      transport.end_image(ids_[i]);
      transport.flush();
    }
    ByteVec out;
    {
      SpanRecorder::Scope s(spans, "BackupAgent::recreate", root.id(), op);
      s.set_bytes(image.size());
      out = agent.recreate(ids_[i]);
    }
    ledger.check(id, "restore_bit_identical", out == images_[i],
                 "replayed image recreates differently");
  }
  const auto id = ledger.open("replay dedup decisions");
  ledger.check(id, "replay_matches_run",
               unique == reference.unique_chunks &&
                   duplicates == reference.duplicate_chunks,
               "replay unique/duplicate counts differ from the untraced run");
  trace.layer["dedup.store_puts"] = static_cast<double>(puts);
  trace.layer["dedup.store_add_refs"] = static_cast<double>(add_refs);
}

// --- service_fanin -------------------------------------------------------------

// Four tenants, one producer thread each, submit at once to one
// ChunkingService with on-device fingerprints, inline dedup into a shared
// store, the sparse index and a per-tenant image id. Each stream is a
// 50%-change snapshot of one shared master.
class ServiceWorkload final : public Workload {
 public:
  static constexpr int kTenants = 4;
  static constexpr std::size_t kPieceBytes = 1u << 20;  // one submit() call

  explicit ServiceWorkload(std::uint64_t seed) : repo_(repo_config(seed)) {
    config_.chunker = backup::BackupServerConfig{}.chunker;
    config_.buffer_bytes = 4u << 20;
    config_.fingerprint_on_device = true;
    config_.dedup_on_store = true;
    config_.index.kind = dedup::IndexKind::kSparse;
    for (int k = 0; k < kTenants; ++k) {
      streams_.push_back(repo_.snapshot(0.5, static_cast<std::uint64_t>(k + 1)));
      oracle_.push_back(chunk_oracle(config_.chunker, as_bytes(streams_.back()),
                                     /*hash=*/true));
    }
    DigestSet seen;
    for (const auto& o : oracle_) {
      for (std::size_t i = 0; i < o.digests.size(); ++i) {
        if (seen.insert(o.digests[i]).second) {
          ++expect_unique_;
          expect_stored_bytes_ += o.chunks[i].size;
        } else {
          ++expect_duplicates_;
        }
      }
    }
  }

  Rep rep(Ledger& ledger, Trace* trace) override;
  void replay(Ledger& ledger, Trace& trace, const Rep& reference) override;

 private:
  static backup::ImageRepoConfig repo_config(std::uint64_t seed) {
    backup::ImageRepoConfig c;
    c.image_bytes = 16ull << 20;
    c.segment_bytes = 1ull << 20;
    c.seed = seed;
    return c;
  }

  backup::ImageRepository repo_;
  service::ServiceConfig config_;
  std::vector<ByteVec> streams_;
  std::vector<ChunkedImage> oracle_;
  std::uint64_t expect_unique_ = 0;
  std::uint64_t expect_duplicates_ = 0;
  std::uint64_t expect_stored_bytes_ = 0;
};

Rep ServiceWorkload::rep(Ledger& ledger, Trace* trace) {
  SpanRecorder& spans = rep_spans(trace);
  Rep r;
  const auto setup_start = Clock::now();
  auto store = std::make_shared<dedup::ChunkStore>();
  service::ServiceConfig cfg = config_;
  cfg.store = store;
  cfg.registry = trace != nullptr ? &trace->registry : nullptr;
  service::ChunkingService svc(cfg);
  r.setup_s = since(setup_start);

  std::vector<Ledger::OpId> ops;
  for (int k = 0; k < kTenants; ++k) {
    ops.push_back(ledger.open("tenant " + std::to_string(k)));
  }
  std::vector<service::TenantResult> results(kTenants);
  std::vector<std::exception_ptr> errors(kTenants);
  std::latch start(kTenants + 1);
  std::vector<std::thread> producers;
  auto produce = [&](int k) {
    try {
      start.arrive_and_wait();
      const std::uint64_t op = spans.new_op();
      SpanRecorder::Scope tenant(spans, "op.tenant", 0, op);
      tenant.set_bytes(streams_[k].size());
      service::TenantOptions opts;
      opts.name = "tenant-" + std::to_string(k);
      opts.image_id = "image-" + std::to_string(k);
      const auto id = svc.open(std::move(opts));
      const ByteSpan data = as_bytes(streams_[k]);
      for (std::size_t off = 0; off < data.size(); off += kPieceBytes) {
        SpanRecorder::Scope s(spans, "ChunkingService::submit", tenant.id(),
                              op);
        const auto piece = data.subspan(off, std::min(kPieceBytes,
                                                      data.size() - off));
        s.set_bytes(piece.size());
        svc.submit(id, piece);
      }
      svc.finish(id);
      SpanRecorder::Scope s(spans, "ChunkingService::wait", tenant.id(), op);
      results[k] = svc.wait(id);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  try {
    for (int k = 0; k < kTenants; ++k) producers.emplace_back(produce, k);
  } catch (...) {
    // Release and join the producers already started before unwinding.
    start.count_down(kTenants + 1 - static_cast<int>(producers.size()));
    for (auto& t : producers) t.join();
    throw;
  }
  const auto timed_start = Clock::now();
  start.count_down();
  for (auto& t : producers) t.join();
  r.timed_s = since(timed_start);
  const service::ServiceReport report = svc.shutdown();

  for (int k = 0; k < kTenants; ++k) {
    r.timed_bytes += streams_[k].size();
    const auto id = ops[k];
    if (errors[k]) {
      try {
        std::rethrow_exception(errors[k]);
      } catch (const std::exception& e) {
        ledger.check(id, "no_exception", false, e.what());
      }
      continue;
    }
    const auto& res = results[k];
    ledger.check(id, "chunks_equal_serial", res.chunks == oracle_[k].chunks,
                 "tenant chunks differ from chunk_serial");
    ledger.check(id, "digests_equal_sha256", res.digests == oracle_[k].digests,
                 "device digests differ from host SHA-256");
    // The store can hand back every tenant's bytes.
    bool restored = res.digests.size() == oracle_[k].digests.size();
    for (std::size_t i = 0; restored && i < res.digests.size(); ++i) {
      const auto bytes = store->get(res.digests[i]);
      const auto want = chunk_bytes(as_bytes(streams_[k]), oracle_[k].chunks[i]);
      restored = bytes && bytes->size() == want.size() &&
                 std::equal(bytes->begin(), bytes->end(), want.begin());
    }
    ledger.check(id, "restore_bit_identical", restored,
                 "stream does not reassemble from the store");
    ledger.check(id, "dedup_matches_oracle",
                 report.dedup_unique_chunks == expect_unique_ &&
                     report.dedup_duplicate_chunks == expect_duplicates_ &&
                     report.dedup_stored_bytes == expect_stored_bytes_ &&
                     store->occupancy().bytes == expect_stored_bytes_,
                 "service dedup totals differ from the oracle");
    // No virtual_repeats_exactly gate here: the service's modelled timeline
    // depends on the host order in which tenants' buffers reach its
    // scheduler, which concurrent producers do not fix.
  }
  r.virtual_gbps = report.aggregate_throughput_bps * 8.0 / 1e9;
  r.stored_per_user_byte = static_cast<double>(store->occupancy().bytes) /
                           static_cast<double>(r.timed_bytes);
  r.unique_chunks = report.dedup_unique_chunks;
  r.duplicate_chunks = report.dedup_duplicate_chunks;

  if (trace != nullptr) {
    auto& L = trace->layer;
    double chunks = 0;
    std::size_t depth = 0;
    for (const auto& res : results) {
      chunks += static_cast<double>(res.chunks.size());
      depth = std::max(depth, res.report.max_queue_depth);
    }
    const double total = static_cast<double>(report.dedup_unique_chunks +
                                             report.dedup_duplicate_chunks);
    L["chunking.chunks"] = chunks;
    L["chunking.mean_chunk_bytes"] =
        chunks > 0 ? static_cast<double>(r.timed_bytes) / chunks : 0;
    L["service.device_occupancy"] = report.device_occupancy;
    L["service.h2d_busy"] = report.virtual_seconds > 0
                                ? report.h2d_busy_seconds / report.virtual_seconds
                                : 0;
    L["service.dup_ratio"] =
        total > 0 ? static_cast<double>(report.dedup_duplicate_chunks) / total : 0;
    L["service.index_virtual_s"] = report.index_virtual_seconds;
    L["service.max_queue_depth"] = static_cast<double>(depth);
    L["dedup.index_dup_ratio"] = L["service.dup_ratio"];
    L["dedup.index_virtual_s"] = report.index_virtual_seconds;
    L["dedup.store_bytes"] = static_cast<double>(store->occupancy().bytes);
    index_layer_values(trace->registry, L);
    core_layer_values(trace->registry, L);
  }
  return r;
}

void ServiceWorkload::replay(Ledger& ledger, Trace& trace,
                             const Rep& reference) {
  // The service's inline dedup loop, layer by layer over each tenant's
  // chunks: hash, index probe, store put/add_ref.
  SpanRecorder& spans = trace.replay_spans;
  dedup::IndexConfig index_cfg = config_.index;
  const auto index = dedup::make_index(index_cfg);
  dedup::ChunkStore store;
  std::uint64_t unique = 0, duplicates = 0, puts = 0, add_refs = 0;
  std::uint64_t next_offset = 0;
  for (int t = 0; t < kTenants; ++t) {
    const ByteSpan data = as_bytes(streams_[t]);
    const auto& chunks = oracle_[t].chunks;
    const std::uint64_t op = spans.new_op();
    const auto id = ledger.open("replay tenant " + std::to_string(t));
    SpanRecorder::Scope root(spans, "op.replay_tenant", 0, op);
    std::vector<dedup::ChunkDigest> digests(chunks.size());
    {
      SpanRecorder::Scope s(spans, "ChunkHasher::hash", root.id(), op);
      s.set_bytes(data.size());
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        digests[k] = dedup::ChunkHasher::hash(chunk_bytes(data, chunks[k]));
      }
    }
    ledger.check(id, "digests_equal_sha256", digests == oracle_[t].digests,
                 "host digests differ from the oracle");
    std::vector<char> is_unique(chunks.size());
    {
      SpanRecorder::Scope s(spans, "IndexBackend::lookup_or_insert", root.id(),
                            op);
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        const bool hit =
            index
                ->lookup_or_insert(digests[k],
                                   dedup::ChunkLocation{next_offset,
                                                        chunks[k].size},
                                   static_cast<std::uint32_t>(t))
                .has_value();
        is_unique[k] = !hit;
        if (!hit) next_offset += chunks[k].size;
      }
    }
    {
      SpanRecorder::Scope s(spans, "ChunkStore::put", root.id(), op);
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        if (is_unique[k]) {
          store.put(digests[k], chunk_bytes(data, chunks[k]));
          ++puts;
        } else {
          store.add_ref(digests[k]);
          ++add_refs;
        }
      }
    }
    for (const char u : is_unique) (u ? unique : duplicates) += 1;
  }
  const auto id = ledger.open("replay dedup decisions");
  ledger.check(id, "replay_matches_run",
               unique == reference.unique_chunks &&
                   duplicates == reference.duplicate_chunks,
               "replay unique/duplicate counts differ from the untraced run");
  trace.layer["dedup.store_puts"] = static_cast<double>(puts);
  trace.layer["dedup.store_add_refs"] = static_cast<double>(add_refs);
}

// --- chunk_stream ----------------------------------------------------------------

// One large random stream through core::Shredder::run with a counting sink,
// paper defaults (w=48, 13-bit mask, kStreamsCoalesced): the chunk-only path.
class ChunkStreamWorkload final : public Workload {
 public:
  explicit ChunkStreamWorkload(std::uint64_t seed)
      : data_(random_bytes(128ull << 20, seed)),
        warmup_(random_bytes(config_.buffer_bytes, ~seed)),
        oracle_(chunk_oracle(config_.chunker, as_bytes(data_), /*hash=*/false)) {}

  Rep rep(Ledger& ledger, Trace* trace) override {
    SpanRecorder& spans = rep_spans(trace);
    const std::uint64_t op = spans.new_op();
    Rep r;
    const auto setup_start = Clock::now();
    core::ShredderConfig cfg = config_;
    cfg.registry = trace != nullptr ? &trace->registry : nullptr;
    core::Shredder shredder(cfg);
    // Warm-up: one buffer through the pipeline starts its threads and
    // faults in the pinned ring before the timed stream. The registry
    // counts only the timed stream.
    if (cfg.registry != nullptr) cfg.registry->set_enabled(false);
    shredder.run(as_bytes(warmup_));
    if (cfg.registry != nullptr) cfg.registry->set_enabled(true);
    r.setup_s = since(setup_start);

    const auto id = ledger.open("chunk stream");
    CountingSink sink;
    core::ShredderResult result;
    const auto timed_start = Clock::now();
    {
      SpanRecorder::Scope root(spans, "op.timed", 0, op);
      SpanRecorder::Scope s(spans, "Shredder::run", root.id(), op);
      s.set_bytes(data_.size());
      result = shredder.run(as_bytes(data_), sink);
    }
    r.timed_s = since(timed_start);
    r.timed_bytes = data_.size();
    r.virtual_gbps = result.virtual_throughput_bps * 8.0 / 1e9;

    ledger.check(id, "chunks_equal_serial",
                 result.chunks == oracle_.chunks &&
                     sink.chunks == oracle_.chunks.size() &&
                     sink.bytes == data_.size(),
                 "chunks differ from chunk_serial");
    ledger.repeats_exactly(id, {result.virtual_seconds,
                                result.virtual_throughput_bps,
                                static_cast<double>(result.n_buffers)});
    if (trace != nullptr) {
      auto& L = trace->layer;
      const double chunks = static_cast<double>(result.chunks.size());
      L["chunking.chunks"] = chunks;
      L["chunking.mean_chunk_bytes"] =
          chunks > 0 ? static_cast<double>(data_.size()) / chunks : 0;
      core_layer_values(trace->registry, L);
    }
    return r;
  }

  // The timed phase is a single layer call, already spanned by rep().
  void replay(Ledger&, Trace&, const Rep&) override {}

 private:
  const core::ShredderConfig config_{};  // paper defaults
  ByteVec data_;
  ByteVec warmup_;
  ChunkedImage oracle_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "backup_incremental") {
    return std::make_unique<BackupWorkload>(incremental_shape(seed));
  }
  if (name == "backup_churn") {
    return std::make_unique<BackupWorkload>(churn_shape(seed));
  }
  if (name == "service_fanin") return std::make_unique<ServiceWorkload>(seed);
  if (name == "chunk_stream") return std::make_unique<ChunkStreamWorkload>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// --- Runs ------------------------------------------------------------------------

void copy_ledger(const Ledger& ledger, Report& report) {
  report.gates = ledger.gates;
  report.attempted = ledger.attempted;
  report.failed = ledger.failed;
  report.failures = ledger.failures;
}

// Calls body(0), a warm-up repetition that is checked but not measured,
// then body(1), body(2), ... until `seconds` have passed (at least kMinReps
// measured repetitions). Returns the measured count. A repetition that
// throws ends the run; its operation counts as failed.
template <typename Body>
std::size_t repeat(double seconds, Ledger& ledger, Body&& body) {
  std::size_t reps = 0;
  try {
    body(0);
    const auto start = Clock::now();
    while (reps < kMinReps || (reps < kMaxReps && since(start) < seconds)) {
      body(reps + 1);
      ++reps;
    }
  } catch (const std::exception& e) {
    ledger.fail_in_flight(std::string("threw: ") + e.what());
  }
  return reps;
}

void run_untraced(Workload& w, const RunOptions& options, Report& report) {
  Ledger ledger;
  std::vector<double> setup, host, restore, virtual_gbps;
  Rep first;
  // Peak memory through the warm-up repetition: inputs, oracle and one
  // repetition from a fresh heap. Later repetitions would add what malloc's
  // per-thread arenas keep from earlier ones, which grows run-dependently
  // under concurrent producers.
  double warmup_peak_mb = 0;
  report.reps = repeat(options.seconds, ledger, [&](std::size_t i) {
    const Rep r = w.rep(ledger, nullptr);
    if (i == 0) {
      first = r;
      warmup_peak_mb = peak_rss_mb();
      return;
    }
    setup.push_back(r.setup_s);
    virtual_gbps.push_back(r.virtual_gbps);
    host.push_back(r.host_mbps());
    if (r.restore_bytes > 0 && r.restore_s > 0) {
      restore.push_back(static_cast<double>(r.restore_bytes) / r.restore_s / kMB);
    }
  });
  copy_ledger(ledger, report);
  if (host.empty()) return;
  auto& m = report.metrics;
  m.set("setup_s", "s", median(setup));
  m.set("host_mbps", "MB/s", median(host));
  if (!restore.empty()) m.set("restore_mbps", "MB/s", median(restore));
  // Equal in every repetition where the virtual_repeats_exactly gate holds.
  m.set("virtual_gbps", "Gb/s", median(virtual_gbps));
  if (first.stored_per_user_byte >= 0) {
    m.set("stored_per_user_byte", "ratio", first.stored_per_user_byte);
  }
  m.set("peak_rss_mb", "MB", warmup_peak_mb);
  m.set("error_rate", "ratio",
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 1.0);
  report.samples["setup_s"] = setup;
  report.samples["host_mbps"] = host;
  report.samples["virtual_gbps"] = virtual_gbps;
  if (!restore.empty()) report.samples["restore_mbps"] = restore;
}

void run_traced(Workload& w, const RunOptions& options, Report& report) {
  Ledger ledger;
  std::vector<double> plain, traced;
  std::unique_ptr<Trace> last;
  Rep reference;
  report.reps = repeat(options.seconds, ledger, [&](std::size_t i) {
    const Rep p = w.rep(ledger, nullptr);
    if (i == 0) {
      reference = p;
      return;
    }
    auto t = std::make_unique<Trace>();
    const Rep q = w.rep(ledger, t.get());
    plain.push_back(p.host_mbps());
    traced.push_back(q.host_mbps());
    last = std::move(t);
  });
  if (last) {
    try {
      w.replay(ledger, *last, reference);
    } catch (const std::exception& e) {
      ledger.fail_in_flight(std::string("replay threw: ") + e.what());
    }
  }
  copy_ledger(ledger, report);
  if (!last) return;

  std::map<std::string, double> values = last->layer;
  const auto rep_spans_v = last->rep_spans.spans();
  const auto replay_spans_v = last->replay_spans.spans();
  const auto rep_layers = layer_times(rep_spans_v);
  const auto replay_layers = layer_times(replay_spans_v);
  // A layer call the workload makes itself is measured there; otherwise in
  // the replay.
  auto layer = [&](const char* span) -> const LayerTime* {
    if (auto it = rep_layers.find(span); it != rep_layers.end()) {
      return &it->second;
    }
    if (auto it = replay_layers.find(span); it != replay_layers.end()) {
      return &it->second;
    }
    return nullptr;
  };
  auto put_time = [&](const char* metric, const char* span) {
    if (const auto* l = layer(span)) values[metric] = l->self_s;
  };
  auto put_rate = [&](const char* metric, const char* span) {
    if (const auto* l = layer(span); l != nullptr && l->total_s > 0) {
      values[metric] = static_cast<double>(l->bytes) / l->total_s / kMB;
    }
  };
  auto put_p50_max = [&](const char* p50, const char* max, const char* span) {
    std::vector<double> d;
    for (const auto* v : {&rep_spans_v, &replay_spans_v}) {
      for (const auto& s : *v) {
        if (s.name == span) d.push_back(s.duration());
      }
    }
    if (d.empty()) return;
    values[p50] = median(d);
    values[max] = *std::max_element(d.begin(), d.end());
    report.samples[p50] = d;
  };
  put_time("core.run_s", "Shredder::run");
  put_rate("core.run_mbps", "Shredder::run");
  put_time("chunking.parallel_s", "ParallelChunker::chunk");
  put_time("dedup.hash_s", "ChunkHasher::hash");
  put_rate("dedup.hash_mbps", "ChunkHasher::hash");
  put_time("dedup.index_s", "IndexBackend::lookup_or_insert");
  put_time("dedup.store_s", "ChunkStore::put");
  put_time("backup.wire_s", "Transport::send_batch");
  put_time("backup.recreate_s", "BackupAgent::recreate");
  put_rate("backup.recreate_mbps", "BackupAgent::recreate");
  put_time("retention.delete_s", "BackupServer::delete_image");
  put_time("retention.gc_s", "BackupServer::gc");
  put_time("retention.compact_s", "BackupServer::compact_index");
  put_time("service.submit_blocked_s", "ChunkingService::submit");
  put_p50_max("backup.snapshot_p50_s", "backup.snapshot_max_s",
              "BackupServer::backup_image");
  put_p50_max("service.tenant_p50_s", "service.tenant_max_s", "op.tenant");

  values["obs.trace_overhead"] = median(plain) / median(traced) - 1.0;
  // Operation time (op.* root spans) not covered by any layer span.
  double op_self = 0, op_total = 0;
  for (const auto* v : {&rep_spans_v, &replay_spans_v}) {
    const auto self = self_times(*v);
    for (std::size_t i = 0; i < v->size(); ++i) {
      if ((*v)[i].name.rfind("op.", 0) != 0) continue;
      op_self += self[i];
      op_total += (*v)[i].duration();
    }
  }
  values["obs.unattributed_share"] = op_total > 0 ? op_self / op_total : 0;

  for (const auto& spec : per_layer_specs()) {
    const auto it = values.find(spec.name);
    report.metrics.set(spec.name, spec.unit, it != values.end() ? it->second : 0);
  }
  report.samples["untraced_host_mbps"] = plain;
  report.samples["traced_host_mbps"] = traced;
  report.notes = last->notes;
  report.spans_json = "{\"rep\": " + last->rep_spans.to_json() +
                      ", \"replay\": " + last->replay_spans.to_json() + "}";
}

}  // namespace

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"core.run_s", "s"},
      {"core.run_mbps", "MB/s"},
      {"core.buffers", "count"},
      {"core.virtual_h2d_s", "s"},
      {"core.virtual_kernel_s", "s"},
      {"core.virtual_fingerprint_s", "s"},
      {"core.virtual_d2h_s", "s"},
      {"chunking.parallel_s", "s"},
      {"chunking.chunks", "count"},
      {"chunking.mean_chunk_bytes", "B"},
      {"dedup.hash_s", "s"},
      {"dedup.hash_mbps", "MB/s"},
      {"dedup.index_s", "s"},
      {"dedup.index_probes", "count"},
      {"dedup.index_dup_ratio", "ratio"},
      {"dedup.index_flash_reads", "count"},
      {"dedup.index_cache_hits", "count"},
      {"dedup.index_virtual_s", "s"},
      {"dedup.store_s", "s"},
      {"dedup.store_puts", "count"},
      {"dedup.store_add_refs", "count"},
      {"dedup.store_bytes", "B"},
      {"backup.snapshot_p50_s", "s"},
      {"backup.snapshot_max_s", "s"},
      {"backup.virtual_generation_s", "s"},
      {"backup.virtual_chunking_s", "s"},
      {"backup.virtual_hashing_s", "s"},
      {"backup.virtual_index_s", "s"},
      {"backup.virtual_link_s", "s"},
      {"backup.wire_s", "s"},
      {"backup.frames", "count"},
      {"backup.wire_bytes", "B"},
      {"backup.wire_overhead", "ratio"},
      {"backup.retransmits", "count"},
      {"backup.link_virtual_s", "s"},
      {"backup.recreate_s", "s"},
      {"backup.recreate_mbps", "MB/s"},
      {"retention.delete_s", "s"},
      {"retention.gc_s", "s"},
      {"retention.compact_s", "s"},
      {"retention.virtual_s", "s"},
      {"retention.bytes_freed", "B"},
      {"retention.store_shrink", "ratio"},
      {"retention.log_shrink", "ratio"},
      {"service.submit_blocked_s", "s"},
      {"service.tenant_p50_s", "s"},
      {"service.tenant_max_s", "s"},
      {"service.device_occupancy", "ratio"},
      {"service.h2d_busy", "ratio"},
      {"service.dup_ratio", "ratio"},
      {"service.index_virtual_s", "s"},
      {"service.max_queue_depth", "count"},
      {"obs.trace_overhead", "ratio"},
      {"obs.unattributed_share", "ratio"},
  };
  return specs;
}

bool Report::correct() const {
  if (attempted == 0 || failed != 0) return false;
  return std::all_of(gates.begin(), gates.end(),
                     [](const auto& g) { return g.second.failures == 0; });
}

std::string Report::to_json() const {
  std::string out = "{\"workload\": \"" + json_escape(workload) +
                    "\", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "true" : "false") +
                    ", \"reps\": " + std::to_string(reps) +
                    ", \"correct\": " + (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": " + metrics.to_json() + ", \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples) {
    const Distribution d = summarize(values);
    out += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
           "\": {\"n\": " + std::to_string(d.n) +
           ", \"median\": " + json_number(d.median) +
           ", \"q1\": " + json_number(d.q1) + ", \"q3\": " + json_number(d.q3) +
           ", \"tail_level\": " +
           (d.tail_level ? json_number(*d.tail_level) : "null") +
           ", \"tail_value\": " + json_number(d.tail_value) + ", \"values\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i ? ", " : "") + json_number(values[i]);
    }
    out += "]}";
    first = false;
  }
  out += "}, \"gates\": {";
  first = true;
  for (const auto& [name, g] : gates) {
    out += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
           "\": {\"checks\": " + std::to_string(g.checks) +
           ", \"failures\": " + std::to_string(g.failures) + "}";
    first = false;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(failures[i]) + "\"";
  }
  out += "], \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(notes[i]) + "\"";
  }
  return out + "]}";
}

Report run_workload(const RunOptions& options) {
  const auto workload = make_workload(options.workload, options.seed);
  Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  report.trace = options.trace;
  if (options.trace) {
    run_traced(*workload, options, report);
  } else {
    run_untraced(*workload, options, report);
  }
  return report;
}

}  // namespace perfbench
