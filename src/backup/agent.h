// Backup-site Shredder agent (paper §7.2): receives the stream of chunks
// and pointers produced by the backup server, stores unique chunks in a
// content-addressed store, and can recreate the original uncompressed image
// from its recipe.
//
// The agent is the trust boundary of the backup protocol: everything it
// consumes arrived over a wire that may drop, reorder, duplicate or truncate
// frames (docs/backup_wire.md). It therefore validates every frame before
// applying it and reports violations as typed ProtocolError exceptions, and
// its control surface is idempotent where the transport can legitimately
// re-deliver (begin_image / end_image). Payload-stripped frames — a sender
// that exhausted payload retransmits and shipped metadata only — enter a
// bounded repair flow: the digests are recorded in the recipe, missing
// payloads are tracked in a pending-repair table, and receive_repair()
// materializes them later (the firedancer repair-tile shape: bounded
// needed-item table, re-request by hash).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "dedup/digest.h"
#include "dedup/index.h"
#include "dedup/store.h"

namespace shredder::backup {

// What exactly a malformed or out-of-protocol frame violated. Carried by
// ProtocolError so transports and tests can branch on the cause instead of
// parsing message strings.
enum class ProtocolViolation {
  kUnknownImage,          // frame names an image never begun
  kDuplicateImage,        // begin_image for an already-sealed image id
  kSealedImage,           // data frame for an image already sealed
  kBadExtentPartition,    // extents do not partition [0, digests.size())
  kPayloadCountMismatch,  // payload_sizes count != unique-chunk count
  kPayloadBytesMismatch,  // concatenated payload != sum(payload_sizes)
  kEmptyChunk,            // a unique chunk advertised with zero bytes
  kUnknownPointer,        // pointer to a digest the agent has never stored
  kBadRepairPayload,      // repair payload does not hash to its digest
  kRecipeLengthMismatch,  // end_image chunk count != recipe length
  kRecipeIncomplete,      // recreate() while repairs are still pending
  kImageInProgress,       // delete_image for an image not yet sealed
};

// Typed protocol violation. Subclasses std::invalid_argument so existing
// catch sites (and EXPECT_THROW assertions) keep working unchanged.
class ProtocolError : public std::invalid_argument {
 public:
  ProtocolError(ProtocolViolation violation, const std::string& what)
      : std::invalid_argument(what), violation_(violation) {}
  ProtocolViolation violation() const noexcept { return violation_; }

 private:
  ProtocolViolation violation_;
};

class BackupAgent {
 public:
  // The agent keeps a fingerprint catalog in front of its chunk store — the
  // same IndexKind knob as the server side, so the backup site's membership
  // path can be modelled with either the baseline map or the ChunkStash-
  // style sparse index (docs/dedup_index.md). Results are exact either way;
  // only the modelled catalog time (catalog_seconds) differs.
  explicit BackupAgent(dedup::IndexConfig catalog_config = {});

  // One extent-coalesced wire batch (docs/backup_wire.md): everything one
  // drained server buffer finalized. `digests` names every chunk in stream
  // order; `extents` is a run-length partition of them into duplicate-
  // pointer runs and unique (payload-carrying) runs; the unique payloads
  // ride concatenated in `payload`, sliced by `payload_sizes`. Runs of
  // consecutive duplicate pointers thus cost one extent record instead of
  // one message per chunk.
  struct ExtentBatch {
    struct Extent {
      std::uint32_t first = 0;  // index of the run's first chunk in `digests`
      std::uint32_t count = 0;  // run length
      bool unique = false;      // payload-carrying run vs duplicate pointers
    };
    std::vector<dedup::ChunkDigest> digests;   // one per chunk, stream order
    std::vector<Extent> extents;               // partition of [0, size)
    std::vector<std::uint32_t> payload_sizes;  // one per unique chunk
    ByteVec payload;                           // concatenated unique payloads
  };

  // Opens a new image recipe. Idempotent while the image is open — a
  // retransmitted control frame is a no-op and cannot reset an in-progress
  // recipe. Throws ProtocolError{kDuplicateImage} if the id names an image
  // that was already sealed by end_image(). Returns true when a new recipe
  // was opened, false on the idempotent re-open.
  bool begin_image(const std::string& image_id);

  // Seals the image: no further data frames are accepted and a duplicate
  // begin_image for the id becomes a protocol violation. Idempotent on an
  // already-sealed image. If `expected_chunks` is nonzero it must match the
  // recipe length (ProtocolError{kRecipeLengthMismatch} otherwise) — the
  // sender's end-of-image frame carries the count so truncation is detected
  // even when every delivered frame was individually well-formed.
  void end_image(const std::string& image_id, std::uint64_t expected_chunks = 0);

  bool image_sealed(const std::string& image_id) const;

  // Appends a whole extent batch to the image. Throws ProtocolError when the
  // batch is malformed (extents not a partition, payload sizes inconsistent,
  // zero-byte unique chunks) — checked before anything is applied — or on a
  // pointer to an unknown digest (the batch may then be partially applied;
  // the connection is considered broken either way).
  void receive_batch(const std::string& image_id, const ExtentBatch& batch);

  // Appends a payload-stripped batch: same framing as receive_batch but
  // `payload` must be empty (`payload_sizes` still advertises the chunk
  // sizes). Recipe entries are recorded; unique chunks whose payload the
  // agent does not already hold become repair-pending. Returns the digests
  // that newly entered the pending-repair table, in stream order — the gaps
  // the agent must re-request from the server by digest.
  std::vector<dedup::ChunkDigest> receive_stripped(const std::string& image_id,
                                                   const ExtentBatch& batch);

  // Delivers the payload for a repair-pending digest. Returns false when the
  // digest is not pending (a duplicated repair frame — ignored). Throws
  // ProtocolError{kBadRepairPayload} when the payload does not hash to the
  // digest (a corrupt or misdirected repair must not poison the store).
  bool receive_repair(const dedup::ChunkDigest& digest, ByteSpan payload);
  // Adopting overload: moves the payload into the store (transports that
  // own the repair buffer hand it over instead of copying).
  bool receive_repair(const dedup::ChunkDigest& digest, ByteVec&& payload);

  // Digests referenced by the image's recipe whose payloads are still
  // repair-pending, deduplicated, in first-reference order. Empty once the
  // image can be recreated bit-exactly.
  std::vector<dedup::ChunkDigest> missing_chunks(const std::string& image_id) const;

  // Total digests currently in the pending-repair table (all images).
  std::size_t pending_repairs() const { return pending_repair_.size(); }

  // Recreates the full image from its recipe. Throws
  // ProtocolError{kRecipeIncomplete} while any recipe chunk is still
  // repair-pending.
  ByteVec recreate(const std::string& image_id) const;

  // Snapshot delete, mirroring the server's retention walk on the backup
  // site: releases one store reference per recipe occurrence (chunks whose
  // last reference goes are reclaimed) and forgets the recipe, so the image
  // id may be reused. Throws ProtocolError{kUnknownImage} for an unknown or
  // already-deleted id, {kImageInProgress} before end_image sealed it, and
  // {kRecipeIncomplete} while repairs are pending (their deferred references
  // have not been taken yet, so a walk would desync the counts). Returns the
  // number of references released.
  std::uint64_t delete_image(const std::string& image_id);

  std::uint64_t unique_chunks() const { return store_.unique_chunks(); }
  std::uint64_t unique_bytes() const { return store_.unique_bytes(); }

  // Modelled time the catalog index has consumed answering the server's
  // chunk/pointer stream.
  double catalog_seconds() const { return catalog_->virtual_seconds(); }
  const dedup::IndexBackend& catalog() const noexcept { return *catalog_; }

 private:
  struct Recipe {
    std::vector<dedup::ChunkDigest> chunks;
    bool sealed = false;
  };

  Recipe& open_recipe(const std::string& image_id);

  // Frame validation shared by both receive paths, before any state changes.
  // `stripped` batches must carry no payload bytes; full batches must slice
  // exactly. Returns the number of unique chunks in the batch.
  static std::size_t validate_batch(std::size_t n_digests,
                                    const std::vector<ExtentBatch::Extent>& extents,
                                    const std::vector<std::uint32_t>& payload_sizes,
                                    std::size_t payload_bytes, bool stripped);

  // Stores a freshly arrived unique chunk and registers it in the catalog.
  void admit_chunk(const dedup::ChunkDigest& digest, ByteSpan bytes);
  void admit_chunk(const dedup::ChunkDigest& digest, ByteVec&& bytes);

  dedup::ChunkStore store_;
  std::unique_ptr<dedup::IndexBackend> catalog_;
  std::uint64_t catalog_offset_ = 0;
  std::map<std::string, Recipe> recipes_;
  // Pending-repair table: digest -> recipe references recorded so far. When
  // the repair payload arrives the chunk is stored once and ref-counted up
  // to the deferred reference count.
  std::unordered_map<dedup::ChunkDigest, std::uint64_t, dedup::ChunkDigestHash>
      pending_repair_;
};

}  // namespace shredder::backup
