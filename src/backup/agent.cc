#include "backup/agent.h"

#include <algorithm>

#include "common/check.h"

namespace shredder::backup {

BackupAgent::BackupAgent(dedup::IndexConfig catalog_config)
    : catalog_(dedup::make_index(catalog_config)) {}

bool BackupAgent::begin_image(const std::string& image_id) {
  auto [it, inserted] = recipes_.try_emplace(image_id);
  if (!inserted && it->second.sealed) {
    // Re-opening a sealed image would silently fork its recipe; a
    // retransmitted begin for a still-open image is just the transport
    // re-delivering a control frame and must be harmless.
    throw ProtocolError(ProtocolViolation::kDuplicateImage,
                        "BackupAgent: image already sealed: " + image_id);
  }
  return inserted;
}

void BackupAgent::end_image(const std::string& image_id,
                            std::uint64_t expected_chunks) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  if (expected_chunks != 0 && expected_chunks != it->second.chunks.size()) {
    throw ProtocolError(
        ProtocolViolation::kRecipeLengthMismatch,
        "BackupAgent: end_image chunk count does not match recipe: " +
            image_id);
  }
  it->second.sealed = true;  // idempotent: sealing twice changes nothing
}

bool BackupAgent::image_sealed(const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  return it != recipes_.end() && it->second.sealed;
}

BackupAgent::Recipe& BackupAgent::open_recipe(const std::string& image_id) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  if (it->second.sealed) {
    throw ProtocolError(ProtocolViolation::kSealedImage,
                        "BackupAgent: data frame for sealed image: " +
                            image_id);
  }
  return it->second;
}

std::size_t BackupAgent::validate_batch(
    std::size_t n_digests, const std::vector<ExtentBatch::Extent>& extents,
    const std::vector<std::uint32_t>& payload_sizes, std::size_t payload_bytes,
    bool stripped) {
  std::size_t covered = 0;
  std::size_t n_unique = 0;
  for (const auto& e : extents) {
    if (e.first != covered || e.count == 0) {
      throw ProtocolError(ProtocolViolation::kBadExtentPartition,
                          "BackupAgent: extents do not partition the batch");
    }
    covered += e.count;
    if (e.unique) n_unique += e.count;
  }
  if (covered != n_digests) {
    throw ProtocolError(ProtocolViolation::kBadExtentPartition,
                        "BackupAgent: extents do not partition the batch");
  }
  if (payload_sizes.size() != n_unique) {
    throw ProtocolError(ProtocolViolation::kPayloadCountMismatch,
                        "BackupAgent: payload_sizes/unique-chunk count "
                        "mismatch");
  }
  std::uint64_t payload_total = 0;
  for (const std::uint32_t sz : payload_sizes) {
    if (sz == 0) {
      throw ProtocolError(ProtocolViolation::kEmptyChunk,
                          "BackupAgent: zero-byte unique chunk");
    }
    payload_total += sz;
  }
  // A stripped frame advertises sizes but ships no bytes; a full frame's
  // payload must slice exactly into the advertised sizes.
  const std::uint64_t expected = stripped ? 0 : payload_total;
  if (expected != payload_bytes) {
    throw ProtocolError(ProtocolViolation::kPayloadBytesMismatch,
                        "BackupAgent: payload bytes do not match "
                        "payload_sizes");
  }
  return n_unique;
}

void BackupAgent::admit_chunk(const dedup::ChunkDigest& digest,
                              ByteSpan bytes) {
  store_.put(digest, bytes);
  catalog_->lookup_or_insert(
      digest, dedup::ChunkLocation{catalog_offset_, bytes.size()});
  catalog_offset_ += bytes.size();
}

void BackupAgent::admit_chunk(const dedup::ChunkDigest& digest,
                              ByteVec&& bytes) {
  const std::size_t size = bytes.size();
  store_.put(digest, std::move(bytes));
  catalog_->lookup_or_insert(digest, dedup::ChunkLocation{catalog_offset_, size});
  catalog_offset_ += size;
}

void BackupAgent::receive_batch(const std::string& image_id,
                                const ExtentBatch& batch) {
  auto& recipe = open_recipe(image_id);
  validate_batch(batch.digests.size(), batch.extents, batch.payload_sizes,
                 batch.payload.size(), /*stripped=*/false);

  // A view of the concatenated unique payloads — never copied.
  const ByteSpan payload = as_bytes(batch.payload);
  std::size_t next_size = 0;  // index into payload_sizes
  std::size_t payload_off = 0;
  for (const auto& e : batch.extents) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const dedup::ChunkDigest& digest = batch.digests[e.first + k];
      if (e.unique) {
        const std::size_t sz = batch.payload_sizes[next_size++];
        admit_chunk(digest, payload.subspan(payload_off, sz));
        payload_off += sz;
      } else if (const auto pending = pending_repair_.find(digest);
                 pending != pending_repair_.end()) {
        // Pointer to a chunk whose payload is still in flight on the repair
        // path: defer the reference until the repair lands.
        ++pending->second;
      } else {
        // Membership goes through the catalog index (the modelled probe);
        // the ref-counted store stays the ground truth for payload bytes.
        if (!catalog_->lookup(digest).has_value() ||
            !store_.add_ref(digest)) {
          throw ProtocolError(
              ProtocolViolation::kUnknownPointer,
              "BackupAgent: pointer to unknown chunk (protocol violation)");
        }
      }
      recipe.chunks.push_back(digest);
    }
  }
}

std::vector<dedup::ChunkDigest> BackupAgent::receive_stripped(
    const std::string& image_id, const ExtentBatch& batch) {
  auto& recipe = open_recipe(image_id);
  validate_batch(batch.digests.size(), batch.extents, batch.payload_sizes,
                 batch.payload.size(), /*stripped=*/true);

  std::vector<dedup::ChunkDigest> newly_missing;
  for (const auto& e : batch.extents) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      const dedup::ChunkDigest& digest = batch.digests[e.first + k];
      if (!e.unique) {
        if (const auto pending = pending_repair_.find(digest);
            pending != pending_repair_.end()) {
          ++pending->second;
        } else if (!catalog_->lookup(digest).has_value() ||
                   !store_.add_ref(digest)) {
          throw ProtocolError(
              ProtocolViolation::kUnknownPointer,
              "BackupAgent: pointer to unknown chunk (protocol violation)");
        }
        recipe.chunks.push_back(digest);
        continue;
      }
      // Unique chunk whose payload was stripped by the sender. If the store
      // already holds it (an earlier image shipped the bytes) this is just a
      // reference; otherwise the digest becomes repair-pending.
      if (store_.add_ref(digest)) {
        recipe.chunks.push_back(digest);
        continue;
      }
      const auto [pending, inserted] = pending_repair_.try_emplace(digest, 1);
      if (!inserted) {
        ++pending->second;
      } else {
        newly_missing.push_back(digest);
      }
      recipe.chunks.push_back(digest);
    }
  }
  return newly_missing;
}

bool BackupAgent::receive_repair(const dedup::ChunkDigest& digest,
                                 ByteSpan payload) {
  const auto pending = pending_repair_.find(digest);
  if (pending == pending_repair_.end()) {
    return false;  // duplicated repair frame — already materialized
  }
  if (dedup::ChunkHasher::hash(payload) != digest) {
    throw ProtocolError(ProtocolViolation::kBadRepairPayload,
                        "BackupAgent: repair payload does not hash to its "
                        "digest");
  }
  const std::uint64_t refs = pending->second;
  pending_repair_.erase(pending);
  admit_chunk(digest, payload);  // stores with one reference
  for (std::uint64_t r = 1; r < refs; ++r) store_.add_ref(digest);
  return true;
}

bool BackupAgent::receive_repair(const dedup::ChunkDigest& digest,
                                 ByteVec&& payload) {
  const auto pending = pending_repair_.find(digest);
  if (pending == pending_repair_.end()) {
    return false;  // duplicated repair frame — already materialized
  }
  if (dedup::ChunkHasher::hash(as_bytes(payload)) != digest) {
    throw ProtocolError(ProtocolViolation::kBadRepairPayload,
                        "BackupAgent: repair payload does not hash to its "
                        "digest");
  }
  const std::uint64_t refs = pending->second;
  pending_repair_.erase(pending);
  admit_chunk(digest, std::move(payload));  // stores with one reference
  for (std::uint64_t r = 1; r < refs; ++r) store_.add_ref(digest);
  return true;
}

std::vector<dedup::ChunkDigest> BackupAgent::missing_chunks(
    const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  std::vector<dedup::ChunkDigest> missing;
  for (const auto& digest : it->second.chunks) {
    if (pending_repair_.count(digest) &&
        std::find(missing.begin(), missing.end(), digest) == missing.end()) {
      missing.push_back(digest);
    }
  }
  return missing;
}

ByteVec BackupAgent::recreate(const std::string& image_id) const {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: unknown image: " + image_id);
  }
  ByteVec out;
  for (const auto& digest : it->second.chunks) {
    const auto chunk = store_.get(digest);
    if (!chunk.has_value()) {
      throw ProtocolError(ProtocolViolation::kRecipeIncomplete,
                          "BackupAgent: missing chunk during recreate (" +
                              std::to_string(pending_repair_.size()) +
                              " repairs pending)");
    }
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  return out;
}

std::uint64_t BackupAgent::delete_image(const std::string& image_id) {
  const auto it = recipes_.find(image_id);
  if (it == recipes_.end()) {
    throw ProtocolError(ProtocolViolation::kUnknownImage,
                        "BackupAgent: delete of unknown image: " + image_id);
  }
  if (!it->second.sealed) {
    throw ProtocolError(ProtocolViolation::kImageInProgress,
                        "BackupAgent: delete of in-progress image: " +
                            image_id);
  }
  for (const auto& digest : it->second.chunks) {
    if (pending_repair_.count(digest)) {
      throw ProtocolError(ProtocolViolation::kRecipeIncomplete,
                          "BackupAgent: delete of image with pending repairs: " +
                              image_id);
    }
  }
  std::uint64_t released = 0;
  for (const auto& digest : it->second.chunks) {
    // The agent's own bookkeeping took one reference per occurrence (put for
    // unique chunks, add_ref for pointers), so the walk cannot underflow.
    const dedup::ReleaseOutcome out = store_.release_ref(digest);
    SHREDDER_CHECK_MSG(out == dedup::ReleaseOutcome::kLive ||
                           out == dedup::ReleaseOutcome::kReclaimed ||
                           out == dedup::ReleaseOutcome::kDeferred,
                       "BackupAgent: recipe references an unreferenced chunk");
    ++released;
  }
  recipes_.erase(it);
  return released;
}

}  // namespace shredder::backup
