#include "core/sink.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace shredder {

ByteSpan ChunkBatchView::chunk_bytes(std::size_t i) const {
  const chunking::Chunk& c = chunks[i];
  if (c.offset >= payload_base) {
    const std::uint64_t rel = c.offset - payload_base;
    if (rel + c.size <= payload.size()) {
      return payload.subspan(static_cast<std::size_t>(rel),
                             static_cast<std::size_t>(c.size));
    }
  }
  // Chunks finalized late (min/max filtering) can start before the current
  // buffer; the retention window resolves them.
  if (tail != nullptr) {
    return tail->slice(c.offset, static_cast<std::size_t>(c.size));
  }
  return {};
}

void PayloadTail::append(core::SlotLease lease, std::size_t carry) {
  SHREDDER_CHECK_MSG(carry <= lease.size(),
                     "PayloadTail: carry exceeds the staged buffer");
  SHREDDER_CHECK_MSG(carry <= end_,
                     "PayloadTail: carry reaches before the stream start");
  if (lease.empty()) return;
  Segment seg;
  seg.base = end_ - carry;
  seg.lease = std::move(lease);
  end_ = seg.base + seg.lease.size();
  segments_.push_back(std::move(seg));
}

void PayloadTail::append(ByteSpan staged, std::size_t carry) {
  SHREDDER_CHECK_MSG(carry <= staged.size(),
                     "PayloadTail: carry exceeds the staged buffer");
  append(core::SlotLease::from_owned(ByteVec(staged.begin(), staged.end())),
         carry);
}

void PayloadTail::trim(std::uint64_t keep_from) {
  // A segment is droppable when everything at or past keep_from is covered
  // by the segments after it (their overlap makes the front redundant once
  // the next segment's base reaches keep_from), or — for the last segment —
  // when it ends at or before keep_from.
  while (!segments_.empty()) {
    const Segment& front = segments_.front();
    const bool redundant =
        segments_.size() > 1
            ? segments_[1].base <= keep_from
            : front.base + front.lease.size() <= keep_from;
    if (!redundant) break;
    segments_.pop_front();
  }
  // Slot-cap compaction: copy the oldest over-cap slot segments' retained
  // suffix into owned storage so their pinned slots recycle. Only the open
  // chunk's bytes survive a trim, so the copy is bounded by max_size, not
  // by the buffer size.
  std::size_t n_slots = slot_leases();
  for (auto& seg : segments_) {
    if (n_slots <= slot_cap_) break;
    if (!seg.lease.slot_backed()) continue;
    const std::uint64_t seg_end = seg.base + seg.lease.size();
    const std::uint64_t from = std::max(seg.base, keep_from);
    ByteVec kept;
    if (from < seg_end) {
      const ByteSpan b = seg.lease.bytes().subspan(
          static_cast<std::size_t>(from - seg.base),
          static_cast<std::size_t>(seg_end - from));
      kept.assign(b.begin(), b.end());
    }
    seg.base = from;
    seg.lease = core::SlotLease::from_owned(std::move(kept));
    --n_slots;
  }
}

ByteSpan PayloadTail::window() const noexcept {
  return segments_.empty() ? ByteSpan{} : segments_.back().lease.bytes();
}

std::uint64_t PayloadTail::window_base() const noexcept {
  return segments_.empty() ? end_ : segments_.back().base;
}

ByteSpan PayloadTail::slice(std::uint64_t offset, std::size_t len) const {
  if (len == 0) return {};
  const std::uint64_t want_end = offset + len;
  if (segments_.empty() || offset < base() || want_end > end_) return {};
  // Fast path: the newest segment whose base covers `offset` — if it holds
  // the whole range, alias it directly. (Later segments repeat earlier
  // bytes via the carry overlap, so preferring the newest is safe.)
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->base > offset) continue;
    if (want_end <= it->base + it->lease.size()) {
      return it->lease.bytes().subspan(
          static_cast<std::size_t>(offset - it->base), len);
    }
    break;
  }
  // The range spans segments: splice their overlaps into scratch. Adjacent
  // segments overlap by the carry, so some bytes are written twice with
  // identical values — harmless, and simpler than overlap bookkeeping.
  scratch_.resize(len);
  for (const Segment& seg : segments_) {
    const std::uint64_t seg_end = seg.base + seg.lease.size();
    const std::uint64_t lo = std::max(offset, seg.base);
    const std::uint64_t hi = std::min(want_end, seg_end);
    if (lo >= hi) continue;
    std::memcpy(scratch_.data() + static_cast<std::size_t>(lo - offset),
                seg.lease.bytes().data() + static_cast<std::size_t>(lo - seg.base),
                static_cast<std::size_t>(hi - lo));
  }
  return {scratch_.data(), scratch_.size()};
}

std::size_t PayloadTail::slot_leases() const noexcept {
  std::size_t n = 0;
  for (const Segment& seg : segments_) {
    if (seg.lease.slot_backed()) ++n;
  }
  return n;
}

}  // namespace shredder
