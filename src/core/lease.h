// Refcounted payload leases: the zero-copy hand-off between the pipeline's
// pinned staging ring and downstream consumers (docs/zero_copy.md).
//
// A SlotLease is a shared, immutable view of one buffer's staged bytes.
// Slot-backed leases alias a pinned ring slot directly: the slot returns to
// the free list when the LAST lease referencing it drops — not when the H2D
// DMA completes — so the store stage, a payload-slicing ChunkSink and the
// service's dedup store thread can all read the staged bytes without a host
// copy. Ring backpressure extends naturally to slow consumers: submit()
// blocks while they hold slots, and the pipeline.slots_leased gauge tracks
// the outstanding count. Owned leases wrap a plain ByteVec for producers
// without a ring (basic/pageable mode) and for PayloadTail compaction.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "gpusim/pinned.h"
#include "obs/registry.h"

namespace shredder::core {
namespace detail {

// Owns the pinned staging ring plus its free-slot accounting. Held by
// shared_ptr from the engine AND from every slot-backed lease, so leases
// stay valid after the engine dies. acquire() is the engine-level
// backpressure point: it blocks while every slot is leased and returns
// nullopt once stop() has run — even when slots are free, because a
// stopping engine must not hand out new work.
class SlotPool {
 public:
  SlotPool(const gpu::DeviceSpec& spec, std::size_t slots,
           std::size_t slot_size);

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  std::optional<std::size_t> acquire();
  void release(std::size_t slot);

  // Wakes every acquire() waiter with nullopt. Outstanding leases stay
  // valid and still release into the free list.
  void stop();

  // Publishes the outstanding-lease count into `gauge`; nullptr detaches.
  // The engine detaches before its registry can die, because leases held by
  // consumers may outlive both.
  void set_gauge(obs::Gauge* gauge);

  MutableByteSpan slot_span(std::size_t index) noexcept {
    return ring_.slot_span(index);
  }
  double construction_cost_seconds() const noexcept {
    return ring_.construction_cost_seconds();
  }
  // Leases currently outstanding (slot-leak checks in tests).
  std::size_t leased() const;

 private:
  gpu::PinnedRing ring_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::size_t> free_ GUARDED_BY(mu_);
  std::size_t leased_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
  obs::Gauge* gauge_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace detail

// Shared immutable view of one staged buffer (see file comment). Copies
// share the underlying storage — pinned slot or owned vector — which is
// released when the last copy drops.
class SlotLease {
 public:
  SlotLease() = default;

  SlotLease(const SlotLease&) = default;
  SlotLease& operator=(const SlotLease&) = default;
  SlotLease(SlotLease&& other) noexcept
      : rep_(std::move(other.rep_)), span_(other.span_) {
    other.span_ = {};
  }
  SlotLease& operator=(SlotLease&& other) noexcept {
    rep_ = std::move(other.rep_);
    span_ = other.span_;
    other.span_ = {};
    return *this;
  }

  // Wraps bytes the lease owns outright (pageable-mode staging, tail
  // compaction copies).
  static SlotLease from_owned(ByteVec bytes);

  // Aliases `len` bytes of `pool`'s slot `slot`; the slot is released back
  // to the pool when the last lease drops.
  static SlotLease from_slot(std::shared_ptr<detail::SlotPool> pool,
                             std::size_t slot, std::size_t len);

  ByteSpan bytes() const noexcept { return span_; }
  // The first `n` bytes of this view, sharing its storage.
  SlotLease first(std::size_t n) const;
  std::size_t size() const noexcept { return span_.size(); }
  bool empty() const noexcept { return span_.empty(); }
  bool slot_backed() const noexcept;
  explicit operator bool() const noexcept { return rep_ != nullptr; }
  void reset() noexcept {
    rep_.reset();
    span_ = {};
  }

 private:
  struct Rep;
  SlotLease(std::shared_ptr<const Rep> rep, ByteSpan span)
      : rep_(std::move(rep)), span_(span) {}

  std::shared_ptr<const Rep> rep_;
  ByteSpan span_;
};

}  // namespace shredder::core
