#include "core/lease.h"

#include <utility>

#include "common/check.h"

namespace shredder::core {
namespace detail {

SlotPool::SlotPool(const gpu::DeviceSpec& spec, std::size_t slots,
                   std::size_t slot_size)
    : ring_(spec, slots, slot_size) {
  free_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) free_.push_back(i);
}

std::optional<std::size_t> SlotPool::acquire() {
  MutexLock lock(mu_);
  while (free_.empty() && !stopping_) cv_.wait(mu_);
  if (stopping_) return std::nullopt;
  const std::size_t slot = free_.back();
  free_.pop_back();
  ++leased_;
  if (gauge_ != nullptr) gauge_->set(static_cast<double>(leased_));
  return slot;
}

void SlotPool::release(std::size_t slot) {
  {
    MutexLock lock(mu_);
    SHREDDER_CHECK_MSG(leased_ > 0, "SlotPool: release without a lease");
    free_.push_back(slot);
    --leased_;
    if (gauge_ != nullptr) gauge_->set(static_cast<double>(leased_));
  }
  cv_.notify_one();
}

void SlotPool::stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

void SlotPool::set_gauge(obs::Gauge* gauge) {
  MutexLock lock(mu_);
  gauge_ = gauge;
  if (gauge_ != nullptr) gauge_->set(static_cast<double>(leased_));
}

std::size_t SlotPool::leased() const {
  MutexLock lock(mu_);
  return leased_;
}

}  // namespace detail

struct SlotLease::Rep {
  ByteVec owned;
  std::unique_ptr<std::uint8_t[]> owned_raw;
  std::shared_ptr<detail::SlotPool> pool;
  std::size_t slot = 0;
  bool slot_backed = false;

  Rep() = default;
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;
  ~Rep() {
    if (slot_backed) pool->release(slot);
  }
};

SlotLease SlotLease::from_owned(ByteVec bytes) {
  auto rep = std::make_shared<Rep>();
  rep->owned = std::move(bytes);
  const ByteSpan span{rep->owned.data(), rep->owned.size()};
  return SlotLease(std::move(rep), span);
}

SlotLease SlotLease::from_owned(std::unique_ptr<std::uint8_t[]> bytes,
                               std::size_t size) {
  auto rep = std::make_shared<Rep>();
  rep->owned_raw = std::move(bytes);
  const ByteSpan span{rep->owned_raw.get(), size};
  return SlotLease(std::move(rep), span);
}

SlotLease SlotLease::from_slot(std::shared_ptr<detail::SlotPool> pool,
                               std::size_t slot, std::size_t len) {
  SHREDDER_CHECK_MSG(pool != nullptr, "SlotLease: null pool");
  auto rep = std::make_shared<Rep>();
  rep->pool = std::move(pool);
  rep->slot = slot;
  rep->slot_backed = true;
  const MutableByteSpan storage = rep->pool->slot_span(slot);
  SHREDDER_CHECK_MSG(len <= storage.size(),
                     "SlotLease: length exceeds the slot");
  return SlotLease(std::move(rep), ByteSpan{storage.data(), len});
}

SlotLease SlotLease::first(std::size_t n) const {
  SHREDDER_CHECK_MSG(n <= span_.size(), "SlotLease: prefix exceeds the view");
  return SlotLease(rep_, span_.first(n));
}

bool SlotLease::slot_backed() const noexcept {
  return rep_ != nullptr && rep_->slot_backed;
}

}  // namespace shredder::core
