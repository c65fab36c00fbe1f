#include "inchdfs/memo.h"

#include "inchdfs/mapreduce.h"

namespace shredder::inchdfs {

MemoServer::MapOutputPtr MemoServer::get_map(const dedup::ChunkDigest& key) {
  MutexLock lock(mutex_);
  const auto it = map_memo_.find(key);
  if (it == map_memo_.end()) {
    ++map_misses_;
    return nullptr;
  }
  ++map_hits_;
  return it->second;
}

void MemoServer::put_map(const dedup::ChunkDigest& key, MapOutputPtr value) {
  MutexLock lock(mutex_);
  map_memo_[key] = std::move(value);
}

std::optional<std::map<std::string, std::string>> MemoServer::get_reduce(
    const dedup::ChunkDigest& key) {
  MutexLock lock(mutex_);
  const auto it = reduce_memo_.find(key);
  if (it == reduce_memo_.end()) {
    ++reduce_misses_;
    return std::nullopt;
  }
  ++reduce_hits_;
  return it->second;
}

void MemoServer::put_reduce(const dedup::ChunkDigest& key,
                            std::map<std::string, std::string> value) {
  MutexLock lock(mutex_);
  reduce_memo_[key] = std::move(value);
}

MemoServer::CombinePtr MemoServer::get_combine(const dedup::ChunkDigest& key) {
  MutexLock lock(mutex_);
  const auto it = combine_memo_.find(key);
  if (it == combine_memo_.end()) {
    ++combine_misses_;
    return nullptr;
  }
  ++combine_hits_;
  return it->second;
}

void MemoServer::put_combine(const dedup::ChunkDigest& key, CombinePtr value) {
  MutexLock lock(mutex_);
  combine_memo_[key] = std::move(value);
}

std::uint64_t MemoServer::combine_hits() const {
  MutexLock lock(mutex_);
  return combine_hits_;
}
std::uint64_t MemoServer::combine_misses() const {
  MutexLock lock(mutex_);
  return combine_misses_;
}

std::uint64_t MemoServer::map_hits() const {
  MutexLock lock(mutex_);
  return map_hits_;
}
std::uint64_t MemoServer::map_misses() const {
  MutexLock lock(mutex_);
  return map_misses_;
}
std::uint64_t MemoServer::reduce_hits() const {
  MutexLock lock(mutex_);
  return reduce_hits_;
}
std::uint64_t MemoServer::reduce_misses() const {
  MutexLock lock(mutex_);
  return reduce_misses_;
}
std::uint64_t MemoServer::entries() const {
  MutexLock lock(mutex_);
  return map_memo_.size() + reduce_memo_.size();
}

}  // namespace shredder::inchdfs
