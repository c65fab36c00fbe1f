#include "inchdfs/hdfs.h"

#include <stdexcept>

namespace shredder::inchdfs {

void DataNode::put(std::uint64_t block_id, ByteSpan data) {
  MutexLock lock(mutex_);
  auto [it, inserted] =
      blocks_.try_emplace(block_id, ByteVec(data.begin(), data.end()));
  if (!inserted) {
    throw std::invalid_argument("DataNode::put: block id already stored");
  }
  bytes_ += data.size();
}

std::optional<ByteVec> DataNode::get(std::uint64_t block_id) const {
  MutexLock lock(mutex_);
  const auto it = blocks_.find(block_id);
  if (it == blocks_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t DataNode::bytes_stored() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::uint64_t DataNode::blocks_stored() const {
  MutexLock lock(mutex_);
  return blocks_.size();
}

void NameNode::create_file(const std::string& name,
                           std::vector<BlockRef> blocks) {
  MutexLock lock(mutex_);
  auto [it, inserted] = files_.try_emplace(name, std::move(blocks));
  if (!inserted) {
    throw std::invalid_argument("NameNode: file exists: " + name);
  }
}

bool NameNode::exists(const std::string& name) const {
  MutexLock lock(mutex_);
  return files_.contains(name);
}

std::vector<BlockRef> NameNode::lookup(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw std::out_of_range("NameNode: no such file: " + name);
  }
  return it->second;
}

void NameNode::remove(const std::string& name) {
  MutexLock lock(mutex_);
  files_.erase(name);
}

std::uint64_t NameNode::file_count() const {
  MutexLock lock(mutex_);
  return files_.size();
}

std::uint64_t NameNode::next_block_id() {
  MutexLock lock(mutex_);
  return next_block_id_++;
}

MiniHdfs::MiniHdfs(std::uint32_t nodes) {
  if (nodes == 0) throw std::invalid_argument("MiniHdfs: need >= 1 datanode");
  for (std::uint32_t i = 0; i < nodes; ++i) datanodes_.emplace_back(i);
}

DataNode& MiniHdfs::datanode(std::uint32_t id) {
  if (id >= datanodes_.size()) {
    throw std::out_of_range("MiniHdfs: bad datanode id");
  }
  return datanodes_[id];
}

void MiniHdfs::write_file(const std::string& name,
                          const std::vector<ByteSpan>& blocks) {
  std::vector<BlockRef> refs;
  refs.reserve(blocks.size());
  for (const ByteSpan& block : blocks) {
    BlockRef ref;
    ref.block_id = namenode_.next_block_id();
    ref.datanode = next_node_;
    ref.size = block.size();
    ref.digest = dedup::ChunkHasher::hash(block);
    datanodes_[next_node_].put(ref.block_id, block);
    next_node_ = (next_node_ + 1) % datanodes_.size();
    refs.push_back(ref);
  }
  namenode_.create_file(name, std::move(refs));
}

ByteVec MiniHdfs::read_file(const std::string& name) const {
  ByteVec out;
  for (const auto& ref : namenode_.lookup(name)) {
    const auto block = datanodes_[ref.datanode].get(ref.block_id);
    if (!block.has_value()) {
      throw std::runtime_error("MiniHdfs: missing block");
    }
    out.insert(out.end(), block->begin(), block->end());
  }
  return out;
}

std::vector<ByteVec> MiniHdfs::read_blocks(const std::string& name) const {
  std::vector<ByteVec> out;
  for (const auto& ref : namenode_.lookup(name)) {
    auto block = datanodes_[ref.datanode].get(ref.block_id);
    if (!block.has_value()) {
      throw std::runtime_error("MiniHdfs: missing block");
    }
    out.push_back(std::move(*block));
  }
  return out;
}

std::uint64_t MiniHdfs::total_bytes_stored() const {
  std::uint64_t total = 0;
  for (const auto& node : datanodes_) total += node.bytes_stored();
  return total;
}

}  // namespace shredder::inchdfs
