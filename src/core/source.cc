#include "core/source.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/rng.h"

namespace shredder::core {

MemorySource::MemorySource(ByteSpan data, double channel_bw)
    : data_(data), channel_bw_(channel_bw) {
  if (channel_bw <= 0) {
    throw std::invalid_argument("MemorySource: bandwidth must be positive");
  }
}

std::size_t MemorySource::read(MutableByteSpan dst) {
  const std::size_t n = std::min(dst.size(), data_.size() - offset_);
  if (n != 0) std::memcpy(dst.data(), data_.data() + offset_, n);
  offset_ += n;
  return n;
}

double MemorySource::read_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / channel_bw_;
}

FileSource::FileSource(const std::string& path, double channel_bw)
    : channel_bw_(channel_bw) {
  if (channel_bw <= 0) {
    throw std::invalid_argument("FileSource: bandwidth must be positive");
  }
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("FileSource: cannot open " + path);
  }
  // fopen succeeds on a directory, whose reads then return 0 as if empty.
  struct stat st {};
  if (::fstat(::fileno(file_), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(file_);
    throw std::runtime_error("FileSource: not a regular file: " + path);
  }
  total_ = static_cast<std::uint64_t>(st.st_size);
}

FileSource::~FileSource() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t FileSource::read(MutableByteSpan dst) {
  const std::size_t n = std::fread(dst.data(), 1, dst.size(), file_);
  if (std::ferror(file_) != 0) {
    throw std::runtime_error("FileSource: read error");
  }
  return n;
}

double FileSource::read_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / channel_bw_;
}

SyntheticSource::SyntheticSource(std::uint64_t total, std::uint64_t seed,
                                 double channel_bw)
    : total_(total), seed_(seed), channel_bw_(channel_bw) {
  if (channel_bw <= 0) {
    throw std::invalid_argument("SyntheticSource: bandwidth must be positive");
  }
}

std::size_t SyntheticSource::read(MutableByteSpan dst) {
  const std::uint64_t remaining = total_ - produced_;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(dst.size(), remaining));
  // Deterministic content independent of read granularity: each 8-byte
  // aligned word of the stream is SplitMix64(seed ^ word_index), computed
  // once per word rather than per byte.
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = produced_ + i;
    const std::uint64_t word_index = pos / 8;
    SplitMix64 rng(seed_ ^ (word_index * 0x9e3779b97f4a7c15ull));
    const std::uint64_t w = rng.next();
    const std::size_t byte_in_word = static_cast<std::size_t>(pos % 8);
    const std::size_t take = std::min<std::size_t>(8 - byte_in_word, n - i);
    for (std::size_t b = 0; b < take; ++b) {
      dst[i + b] = static_cast<std::uint8_t>(w >> (8 * (byte_in_word + b)));
    }
    i += take;
  }
  produced_ += n;
  return n;
}

double SyntheticSource::read_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / channel_bw_;
}

}  // namespace shredder::core
