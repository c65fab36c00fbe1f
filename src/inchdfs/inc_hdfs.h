// Inc-HDFS client (paper §6.2–6.3): content-defined, record-aligned block
// placement via the Shredder chunking service, plus the stock fixed-size
// upload path for comparison.
//
// The shell analogy: copy_from_local == `hdfs -copyFromLocal` (fixed-size
// blocks), copy_from_local_gpu == the new `-copyFromLocalGPU` command, which
// pushes the file through Shredder's GPU pipeline, aligns the resulting
// boundaries to record boundaries (semantic chunking), and uploads the
// chunks as blocks whose identity is the SHA-256 of their content.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/shredder.h"
#include "inchdfs/hdfs.h"
#include "inchdfs/input_format.h"

namespace shredder::inchdfs {

// An input split handed to a Map task: the payload plus its content digest
// (the memoization key for incremental MapReduce).
struct Split {
  dedup::ChunkDigest digest;
  ByteVec data;
};

struct UploadStats {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  double chunking_virtual_seconds = 0;  // Shredder pipeline model time
  double wall_seconds = 0;
};

class IncHdfsClient {
 public:
  explicit IncHdfsClient(MiniHdfs& fs) : fs_(&fs) {}

  // Stock HDFS path: fixed-size blocks (default 64 KB to keep in-process
  // experiments dense; the constant does not change any conclusion). When a
  // format is supplied, boundaries are record-aligned the way Hadoop's
  // InputSplit logic extends splits to record boundaries.
  UploadStats copy_from_local(const std::string& name, ByteSpan data,
                              std::uint64_t block_size = 64 * 1024,
                              const InputFormat* format = nullptr);

  // Shredder path: content-defined chunking on the (simulated) GPU, record
  // alignment through `format`, then upload.
  UploadStats copy_from_local_gpu(const std::string& name, ByteSpan data,
                                  const InputFormat& format,
                                  core::Shredder& shredder);

  // Reads a file's blocks back as splits (digest + payload).
  std::vector<Split> read_splits(const std::string& name) const;

 private:
  UploadStats upload(const std::string& name, ByteSpan data,
                     const std::vector<std::uint64_t>& boundaries);

  MiniHdfs* fs_;
};

}  // namespace shredder::inchdfs
