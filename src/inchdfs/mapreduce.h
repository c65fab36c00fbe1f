// Miniature MapReduce runtime with Incoop-style task memoization
// (paper §6.1): map tasks keyed by their input split's content digest,
// reduce tasks keyed by the digests of their shuffled input partitions.
// Running with a MemoServer is "Incoop"; running without is stock "Hadoop".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dedup/digest.h"
#include "inchdfs/inc_hdfs.h"
#include "inchdfs/memo.h"

namespace shredder::inchdfs {

struct KeyValue {
  std::string key;
  std::string value;

  friend bool operator==(const KeyValue&, const KeyValue&) = default;
};

// Collects map-task output and partitions it across reducers. Emission
// order is normalised (sorted) at finalize time so a split's bucket content
// is a pure function of the split content — the property reduce memoization
// rests on.
class MapEmitter {
 public:
  explicit MapEmitter(std::size_t num_reducers);

  void emit(std::string key, std::string value);

  // Sorts buckets and computes their digests. Called by the engine.
  void finalize();

  const std::vector<std::vector<KeyValue>>& buckets() const noexcept {
    return buckets_;
  }
  const std::vector<dedup::ChunkDigest>& bucket_digests() const noexcept {
    return digests_;
  }

  // Deterministic cross-platform partition function.
  static std::size_t partition(const std::string& key,
                               std::size_t num_reducers) noexcept;

 private:
  std::vector<std::vector<KeyValue>> buckets_;
  std::vector<dedup::ChunkDigest> digests_;
};

struct JobSpec {
  std::string name;
  // Non-input parameters that affect the computation (e.g. the K-means
  // centroids of this iteration); folded into every memo key.
  std::string params_digest;
  std::function<void(const Split&, MapEmitter&)> map_fn;
  std::function<std::string(const std::string& key,
                            const std::vector<std::string>& values)>
      reduce_fn;
  // Optional associative combiner (value x value -> value, same signature as
  // reduce). When set, reducers aggregate their inputs through a memoized
  // CONTRACTION TREE (Incoop's mechanism for incremental reduce): buckets
  // are grouped content-defined by their digests, each group's combined
  // result is memoized, and a change to one input bucket only recomputes the
  // log-depth path of groups containing it instead of the whole reduction.
  std::function<std::string(const std::string& key,
                            const std::vector<std::string>& values)>
      combine_fn;
  // Contraction only pays when buckets are large relative to the distinct
  // key count (long per-key value lists); for saturated small vocabularies
  // the upper tree levels redo near-full-width work on every dirty path and
  // the flat memoized reduce wins, so it is opt-in.
  bool use_contraction = false;
  std::size_t num_reducers = 8;

  void validate() const;
};

struct JobStats {
  std::uint64_t map_tasks = 0;
  std::uint64_t map_reused = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t reduce_reused = 0;
  double wall_seconds = 0;
};

struct JobResult {
  std::map<std::string, std::string> output;  // merged reducer outputs
  JobStats stats;
};

class MapReduceEngine {
 public:
  explicit MapReduceEngine(std::size_t threads = 0) : pool_(threads) {}

  // Runs the job over `splits`. With `memo` non-null, map and reduce tasks
  // whose memoized results are valid are skipped (Incoop); with nullptr
  // everything recomputes (Hadoop).
  JobResult run(const JobSpec& job, const std::vector<Split>& splits,
                MemoServer* memo);

 private:
  ThreadPool pool_;
};

}  // namespace shredder::inchdfs
