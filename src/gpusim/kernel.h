// Kernel launch/execution types for the simulated GPU.
//
// A kernel is a C++ callable executed once per thread block (CUDA's dynamic
// block-to-SM scheduling is modelled by a host thread pool). The callable
// does *real* work on real bytes; it reports its memory behaviour through
// BlockCtx so the launch can convert the work into virtual C2050 time:
//
//   virtual time = launch overhead + max(compute time, device-memory time)
//
// compute time  = bytes_processed * cycles_per_byte / (SMs * SPs * clock)
// memory time   = DRAM transaction accounting (gpusim/dram.h) using the
//                 row-switch fraction for the launch's access pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "gpusim/spec.h"

namespace shredder::gpu {

struct LaunchConfig {
  int blocks = 1;
  int threads_per_block = 128;
  // Compute intensity of this kernel's inner loop, SP cycles per processed
  // byte. Defaults to the Rabin loop cost from DeviceSpec when <= 0.
  double cycles_per_byte = -1.0;
  // Number of concurrent access streams presented to DRAM (the row-switch
  // estimator's input): total threads for the per-thread-substream pattern,
  // ~num_sms for the block-cooperative (coalesced) pattern. When 0, defaults
  // to blocks * threads_per_block.
  std::uint64_t concurrent_streams = 0;
  // Transaction size presented to DRAM by this kernel.
  std::uint64_t txn_bytes = 16;
  // When true, every transaction address is recorded and replayed through
  // the exact DramSimulator in SIMT round-robin order (tests / small runs).
  bool exact_dram = false;

  int total_threads() const noexcept { return blocks * threads_per_block; }
};

struct KernelRunStats {
  double virtual_seconds = 0;   // launch + max(compute, memory)
  double launch_seconds = 0;
  double compute_seconds = 0;
  double memory_seconds = 0;
  double row_switch_fraction = 0;
  std::uint64_t transactions = 0;
  std::uint64_t bytes_processed = 0;
  std::uint64_t bytes_fetched = 0;  // full DRAM bursts
  std::uint64_t shared_staged_bytes = 0;
  double wall_seconds = 0;      // real host time spent simulating

  // Aggregates per-launch stats across buffers. Times/counters add;
  // row_switch_fraction is constant for a fixed launch configuration, so
  // the latest value stands.
  KernelRunStats& operator+=(const KernelRunStats& o) noexcept {
    virtual_seconds += o.virtual_seconds;
    launch_seconds += o.launch_seconds;
    compute_seconds += o.compute_seconds;
    memory_seconds += o.memory_seconds;
    row_switch_fraction = o.row_switch_fraction;
    transactions += o.transactions;
    bytes_processed += o.bytes_processed;
    bytes_fetched += o.bytes_fetched;
    shared_staged_bytes += o.shared_staged_bytes;
    wall_seconds += o.wall_seconds;
    return *this;
  }
};

// Work recorded by one block, in plain block-local counters. The launch
// sums every block's counters once all blocks have finished.
struct BlockCounters {
  std::uint64_t bytes_processed = 0;
  std::uint64_t transactions = 0;
  std::uint64_t shared_staged_bytes = 0;
};

// Per-block execution context handed to the kernel callable.
class BlockCtx {
 public:
  BlockCtx(int block_idx, const LaunchConfig& config, const DeviceSpec& spec,
           std::vector<std::uint64_t>* exact_addrs);

  int block_idx() const noexcept { return block_idx_; }
  int num_blocks() const noexcept { return config_->blocks; }
  int threads_per_block() const noexcept { return config_->threads_per_block; }
  int total_threads() const noexcept { return config_->total_threads(); }
  const DeviceSpec& spec() const noexcept { return *spec_; }

  // Size of this block's on-chip shared memory (DeviceSpec::
  // shared_mem_per_sm). Kernels model staging against it and account it
  // with record_shared_stage; no kernel keeps data there.
  std::size_t shared_bytes() const noexcept {
    return static_cast<std::size_t>(spec_->shared_mem_per_sm);
  }

  // Accounts `bytes` of input consumed by the kernel's compute loop.
  void record_processed(std::uint64_t bytes) noexcept {
    counters_.bytes_processed += bytes;
  }

  // Accounts a global-memory read of `bytes` issued as `txn_bytes`-sized
  // transactions starting at device address `addr`.
  void record_global_read(std::uint64_t addr, std::uint64_t bytes) noexcept;

  // Accounts data staged into shared memory by the cooperative fetch.
  void record_shared_stage(std::uint64_t bytes) noexcept {
    counters_.shared_staged_bytes += bytes;
  }

  // Everything this block recorded so far.
  const BlockCounters& counters() const noexcept { return counters_; }

 private:
  int block_idx_;
  const LaunchConfig* config_;
  const DeviceSpec* spec_;
  BlockCounters counters_;
  std::vector<std::uint64_t>* exact_addrs_;  // non-null in exact_dram mode
};

using KernelFn = std::function<void(BlockCtx&)>;

}  // namespace shredder::gpu
