#include "gpusim/device.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/timer.h"

namespace shredder::gpu {

BlockCtx::BlockCtx(int block_idx, const LaunchConfig& config,
                   const DeviceSpec& spec,
                   std::vector<std::uint64_t>* exact_addrs)
    : block_idx_(block_idx),
      config_(&config),
      spec_(&spec),
      exact_addrs_(exact_addrs) {}

void BlockCtx::record_global_read(std::uint64_t addr,
                                  std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  const std::uint64_t txn = config_->txn_bytes;
  const std::uint64_t n = (bytes + txn - 1) / txn;
  counters_.transactions += n;
  if (exact_addrs_ != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) {
      exact_addrs_->push_back(addr + i * txn);
    }
  }
}

DeviceBuffer::DeviceBuffer(Device* device, std::size_t size, std::uint64_t addr)
    : device_(device), data_(size), device_addr_(addr) {}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : device_(other.device_),
      data_(std::move(other.data_)),
      device_addr_(other.device_addr_) {
  other.device_ = nullptr;
  other.data_.clear();
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    if (device_ != nullptr) device_->release(data_.size());
    device_ = other.device_;
    data_ = std::move(other.data_);
    device_addr_ = other.device_addr_;
    other.device_ = nullptr;
    other.data_.clear();
  }
  return *this;
}

DeviceBuffer::~DeviceBuffer() {
  if (device_ != nullptr) device_->release(data_.size());
}

Device::Device(DeviceSpec spec, std::size_t worker_threads)
    : spec_(spec), pool_(worker_threads) {}

DeviceBuffer Device::alloc(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Device::alloc: size 0");
  std::uint64_t addr = 0;
  {
    MutexLock lock(mutex_);
    if (allocated_ + size > spec_.global_mem_bytes) {
      throw std::runtime_error(
          "Device::alloc: out of device memory (2.6 GB simulated capacity)");
    }
    allocated_ += size;
    // Device addresses are row-aligned so buffers start on a fresh row.
    addr = next_addr_;
    const std::uint64_t align = spec_.row_bytes;
    next_addr_ += (size + align - 1) / align * align;
  }
  return DeviceBuffer(this, size, addr);
}

std::uint64_t Device::allocated_bytes() const noexcept {
  MutexLock lock(mutex_);
  return allocated_;
}

void Device::release(std::uint64_t bytes) noexcept {
  MutexLock lock(mutex_);
  SHREDDER_CHECK(allocated_ >= bytes);
  allocated_ -= bytes;
}

double Device::memcpy_h2d(DeviceBuffer& dst, std::size_t dst_offset,
                          ByteSpan src, HostMemKind kind) {
  if (dst_offset + src.size() > dst.size()) {
    throw std::invalid_argument("memcpy_h2d: out of range");
  }
  std::memcpy(dst.span().data() + dst_offset, src.data(), src.size());
  return dma_seconds(spec_, src.size(), Direction::kHostToDevice, kind);
}

double Device::memcpy_d2h(MutableByteSpan dst, const DeviceBuffer& src,
                          std::size_t src_offset, HostMemKind kind) {
  if (src_offset + dst.size() > src.size()) {
    throw std::invalid_argument("memcpy_d2h: out of range");
  }
  std::memcpy(dst.data(), src.span().data() + src_offset, dst.size());
  return dma_seconds(spec_, dst.size(), Direction::kDeviceToHost, kind);
}

KernelRunStats Device::launch(const LaunchConfig& config, const KernelFn& fn) {
  if (config.blocks <= 0 || config.threads_per_block <= 0) {
    throw std::invalid_argument("launch: blocks/threads must be positive");
  }
  if (config.txn_bytes == 0) {
    throw std::invalid_argument("launch: txn_bytes must be positive");
  }
  Stopwatch wall;

  // Per-block work counters and (optionally) exact address traces.
  std::vector<std::vector<std::uint64_t>> traces(
      config.exact_dram ? static_cast<std::size_t>(config.blocks) : 0);
  std::vector<BlockCounters> counters(static_cast<std::size_t>(config.blocks));

  pool_.for_each_index(static_cast<std::size_t>(config.blocks),
                       [&](std::size_t b) {
                         BlockCtx ctx(static_cast<int>(b), config, spec_,
                                      config.exact_dram ? &traces[b] : nullptr);
                         fn(ctx);
                         counters[b] = ctx.counters();
                       });

  KernelRunStats stats;
  for (const BlockCounters& c : counters) {
    stats.bytes_processed += c.bytes_processed;
    stats.transactions += c.transactions;
    stats.shared_staged_bytes += c.shared_staged_bytes;
  }
  stats.bytes_fetched = stats.transactions * spec_.burst_bytes;

  // Row-switch fraction: exact replay (SIMT round-robin across block traces)
  // or the analytic estimator.
  if (config.exact_dram) {
    DramSimulator dram(spec_);
    bool any = true;
    std::vector<std::size_t> cursor(traces.size(), 0);
    while (any) {
      any = false;
      for (std::size_t b = 0; b < traces.size(); ++b) {
        if (cursor[b] < traces[b].size()) {
          dram.access(traces[b][cursor[b]++], config.txn_bytes);
          any = true;
        }
      }
    }
    stats.row_switch_fraction = dram.stats().row_switch_fraction();
  } else {
    const std::uint64_t streams =
        config.concurrent_streams != 0
            ? config.concurrent_streams
            : static_cast<std::uint64_t>(config.total_threads());
    stats.row_switch_fraction =
        estimate_row_switch_fraction(spec_, streams, config.txn_bytes);
  }

  const double cpb = config.cycles_per_byte > 0 ? config.cycles_per_byte
                                                : spec_.compute_cycles_per_byte;
  stats.compute_seconds =
      static_cast<double>(stats.bytes_processed) * cpb /
      (static_cast<double>(spec_.total_sps()) * spec_.clock_hz);
  stats.memory_seconds =
      dram_time_seconds(spec_, stats.transactions, stats.row_switch_fraction);
  stats.launch_seconds = stats.bytes_processed >= spec_.launch_large_threshold
                             ? spec_.launch_large_s
                             : spec_.launch_small_s;
  stats.virtual_seconds =
      stats.launch_seconds + std::max(stats.compute_seconds, stats.memory_seconds);
  stats.wall_seconds = wall.elapsed_seconds();
  return stats;
}

}  // namespace shredder::gpu
