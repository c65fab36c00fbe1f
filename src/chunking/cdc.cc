#include "chunking/cdc.h"

#include "chunking/minmax.h"

namespace shredder::chunking {

const char* scan_buffer_path() noexcept {
  return detail::window_sum_supported() ? "window-sum (AVX-512BW+GFNI)"
                                        : "scalar lanes";
}

std::vector<std::uint64_t> find_raw_boundaries(const rabin::RabinTables& tables,
                                               const ChunkerConfig& config,
                                               ByteSpan data) {
  config.validate();
  std::vector<std::uint64_t> ends;
  scan_buffer(tables, config, data, /*warmup=*/0, /*base=*/0,
              [&](std::uint64_t end, std::uint64_t) { ends.push_back(end); });
  return ends;
}

std::vector<Chunk> chunk_serial(const rabin::RabinTables& tables,
                                const ChunkerConfig& config, ByteSpan data) {
  const auto raw = find_raw_boundaries(tables, config, data);
  const auto ends =
      apply_min_max(raw, data.size(), config.min_size, config.max_size);
  return boundaries_to_chunks(ends, data.size());
}

}  // namespace shredder::chunking
