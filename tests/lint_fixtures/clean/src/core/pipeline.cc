// Fixture: the engine's per-stream cutter is the one place outside
// src/chunking/ that may run the min/max filter (single cut).
#include "chunking/minmax.h"

namespace shredder::core {
struct StreamCutter {
  chunking::MinMaxFilter filter{0, 0, [](std::uint64_t) {}};
};
}  // namespace shredder::core
