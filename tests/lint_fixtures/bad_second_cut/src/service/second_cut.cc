// Fixture: a frontend running its own min/max filter over raw boundaries
// instead of consuming the engine's chunk ends — a second cut. The
// self-test asserts the "single cut" wording appears. A mention of
// MinMaxFilter inside a comment, like this one, must not count.
#include "chunking/minmax.h"

namespace shredder::service {
std::uint64_t second_cut(const std::vector<std::uint64_t>& raw) {
  std::uint64_t n = 0;
  chunking::MinMaxFilter filter(0, 0, [&](std::uint64_t) { ++n; });
  for (const std::uint64_t b : raw) filter.push(b);
  return n;
}
}  // namespace shredder::service
