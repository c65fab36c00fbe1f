// Fixture: the backup site's receive-side catalog is the one probe allowed
// outside dedup/ by the single-ingest-decision rule.
#include "dedup/index.h"

namespace shredder::backup {
void admit(dedup::IndexBackend& catalog, const dedup::ChunkDigest& d) {
  catalog.lookup_or_insert(d, dedup::ChunkLocation{});
}
}  // namespace shredder::backup
