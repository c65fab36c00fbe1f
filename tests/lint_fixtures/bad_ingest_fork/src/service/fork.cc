// Fixture: an ingest frontend walking the fingerprint index itself instead of
// calling dedup::Deduplicator — a forked probe -> ref -> store decision. The
// self-test asserts the "single ingest decision" wording appears. A mention
// of lookup_or_insert( inside a comment, like this one, must not count.
#include "dedup/index.h"

namespace shredder::service {
bool forked_decision(dedup::IndexBackend& index, const dedup::ChunkDigest& d) {
  return !index.lookup_or_insert(d, dedup::ChunkLocation{}).has_value();
}
}  // namespace shredder::service
