// Canonical chunk-fingerprint type of the dedup/backup stack.
//
// The one content digest of the system. The index, the content-addressed
// store, the backup agent and the GPU fingerprint stage identify chunks by
// SHA-256 (the digest the on-device hash kernel produces; see
// docs/fingerprint.md); Inc-HDFS block identities and the incremental
// MapReduce memo keys (inchdfs), and the redundancy-elimination tokens
// (redelim) use the same type and hasher.
#pragma once

#include "dedup/sha256.h"

namespace shredder::dedup {

using ChunkDigest = Sha256Digest;
using ChunkDigestHash = Sha256DigestHash;
using ChunkHasher = Sha256;

}  // namespace shredder::dedup
