// Shared pieces of the checkpoint binary codec (sched/checkpoint.cc),
// exposed so other persistence layers — the distributed explorer's
// wire frames and per-worker checkpoint files (src/dist) — encode
// structural exploration options and graph nodes byte-compatibly with
// the single-process checkpoint format instead of growing a second,
// subtly different codec.
//
// Everything here follows the support/binio.h discipline: decoders
// throw support::BinError on malformed input (out-of-range enum tags,
// implausible counts) and never return partially decoded state.
#pragma once

#include <vector>

#include "sched/explore.h"
#include "sched/graph.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sched::codec {

/// The *structural* option fields only (bounds, POR, step order, stop
/// policy) — the resume-compatibility fingerprint.  Transient fields
/// (budgets, checkpoint paths, thread counts) are never serialized.
void encode_options(support::BinWriter& w, const ExploreOptions& o);
ExploreOptions decode_options(support::BinReader& r);

/// The one graph-node codec (graph.h), shared by the parallel
/// checkpoint section and the distributed graph parts and partition
/// checkpoints.  Per node: u32 id, u8 flags (bit 0 classified, bit 1
/// terminal, bit 2 stuck), str stuck reason, u64 edge count; per edge:
/// choice, u8 flags (bit 0 fault, bit 1 overflow), u64 child Gid, str
/// fault.  Decoding rejects flag patterns no engine writes.
void encode_nodes(support::BinWriter& w, const std::vector<NodeRecord>& ns);
std::vector<NodeRecord> decode_nodes(support::BinReader& r);

}  // namespace cac::sched::codec
