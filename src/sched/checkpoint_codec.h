// Shared pieces of the checkpoint binary codec (sched/checkpoint.cc),
// exposed so other persistence layers — the distributed explorer's
// wire frames and per-worker checkpoint files (src/dist) — encode
// structural exploration options and schedule choices byte-compatibly
// with the single-process checkpoint format instead of growing a
// second, subtly different codec.
//
// Everything here follows the support/binio.h discipline: decoders
// throw support::BinError on malformed input (out-of-range enum tags,
// implausible counts) and never return partially decoded state.
#pragma once

#include "sched/explore.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sched::codec {

/// The *structural* option fields only (bounds, POR, step order, stop
/// policy) — the resume-compatibility fingerprint.  Transient fields
/// (budgets, checkpoint paths, store tiering) are never serialized.
void encode_options(support::BinWriter& w, const ExploreOptions& o);
ExploreOptions decode_options(support::BinReader& r);

/// One schedule choice: u8 kind, u32 block, u32 warp.
void encode_choice(support::BinWriter& w, const sem::Choice& c);
sem::Choice decode_choice(support::BinReader& r);

}  // namespace cac::sched::codec
