// The checkpoint codec of the structural exploration options
// (sched/checkpoint.cc), which are also the resume fingerprint.
// Exposed so tests can round-trip the option bytes directly
// (tests/analysis/oracle_test.cc).
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

}  // namespace cac::sched::codec
