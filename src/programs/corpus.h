// A corpus of PTX kernels used throughout the tests, benches and
// examples.  The centerpiece is the paper's vector-sum walk-through
// (§IV): the verbatim Listing-1 PTX text and a hand-built program that
// matches Listing 2 instruction-for-instruction (20 instructions,
// PBra target 18, termination in exactly 19 grid steps).
#pragma once

#include <string>

#include "ptx/program.h"

namespace cac::programs {

// --- the paper's §IV example -------------------------------------------

/// Listing 1: the vector-sum PTX emitted by nvcc (parameters renamed to
/// arr_A/arr_B/arr_C/size as in the paper).
std::string vector_add_ptx();

/// Listing 2: the paper's hand translation.  ld.param appears as a
/// Param-space load (same instruction count); cvta.to instructions are
/// omitted; Sync at index 18, Exit at 19.
ptx::Program vector_add_listing2();

/// Conventional Global-space layout used by the vector-add examples.
struct VecAddLayout {
  std::uint64_t a = 0x100;
  std::uint64_t b = 0x200;
  std::uint64_t c = 0x300;
  std::uint64_t global_bytes = 0x400;
};

// --- further well-formed kernels ---------------------------------------

/// Keystream XOR (paper §I motivation: GPU cryptography):
/// C[i] = A[i] xor B[i] for i < size, bounds-guarded.
std::string xor_cipher_ptx();

/// Signature scan (paper §I motivation: GPU virus scanning): thread i
/// tests whether pattern[0..plen) occurs at data[i..i+plen) and writes
/// a 0/1 match flag.  The inner loop is predicated with selp, so the
/// only divergence is the bounds guard (well-nested, distinct joins).
std::string scan_signature_ptx();

/// Block-level tree reduction through Shared memory with bar.sync;
/// out[0] = sum(A[0..ntid)).  Exercises Shared valid-bit commits.
std::string reduce_shared_ptx();

/// Grid-wide sum via atom.add (the paper's atomics carve-out: atomic
/// stores commit with the valid bit set).
std::string atomic_sum_ptx();

/// Byte histogram: thread i bins data[i] into hist[data[i] & mask]
/// with atom.add — contended atomics across warps and blocks.
std::string histogram_ptx();

/// SAXPY-style kernel: Y[i] = a*X[i] + Y[i] for i < size, with the
/// scalar `a` a kernel parameter (symbolic in for-all-inputs proofs).
std::string saxpy_ptx();

/// Pairwise copy using vectorized memory accesses: thread i moves
/// in[2i..2i+1] to out[2i..2i+1] via ld.global.v2 / st.global.v2.
std::string copy_v2_ptx();

/// Warp-level butterfly reduction via shfl.bfly (no Shared memory, no
/// barriers): out[0] = sum(A[0..8)) for one 8-lane warp.
std::string warp_reduce_shfl_ptx();

/// Hillis–Steele inclusive prefix sum over one block through Shared
/// memory, double-barrier version: out[i] = A[0] + ... + A[i].
std::string scan_prefix_ptx();

// --- deliberately broken kernels (failure-injection corpus) ------------

/// The reduction with every bar.sync removed: shared reads see
/// uncommitted (invalid) bytes — the synchronization-bug class the
/// paper's memory model is designed to expose (§III-2).
std::string reduce_shared_nobar_ptx();

/// Barrier divergence: thread 0 waits at a barrier its warp siblings
/// never reach — the §III-8 deadlock scenario.
std::string barrier_divergence_ptx();

/// Every thread stores its own tid to out[0]: intra-warp store
/// conflict; the final value depends on the lane order.
std::string race_store_ptx();

/// Hand-built: a divergent branch with NO reconvergence Sync before
/// Exit; the warp gets stuck divergent at Exit.
ptx::Program divergent_exit_program();

/// Hand-built: straight-line per-thread arithmetic (no branches, no
/// memory), handy for scheduler-transparency sweeps.
ptx::Program straightline_program(unsigned n_ops);

/// Kernel `unrolled`: `copies` blocks of 7 instructions, block j
/// computing out[j*ntid + tid] = in[j*ntid + tid] + j.  Straight-line
/// code with 2*copies Global access sites that lints clean, perf
/// passes included: the shape of a long unrolled kernel.
std::string unrolled_ptx(unsigned copies);

}  // namespace cac::programs
