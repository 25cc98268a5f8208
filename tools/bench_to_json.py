#!/usr/bin/env python3
"""Run a google-benchmark binary and snapshot its results as JSON.

Stdlib only.  Default invocation (from the repo root, after building):

    python3 tools/bench_to_json.py \
        --binary build/bench/bench_parallel_explore \
        --binary build/bench/bench_checkpoint \
        --out BENCH_explore.json

`--binary` may be repeated; results from all binaries are merged into
one snapshot (each record keeps a `binary` field naming its source).

The snapshot keeps the benchmark context (host, CPU count, build
flags), the per-benchmark timings and counters, and the git revision,
so successive PRs accumulate a comparable perf trajectory in-repo.
Derived convenience fields: every
BM_StateStoreFootprint instance's interning counters are summarized
into a top-level `state_store` section, every BM_Checkpoint* /
BM_ResumeFromCheckpoint instance's counters land in a `checkpoint`
section, every BM_AnalysisOracle* instance (bench_analysis)
lands in an `analysis` section recording the POR state count with and
without the static independence oracle and the resulting reduction,
every BM_BigStore* / BM_BigExplore* / BM_StoreBudgetSweep instance
(bench_bigstore) lands in a `store_tiers` section recording the
resident-vs-spilled byte split, eviction/spill/rematerialization
counts, and delta-fragment count of the tiered state store under a
resident budget,
every BM_PerfLint* instance (bench_perf_lint) lands in a `perf_lint`
section recording static perf-pass throughput on the clean corpus vs
an all-offender kernel,
every BM_Equiv* / BM_NormalizeRandomTerms instance (bench_equiv) lands
in an `equiv` section recording normalizer throughput, the proof-time
curve over the unroll factor, refutation latency including concrete
replay, and the cold/cached equiv round-trip ratio through serve,
and the benchmark processes' peak RSS is recorded as
`peak_rss_bytes`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # non-POSIX: peak RSS is simply omitted
    resource = None


def git_revision(repo: Path) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_benchmark(binary: Path, extra_args: list[str]) -> tuple[dict, int]:
    """Run the binary; return (parsed JSON doc, peak RSS in bytes or 0)."""
    cmd = [str(binary), "--benchmark_format=json", *extra_args]
    rss_before = 0
    if resource is not None:
        rss_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark failed with exit code {proc.returncode}")
    peak_rss = 0
    if resource is not None:
        # ru_maxrss is a high-water mark over all children; it is exact
        # when this benchmark child outgrew every earlier one (the
        # normal single-child case), else a conservative upper bound.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_rss = max(peak, rss_before) * 1024  # ru_maxrss is in KiB on Linux
    # The binary may print a human banner before the JSON document.
    out = proc.stdout
    start = out.find("{")
    if start < 0:
        raise SystemExit("no JSON found in benchmark output")
    return json.loads(out[start:]), peak_rss


def store_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize BM_StateStoreFootprint instances: the interned store's
    resident bytes per visited state vs full per-state machine copies."""
    out = []
    for b in benchmarks:
        if not b.get("name", "").startswith("BM_StateStoreFootprint"):
            continue
        entry = {"name": b["name"]}
        for k in ("states", "warp_fragments", "bank_fragments",
                  "resident_bytes_per_state", "machine_bytes_per_state",
                  "dedup_ratio"):
            if k in b:
                entry[k] = b[k]
        out.append(entry)
    return out


def checkpoint_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize checkpoint benchmarks: periodic-write overhead, file
    round-trip rate and size, and resume-vs-rerun throughput."""
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith(("BM_Checkpoint", "BM_ResumeFromCheckpoint")):
            continue
        entry = {"name": name}
        for k in ("checkpoint_every", "states", "states_per_sec",
                  "file_bytes", "checkpoint_states", "round_trips_per_sec",
                  "resumed_runs_per_sec", "real_time", "time_unit"):
            if k in b:
                entry[k] = b[k]
        out.append(entry)
    return out


def analysis_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize BM_AnalysisOracle* instances: explored states under
    plain POR (oracle=0) vs POR plus the static independence oracle
    (oracle=1), with the per-kernel state reduction and speedup."""
    base = {}
    for b in benchmarks:
        name = b.get("name", "")
        if name.startswith("BM_AnalysisOracle") and b.get("oracle") == 0:
            base[name.split("/")[0]] = b
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith("BM_AnalysisOracle"):
            continue
        entry = {"name": name, "kernel": name.split("/")[0]
                 .removeprefix("BM_AnalysisOracle").lower()}
        for k in ("oracle", "independent_pcs", "states", "states_per_sec",
                  "real_time", "time_unit"):
            if k in b:
                entry[k] = b[k]
        ref = base.get(name.split("/")[0])
        if ref and b.get("oracle") == 1:
            if ref.get("states"):
                entry["state_reduction_pct"] = round(
                    100.0 * (1.0 - b["states"] / ref["states"]), 2)
            if ref.get("real_time") and b.get("real_time"):
                entry["speedup_vs_por"] = round(
                    ref["real_time"] / b["real_time"], 3)
        out.append(entry)
    return out


def perf_lint_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize BM_PerfLint* instances (bench_perf_lint): kernels
    priced per second by the static performance passes, split into the
    clean-corpus common case and the all-offender kernel, plus whole
    lints of unrolled kernels by access-site count, with the per-run
    finding counts re-asserted by the bench itself."""
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith("BM_PerfLint"):
            continue
        entry = {"name": name}
        for k in ("kernels", "findings", "kernels_per_sec", "sites",
                  "real_time", "time_unit"):
            if k in b:
                entry[k] = b[k]
        out.append(entry)
    return out


def store_tiers_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize tiered-store benchmarks (bench_bigstore): how the
    resident budget splits bytes across the hot/warm tier and the
    spill segment, what eviction and delta encoding cost, and how the
    budgeted footprint compares per state.  For BM_StoreBudgetSweep
    instances the residency improvement over the same workload's
    unbudgeted (budget_pct=100) instance is derived."""
    unbounded = {}
    for b in benchmarks:
        if (b.get("name", "").startswith("BM_StoreBudgetSweep")
                and b.get("budget_pct") == 100):
            unbounded[b.get("workload")] = b
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith(("BM_BigStore", "BM_BigExplore",
                                "BM_StoreBudgetSweep")):
            continue
        entry = {"name": name}
        if b.get("label"):
            entry["workload_name"] = b["label"]
        for k in ("workload", "budget_pct", "budget_bytes", "states",
                  "resident_bytes", "spilled_bytes",
                  "resident_bytes_per_state", "hot_evictions", "spills",
                  "rematerializations", "delta_fragments",
                  "dedup_ratio", "rss_bytes",
                  "items_per_second", "real_time", "time_unit"):
            if k in b:
                entry[k] = b[k]
        ref = unbounded.get(b.get("workload"))
        if (ref and ref is not b and b.get("resident_bytes_per_state")
                and ref.get("resident_bytes_per_state")):
            entry["residency_improvement"] = round(
                ref["resident_bytes_per_state"]
                / b["resident_bytes_per_state"], 3)
        out.append(entry)
    return out


def serve_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize BM_Serve* instances (bench_serve): cold round-trip
    latency vs cached replay of an exact copy (BM_ServeCachedSubmission)
    and of an edited one (BM_ServeVariantSubmission), each with its
    derived cache speedup, the key alone per kernel size (BM_ServeKey/N),
    and sustained requests/sec at each concurrent-client count."""
    cold = None
    replays = []
    for b in benchmarks:
        name = b.get("name", "")
        if name.startswith("BM_ServeColdSubmission"):
            cold = b
        elif name.startswith(("BM_ServeCachedSubmission",
                              "BM_ServeVariantSubmission")):
            replays.append(b)
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith("BM_Serve"):
            continue
        entry = {"name": name}
        for k in ("clients", "jobs_run", "items_per_second", "real_time",
                  "time_unit", "shed_requests", "reaped_clients"):
            if k in b:
                entry[k] = b[k]
        if (any(b is r for r in replays) and cold and cold.get("real_time")
                and b.get("real_time")):
            entry["cache_speedup"] = round(
                cold["real_time"] / b["real_time"], 1)
        out.append(entry)
    return out


def equiv_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize bench_equiv: BM_NormalizeRandomTerms throughput,
    BM_EquivProveUnroll proof times per unroll factor, the refutation
    round trip, and the serve cold/cached equiv ratio (derived as
    `cache_speedup` on the cached instance)."""
    cold = cached = None
    for b in benchmarks:
        name = b.get("name", "")
        if name.startswith("BM_EquivServeCold"):
            cold = b
        elif name.startswith("BM_EquivServeCachedResubmit"):
            cached = b
    out = []
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith(("BM_Equiv", "BM_NormalizeRandomTerms")):
            continue
        entry = {"name": name}
        for k in ("unroll", "rewrites", "obligations", "cex_trials",
                  "rewrites_per_batch", "jobs_run", "items_per_second",
                  "real_time", "time_unit"):
            if k in b:
                entry[k] = b[k]
        if (b is cached and cold and cold.get("real_time")
                and b.get("real_time")):
            # Units differ (ms vs us); normalize through time_unit.
            scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
            ct = cold["real_time"] * scale.get(cold.get("time_unit"), 1e-3)
            wt = b["real_time"] * scale.get(b.get("time_unit"), 1e-6)
            entry["cache_speedup"] = round(ct / max(wt, 1e-12), 1)
        out.append(entry)
    return out


def fault_summary(benchmarks: list[dict]) -> list[dict]:
    """Summarize the fault-injection seam guards (bench_serve): the
    disabled fast path (must stay ~1ns — the zero-overhead-when-
    disabled contract) and the armed-but-missing slow path."""
    out = []
    disabled = None
    for b in benchmarks:
        name = b.get("name", "")
        if not name.startswith("BM_FaultSeam"):
            continue
        entry = {"name": name}
        for k in ("real_time", "time_unit", "items_per_second"):
            if k in b:
                entry[k] = b[k]
        if name.startswith("BM_FaultSeamDisabled"):
            disabled = entry
        out.append(entry)
    for entry in out:
        if (entry["name"].startswith("BM_FaultSeamArmedMiss") and disabled
                and disabled.get("real_time") and entry.get("real_time")):
            entry["armed_overhead"] = round(
                entry["real_time"] / max(disabled["real_time"], 1e-9), 1)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", action="append", default=None,
                    help="benchmark binary to run (repeatable; results "
                         "are merged)")
    ap.add_argument("--out", default="BENCH_explore.json",
                    help="output snapshot path")
    ap.add_argument("--filter", default=None,
                    help="optional --benchmark_filter regex")
    ap.add_argument("bench_args", nargs="*",
                    help="extra args passed to the binary verbatim")
    args = ap.parse_args()
    binaries = args.binary or ["build/bench/bench_parallel_explore"]

    extra = list(args.bench_args)
    if args.filter:
        extra.append(f"--benchmark_filter={args.filter}")

    repo = Path(__file__).resolve().parent.parent
    benchmarks = []
    context = {}
    peak_rss = 0
    for binary_arg in binaries:
        binary = Path(binary_arg)
        if not binary.exists():
            raise SystemExit(
                f"{binary}: not found — build first (cmake --build build)")
        doc, rss = run_benchmark(binary, extra)
        peak_rss = max(peak_rss, rss)
        context = context or doc.get("context", {})
        for b in doc.get("benchmarks", []):
            keep = {k: b[k] for k in
                    ("name", "run_name", "iterations", "real_time",
                     "cpu_time", "time_unit", "bytes_per_second",
                     "items_per_second", "label")
                    if k in b}
            # Counters appear as top-level numeric fields.
            for k, v in b.items():
                if k not in keep and isinstance(v, (int, float)):
                    keep[k] = v
            keep["binary"] = binary.name
            benchmarks.append(keep)

    snapshot = {
        "schema": "cac-bench-snapshot/1",
        "binary": "+".join(Path(b).name for b in binaries),
        "git_revision": git_revision(repo),
        "context": context,
        "peak_rss_bytes": peak_rss,
        "benchmarks": benchmarks,
    }
    stores = store_summary(benchmarks)
    if stores:
        snapshot["state_store"] = stores
    checkpoints = checkpoint_summary(benchmarks)
    if checkpoints:
        snapshot["checkpoint"] = checkpoints
    analysis = analysis_summary(benchmarks)
    if analysis:
        snapshot["analysis"] = analysis
    perf_lint = perf_lint_summary(benchmarks)
    if perf_lint:
        snapshot["perf_lint"] = perf_lint
    tiers = store_tiers_summary(benchmarks)
    if tiers:
        snapshot["store_tiers"] = tiers
    serve = serve_summary(benchmarks)
    if serve:
        snapshot["serve"] = serve
    equiv = equiv_summary(benchmarks)
    if equiv:
        snapshot["equiv"] = equiv
    fault = fault_summary(benchmarks)
    if fault:
        snapshot["fault"] = fault
    out = Path(args.out)
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {out} ({len(benchmarks)} benchmarks, "
          f"rev {snapshot['git_revision']})")


if __name__ == "__main__":
    main()
