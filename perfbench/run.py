"""Run one B-LOG benchmark workload and print its result.

    python3 perfbench/run.py --workload engine-solve --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split with ``--trace 1``.  The
full record of the run (environment, configuration, work fingerprint,
raw counts) is written to ``.perfbench/records/``.  Without ``src/`` the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("engine-solve", "serve-cached")

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: per-layer metrics; ``/req`` units are per completed query of the
#: traced window, ``/merge`` per session merge
PER_LAYER = {
    "logic.resolve_ms": "ms/req",
    "logic.resolve_calls": "count/req",
    "logic.unify_ms": "ms/req",
    "logic.unify_calls": "count/req",
    "logic.rename_apart_ms": "ms/req",
    "logic.candidates_ms": "ms/req",
    "logic.candidates_calls": "count/req",
    "logic.builtin_ms": "ms/req",
    "logic.term_size_ms": "ms/req",
    "ortree.expand_ms": "ms/req",
    "ortree.expand_calls": "count/req",
    "ortree.words_copied": "count/req",
    "ortree.generated": "count/req",
    "core.expansions": "count/req",
    "core.expansions_per_s": "1/s",
    "core.search_self_ms": "ms/req",
    "core.vs_solver_ratio": "ratio",
    "weights.update_ms": "ms/req",
    "weights.lookups": "count/req",
    "weights.merge_ms": "ms/merge",
    "weights.wal_append_ms": "ms/merge",
    "weights.merges_adopted": "count/merge",
    "weights.to_first_ratio": "ratio",
    "server.request_self_ms": "ms/req",
    "admission.ms": "ms/req",
    "cache.lookup_ms": "ms/req",
    "cache.fill_ms": "ms/req",
    "cache.hit_ratio": "ratio",
    "cache.stale": "count/req",
    "router.open_ms": "ms/req",
    "router.sessions_opened": "count/req",
    "workers.queue_ms": "ms/req",
    "workers.engine_ms": "ms/req",
    "workers.respawns": "count",
    "telemetry.spans_per_request": "count/req",
    "traced.throughput_qps": "1/s",
    "traced.latency_p50_ms": "ms",
}

#: which layer groups a workload's traced run measures; the others read 0
MEASURED = {
    "engine-solve": ("logic.", "ortree.", "core.", "weights.update", "weights.lookups",
                     "weights.merge_ms", "weights.merges_adopted", "traced."),
    "serve-cached": ("logic.", "ortree.", "core.expansions", "core.search_self_ms",
                     "weights.", "server.request", "admission.", "cache.", "router.",
                     "workers.queue", "workers.engine", "workers.respawns",
                     "telemetry.", "traced."),
}


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    xs = sorted(values)
    pos = (q / 100.0) * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at p99: past it a run on a shared two-core host measures scheduler
    and collector pauses rather than the system."""
    if n < 11:
        return 100.0
    return min(99.0, 100.0 * (n - 11) / (n - 1))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else list(values)


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def peak_rss_mb() -> tuple[float, float]:
    """Peak resident MiB of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def end_to_end(out, rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics and what the record says about them."""
    lat = out.latency_ms
    q = tail_percentile(len(lat))
    metrics = {
        "setup_s": median(out.setup_s),
        "throughput_qps": out.queries / out.elapsed_s if out.elapsed_s else 0.0,
        "latency_p50_ms": median(lat),
        "latency_tail_ms": percentile(lat, q) if lat else 0.0,
        "peak_rss_mb": rss,
    }
    # the end_session round trip is recorded but not bounded: it is a
    # chain of thread hand-offs whose wake-up latency follows the host's load
    notes = {"requests": len(lat), "tail_percentile": round(q, 3), "merges": len(out.merge_ms),
             "merge_p50_ms": median(out.merge_ms),
             "latency_quartiles_ms": quartiles(lat), "merge_quartiles_ms": quartiles(out.merge_ms)}
    if out.shapes:
        # which query shape the median and the tail sample come from
        order = sorted(range(len(lat)), key=lat.__getitem__)
        notes["p50_shape"] = out.shapes[order[len(order) // 2]]
        notes["tail_shape"] = out.shapes[order[min(len(order) - 1, round(q / 100 * (len(order) - 1)))]]
    return metrics, notes


def per_layer(out, traced_e2e: dict) -> dict:
    """The traced run's per-layer split (0 for layers the workload does
    not measure; the record lists which it does)."""
    layers = out.layers
    n = max(out.queries, 1)
    eng = layers.get("engine", {})
    counts = layers.get("counts", {})

    def ms(layer: str) -> float:
        return eng.get(layer, {}).get("s", 0.0) * 1000.0 / n

    def calls(layer: str) -> float:
        return eng.get(layer, {}).get("calls", 0) / n

    m = {name: 0.0 for name in PER_LAYER}
    for layer in ("resolve", "unify", "rename_apart", "candidates", "builtin", "term_size"):
        m[f"logic.{layer}_ms"] = ms(f"logic.{layer}")
    for layer in ("resolve", "unify", "candidates"):
        m[f"logic.{layer}_calls"] = calls(f"logic.{layer}")
    m["ortree.expand_ms"] = ms("ortree.expand")
    m["ortree.expand_calls"] = calls("ortree.expand")
    m["ortree.words_copied"] = counts.get("ortree.words_copied", 0) / n
    m["ortree.generated"] = counts.get("ortree.generated", 0) / n
    m["core.expansions"] = layers.get("expansions", 0) / n
    m["core.search_self_ms"] = eng.get("core.query", {}).get("self_s", 0.0) * 1000.0 / n
    m["weights.update_ms"] = ms("weights.update")
    m["weights.lookups"] = counts.get("weights.lookups", 0) / n
    m["router.open_ms"] = ms("router.open")
    m["router.sessions_opened"] = counts.get("router.sessions_opened", 0) / n
    cal = layers.get("calibration")
    if cal:
        # untraced, on the queens query: the ROADMAP's engine targets
        queens = cal["queens0"]
        m["core.expansions_per_s"] = queens["expansions"] / queens["engine_s"]
        m["core.vs_solver_ratio"] = queens["engine_s"] / queens["solver_s"]
        # library merges: one per query, each its own session
        per_cycle = out.fingerprint["per_cycle"]
        m["weights.merge_ms"] = sum(out.merge_ms) / max(len(out.merge_ms), 1)
        m["weights.merges_adopted"] = per_cycle["merges_adopted"] / len(per_cycle["generations"])
    spans = layers.get("spans")
    if spans is not None:
        r = max(spans.requests, 1)

        def span_ms(name: str, per: Optional[int] = None) -> float:
            return spans.self_s.get(name, 0.0) * 1000.0 / max(per or r, 1)

        m["server.request_self_ms"] = span_ms("request.self")
        m["admission.ms"] = span_ms("admission")
        m["cache.lookup_ms"] = span_ms("cache.lookup")
        m["cache.fill_ms"] = span_ms("cache.fill")
        m["workers.queue_ms"] = span_ms("queue")
        m["workers.engine_ms"] = span_ms("engine")
        m["weights.merge_ms"] = span_ms("end_session/merge", spans.count["end_session/merge"])
        m["weights.wal_append_ms"] = span_ms(
            "end_session/wal-append", spans.count["end_session/wal-append"])
        m["weights.to_first_ratio"] = spans.to_first_ratio()
        m["telemetry.spans_per_request"] = spans.request_spans / r
        info = out.info
        lookups = info["cache"]["hits"] + info["cache"]["misses"]
        m["cache.hit_ratio"] = info["cache"]["hits"] / lookups if lookups else 0.0
        m["cache.stale"] = info["cache"]["stale"] / n
        m["weights.merges_adopted"] = info["merges_adopted"] / max(info["merges"], 1)
        m["workers.respawns"] = float(info["respawns"])
    m["traced.throughput_qps"] = traced_e2e["throughput_qps"]
    m["traced.latency_p50_ms"] = traced_e2e["latency_p50_ms"]
    return m


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Run one B-LOG benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report the per-layer split instead of end-to-end metrics")
    ap.add_argument("--fingerprint-ops", type=int, default=None,
                    help="per-client operations a serve-cached run fingerprints (default: 4000)")
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    # one core: the program runs Python on one thread at a time (thread
    # lanes share the GIL), so a second core adds no compute, only
    # cross-core wake-ups whose latency follows the host's load
    cores = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.workloads import run_workload

    tmp_dir = OUT_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_dir))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
                           args.fingerprint_ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    own_mb, child_mb = peak_rss_mb()
    e2e, notes = end_to_end(out, own_mb + child_mb)
    # errors, refusals, empty merges and wrong answers all make a run incorrect
    correct = out.failed == 0 and out.consistent
    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "usable_cores": cores,
            "pinned_cores": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": git_sha(ROOT),
            "machine": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
        },
        "config": out.config,
        "end_to_end": e2e,
        "latency": notes,
        "setup_s_samples": out.setup_s,
        "peak_rss": {"own_mb": own_mb, "largest_child_mb": child_mb},
        "attempted": out.attempted,
        "errors": out.errors,
        "refusals": out.refusals,
        "wrong_answers": out.wrong,
        "failed_ratio": out.failed / max(out.attempted, 1),
        "consistent": out.consistent,
        "fingerprint": out.fingerprint,
        "info": out.info,
    }
    if args.trace:
        metrics = per_layer(out, e2e)
        record["per_layer"] = metrics
        record["per_layer_measured"] = [
            name for name in PER_LAYER if name.startswith(MEASURED[args.workload])]
        record["engine_layers"] = out.layers.get("engine", {})
        if out.layers.get("calibration"):
            record["calibration"] = out.layers["calibration"]
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    records = OUT_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
