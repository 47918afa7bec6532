"""Run one workload of the serving benchmark and print its metrics.

    python3 perfbench/run.py --workload serve-misses --seed 1 --seconds 25 --trace 0

Starts a real ``repro-serve`` from the checkout's ``src`` directory,
drives it over loopback, checks every response, and prints a summary
followed by one JSON line::

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
derived from spans recorded in a separate pass over the same inputs.
Exits non-zero, printing no result line, when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.server import PINNED_ENV, Server  # noqa: E402

#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_BOOTS = 5

#: ``metric name -> (span name, "self" | "total")`` for per-layer times.
LAYER_TIMES = {
    "service.parse_ms": ("service.parse", "self"),
    "hypergraph.from_json_ms": ("hypergraph.from_json", "self"),
    "service.fingerprint_ms": ("service.fingerprint", "self"),
    "service.cache.lookup_ms": ("service.cache.lookup", "self"),
    "service.respond_ms": ("service.respond", "self"),
    "service.cache.put_ms": ("service.cache.put", "self"),
    "service.session_seed_ms": ("service.session_seed", "self"),
    "intersection.build_ms": ("intersection.build", "self"),
    "spectral.ordering_ms": ("spectral.ordering", "self"),
    "matching.move_ms": ("matching.move", "self"),
    "matching.classify_ms": ("matching.classify", "self"),
    "partitioning.sweep_ms": ("partitioning.sweep", "total"),
    "partitioning.window_sweep_ms": ("partitioning.window_sweep", "total"),
    "delta.parse_ms": ("delta.parse", "self"),
    "delta.validate_ms": ("delta.validate", "self"),
    "delta.apply_ms": ("delta.apply", "self"),
    "delta.warm_ms": ("delta.warm", "total"),
    "intersection.patch_ms": ("intersection.patch", "self"),
}
#: Per-op counts recorded by the matching replay.
LAYER_COUNTS = (
    "matching.augmentations",
    "matching.search_visits",
    "matching.class_changes",
)


def _use_checkout_program() -> None:
    """Import the program from this checkout's ``src`` only, with the
    behaviour-selecting environment cleared (as for the server)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure at {SRC / 'repro'}")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _access_durations(path: Path) -> Dict[str, float]:
    """``trace_id -> handler duration_s`` from the server's access log."""
    durations = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "access" and "trace_id" in entry:
                durations[entry["trace_id"]] = entry["duration_s"]
    return durations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(wl, boots: List[float], peak_rss_mb: float) -> Dict[str, Any]:
    """The end-to-end metrics of one untraced run."""
    ok_ms = [op.latency_s * 1000.0 for op in wl.ops if op.ok]
    # Closed-loop throughput: each connection's completed ops over the
    # time it spent waiting on the server (client-side input generation
    # and checking are excluded), summed over connections.
    ops_per_s = 0.0
    for conn in range(wl.connections):
        mine = [op for op in wl.ops if op.conn == conn]
        busy = sum(op.latency_s for op in mine)
        ops_per_s += _ratio(sum(op.ok for op in mine), busy)
    cuts = [c for c in wl.ratio_cuts() if c > 0]
    gmean = math.exp(statistics.fmean(math.log(c) for c in cuts)) if cuts else 0.0
    return {
        "setup_s": _metric(_median(boots), "s"),
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_p50_ms": _metric(_median(ok_ms), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ratio_cut_gmean": _metric(gmean, "ratio"),
    }


def per_layer(
    wl, tr, replayed: int, handler: Dict[str, float],
    before: Dict[str, Any], after: Dict[str, Any],
) -> Dict[str, Any]:
    """The per-layer metrics of one traced run.

    Times are per op, medians over the replayed ops; a layer an op never
    enters counts 0 for that op.  The HTTP split comes from the served
    ops and the access log (``handler``: trace id -> seconds), the
    ratios from the ``/metrics`` service sections ``before`` and
    ``after`` the timed phase."""
    times = tr.per_op_times()
    ops = [op.trace_id for op in wl.ops if op.ok][:replayed]
    out: Dict[str, Any] = {}
    latency = {op.trace_id: op.latency_s for op in wl.ops if op.ok}
    joined = [t for t in latency if t in handler]
    out["service.http.handler_ms"] = _metric(
        _median([handler[t] * 1000.0 for t in joined]), "ms")
    out["service.http.wire_wait_ms"] = _metric(
        _median([(latency[t] - handler[t]) * 1000.0 for t in joined]), "ms")
    for metric, (span, kind) in LAYER_TIMES.items():
        index = 0 if kind == "total" else 1
        out[metric] = _metric(_median(
            [times[op].get(span, (0.0, 0.0))[index] * 1000.0 for op in ops]), "ms")
    out["partitioning.completion_ms"] = _metric(_median([
        sum(times[op].get(s, (0.0, 0.0))[1]
            for s in ("partitioning.sweep", "partitioning.window_sweep")) * 1000.0
        for op in ops]), "ms")
    for name in LAYER_COUNTS:
        out[name] = _metric(_median([tr.counts[op].get(name, 0) for op in ops]), "count")
    out["matching.class_change_ratio"] = _metric(_median([
        _ratio(tr.counts[op].get("matching.class_changes", 0),
               tr.counts[op].get("matching.nets_classified", 0))
        for op in ops]), "ratio")
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    out["service.cache.hit_ratio"] = _metric(
        _ratio(delta("service.cache.hit"), delta("service.requests")), "ratio")
    out["delta.warm_ratio"] = _metric(
        _ratio(delta("service.delta.warm"), delta("service.delta.requests")), "ratio")
    out["delta.window_ratio"] = _metric(_median(wl.window_ratios()), "ratio")
    out["service.session.bytes"] = _metric(
        float(after.get("service.session.bytes", 0)), "bytes")
    # The served phase of a traced run is timed like an untraced one;
    # compare this with the untraced op_p50_ms on the same seed.
    out["bench.traced_op_p50_ms"] = _metric(
        _median([latency[t] * 1000.0 for t in latency]), "ms")
    return out


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: float = 1.0,
    log=print,
) -> Dict[str, Any]:
    """Run ``workload`` once and return the result document."""
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS
    from perfbench import checks

    wl = WORKLOADS[workload](seed, size)
    workdir = RUN_DIR / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    boots: List[float] = []
    try:
        if not trace:
            for i in range(SETUP_BOOTS - 1):
                with Server(SRC, workdir / f"boot{i}") as extra:
                    boots.append(extra.start())
        server = Server(SRC, workdir / "serve")
        with server:
            boots.append(server.start())
            start = time.perf_counter()
            wl.setup(server.port)
            prime_s = time.perf_counter() - start
            metrics_before = server.metrics()
            wl.run(server.port, seconds)
            metrics_after = server.metrics()
            peak_rss_mb = server.peak_rss_mb()
        attempted = len(wl.setup_ops) + len(wl.ops)
        failed = sum(not op.ok for op in wl.setup_ops + wl.ops)
        log(f"# {workload} seed={seed} connections={wl.connections} "
            f"ops={len(wl.ops)} failed={failed} "
            f"op_fail_ratio={_ratio(failed, attempted):.6f} "
            f"boot_s={[round(b, 3) for b in boots]} prime_s={prime_s:.3f}")
        for op in [op for op in wl.setup_ops + wl.ops if not op.ok][:5]:
            log(f"# failed {op.trace_id}: {op.error}")
        results = wl.digest_results()
        log(f"# digest {workload} seed={seed} results={len(results)} "
            f"sha256={checks.digest(results)}")
        if trace:
            tr = Tracer()
            for op in wl.ops:
                tr.add("client.op", op.trace_id, None, op.start, op.start + op.latency_s)
            replayed = wl.replay(tr, seconds, workdir)
            tr.write(RUN_DIR / "spans" / f"{workload}-seed{seed}.jsonl")
            metrics = per_layer(
                wl, tr, replayed, _access_durations(server.access_log),
                metrics_before["service"], metrics_after["service"],
            )
            _log_breakdown(log, metrics, replayed)
        else:
            metrics = end_to_end(wl, boots, peak_rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0 and len(wl.ops) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _log_breakdown(log, metrics: Dict[str, Any], replayed: int) -> None:
    """The layers an op's time splits into, largest first."""
    names = [n for n, (_, kind) in LAYER_TIMES.items() if kind == "self"]
    names += ["partitioning.completion_ms", "service.http.wire_wait_ms"]
    rows = sorted(((metrics[n]["value"], n) for n in names), reverse=True)
    log(f"# per-op self times over {replayed} replayed ops (ms, largest first):")
    for value, name in rows:
        if value > 0:
            log(f"#   {name:32s} {value:10.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-misses", "serve-hits", "eco-chain"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _use_checkout_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
