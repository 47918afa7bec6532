"""``python -m repro.bench`` — run and diff the observed benchmark suite.

Partitions every (or each named) suite circuit with the observability
layer on and writes ``BENCH_obs.json``: per-circuit wall time, phase
timing totals, counters, and convergence curves.  This file is the
machine-readable perf trajectory that optimisation PRs compare against:
``--compare BASELINE`` diffs the fresh run against a stored payload
(exact on deterministic work counters and cut quality, noise-aware on
wall clocks), ``--fail-on-regress`` turns deterministic regressions
into a nonzero exit for CI, and ``--report`` renders a self-contained
HTML report (phase trees, convergence curves, verdict tables).

Examples
--------
::

    python -m repro.bench --scale 0.1                 # quick pass
    python -m repro.bench Test05 Prim1 --out BENCH_obs.json
    python -m repro.bench --algorithm rcut --scale 0.2
    python -m repro.bench --scale 0.2 --workers 4     # parallel circuits
    python -m repro.bench --list                      # known circuits
    python -m repro.bench --scale 0.2 \\
        --compare benchmarks/results/BENCH_baseline.json \\
        --fail-on-regress --report bench-report.html
    python -m repro.bench --scale-curve \\
        --compare benchmarks/results/BENCH_scale.json \\
        --fail-on-regress --report scale-report.html

``--scale-curve`` switches to the complexity-exponent mode: one circuit
is swept over a geometric size ladder, wall time and peak heap are
fitted as power laws of the module count, and ``--fail-on-regress``
gates on *exponent* drift (machine-speed independent) rather than raw
seconds.  See :mod:`repro.bench.scale_curve` and ``docs/scaling.md``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from ..parallel import BACKENDS, resolve_parallel
from .specs import BENCHMARKS, spec_names
from .suite import run_observed_suite

#: Exit codes: 0 success, 1 regression gate tripped, 2 bad invocation.
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_USAGE = 2


def _print_spec_list() -> None:
    print(f"{'name':>8}  {'modules':>8}  {'nets':>8}  paper best (IG-Match)")
    for spec in BENCHMARKS:
        row = spec.paper_igmatch
        best = (
            f"{row.nets_cut} cut @ {row.areas} (ratio {row.ratio_cut:.3g})"
            if row is not None
            else "—"
        )
        print(
            f"{spec.name:>8}  {spec.num_modules:>8}  "
            f"{spec.num_nets:>8}  {best}"
        )


#: BENCH_obs.json schema versions :func:`repro.obs.diff.diff_payloads`
#: understands (1 = no spans/curves, 2 = current).
_KNOWN_SCHEMAS = (1, 2)


def _load_baseline(path: str):
    """Read and validate a ``--compare`` baseline payload.

    Returns ``(payload, None)`` on success, ``(None, message)`` when the
    file is missing, unreadable, not a JSON object, or carries an
    unknown ``schema`` version — every failure is one clear line, never
    a traceback.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, f"cannot read baseline {path}: {exc}"
    if not isinstance(payload, dict):
        return None, (
            f"baseline {path} is not a benchmark payload "
            f"(expected a JSON object, got {type(payload).__name__})"
        )
    schema = payload.get("schema")
    if schema not in _KNOWN_SCHEMAS:
        known = ", ".join(str(s) for s in _KNOWN_SCHEMAS)
        return None, (
            f"baseline {path} has unknown schema version {schema!r} "
            f"(known versions: {known}; re-run python -m repro.bench "
            f"to regenerate it)"
        )
    return payload, None


def _validate_names(names: Sequence[str]) -> Optional[str]:
    """Return an error message for the first unknown circuit name."""
    known = spec_names()
    lower = {name.lower(): name for name in known}
    for name in names:
        if name.lower() in lower:
            continue
        suggestions = difflib.get_close_matches(
            name.lower(), list(lower), n=3, cutoff=0.4
        )
        hint = (
            " — did you mean "
            + " or ".join(lower[s] for s in suggestions)
            + "?"
            if suggestions
            else ""
        )
        return (
            f"unknown circuit {name!r}{hint} "
            f"(known: {', '.join(known)}; see --list)"
        )
    return None


def _run_cache_scenario(args) -> int:
    """Handle ``--cache-scenario``: one cold serve, one warm serve."""
    from .cache_scenario import run_cache_scenario

    names = args.names or ["Test05"]
    if len(names) != 1:
        print(
            "error: --cache-scenario takes exactly one circuit name",
            file=sys.stderr,
        )
        return EXIT_USAGE
    error = _validate_names(names)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        record = run_cache_scenario(
            names[0],
            seed=args.seed,
            scale=args.scale,
            algorithm=args.algorithm,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    speedup = record["speedup"]
    print(
        f"{record['circuit']:>10}: cold {record['cold_wall_s']:.3f}s "
        f"({record['cold']['source']}), warm "
        f"{record['warm_wall_s']:.3f}s ({record['warm']['source']}"
        f"{', %.0fx' % speedup if speedup else ''})"
    )
    for check, ok in record["verified"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {check}")
    out = Path(args.out)
    out.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK if record["ok"] else EXIT_REGRESSED


def _run_eco_scenario(args) -> int:
    """Handle ``--eco-scenario``: serve a chain of random ECO deltas
    warm and cold, gate on the speedup floor and cut quality."""
    from .eco_scenario import run_eco_scenario

    names = args.names or ["Test05"]
    if len(names) != 1:
        print(
            "error: --eco-scenario takes exactly one circuit name",
            file=sys.stderr,
        )
        return EXIT_USAGE
    error = _validate_names(names)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.out == "BENCH_obs.json":  # suite default; not a suite payload
        args.out = "BENCH_eco.json"
    try:
        record = run_eco_scenario(
            names[0],
            seed=args.seed,
            scale=args.scale,
            algorithm=args.algorithm,
            deltas=args.eco_deltas,
            delta_seed=args.eco_delta_seed,
            min_speedup=args.eco_min_speedup,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{record['circuit']:>10}: base {record['base']['wall_s']:.3f}s, "
        f"{len(record['edits'])} deltas warm {record['warm_wall_s']:.3f}s "
        f"vs cold {record['cold_wall_s']:.3f}s"
        + (f" ({record['speedup']:.0f}x)" if record["speedup"] else "")
    )
    for edit in record["edits"]:
        print(
            f"  edit {edit['edit']}: warm {edit['warm_wall_s']:.3f}s "
            f"ratio {edit['warm_ratio_cut']:.6g} | cold "
            f"{edit['cold_wall_s']:.3f}s ratio {edit['cold_ratio_cut']:.6g}"
        )
    for check, ok in record["verified"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {check}")
    out = Path(args.out)
    out.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK if record["ok"] else EXIT_REGRESSED


def _load_scale_baseline(path: str):
    """Read and validate a ``--compare`` BENCH_scale baseline.

    Same contract as :func:`_load_baseline`, but for the scale-curve
    payload shape (``kind: "scale"``)."""
    from .scale_curve import validate_scale_payload

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, f"cannot read baseline {path}: {exc}"
    problems = validate_scale_payload(payload)
    if problems:
        return None, (
            f"baseline {path} is not a scale-curve payload: "
            + "; ".join(problems[:3])
        )
    return payload, None


def _run_scale_curve(args) -> int:
    """Handle ``--scale-curve``: sweep the size ladder, fit complexity
    exponents, and (with ``--compare``) gate on exponent drift."""
    from ..obs import render_scale_html, render_scale_markdown
    from .scale_curve import run_scale_curve

    if args.names:
        print(
            "error: --scale-curve sweeps one circuit; use "
            "--curve-circuit NAME instead of positional names",
            file=sys.stderr,
        )
        return EXIT_USAGE
    error = _validate_names([args.curve_circuit])
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scales = [float(s) for s in args.curve_scales.split(",") if s]
    except ValueError:
        print(
            f"error: --curve-scales must be comma-separated floats "
            f"(got {args.curve_scales!r})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    algorithms = [a for a in args.curve_algorithms.split(",") if a]

    baseline = None
    if args.compare:
        baseline, error = _load_scale_baseline(args.compare)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE

    if args.out == "BENCH_obs.json":  # suite default; not a suite payload
        args.out = "BENCH_scale.json"
    try:
        payload = run_scale_curve(
            circuit=args.curve_circuit,
            seed=args.seed,
            scales=scales,
            algorithms=algorithms,
            repeats=args.curve_repeats,
            out_path=args.out,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    diff = None
    if baseline is not None:
        from ..obs import diff_scale_payloads

        diff = diff_scale_payloads(
            baseline, payload, exponent_tol=args.exponent_tolerance
        )
    print(render_scale_markdown(payload, diff=diff))
    print(f"wrote {args.out}", file=sys.stderr)

    if args.report:
        try:
            Path(args.report).write_text(
                render_scale_html(payload, diff=diff), encoding="utf-8"
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote report to {args.report}", file=sys.stderr)

    if diff is not None and args.fail_on_regress and diff.has_regressions:
        print(
            f"FAIL: {len(diff.regressions)} complexity-exponent "
            f"regression(s)",
            file=sys.stderr,
        )
        return EXIT_REGRESSED
    return EXIT_OK


def _run_serving_scenario(args) -> int:
    """Handle ``--serving-scenario``: a short gated load run against a
    private in-process server, with the full client/server cross-check
    and SLO verdicts (writes ``BENCH_serving.json``-shaped output)."""
    from ..loadgen import run_serving_scenario
    from ..loadgen.slo import parse_slo
    from ..obs import render_serving_markdown

    try:
        slo = parse_slo(args.slo) if args.slo else None
        payload, _result = run_serving_scenario(
            duration_s=args.serving_duration,
            concurrency=args.serving_concurrency,
            mix=args.serving_mix,
            seed=args.seed,
            slo=slo,
            scale=min(args.scale, 0.2),
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_serving_markdown(payload))
    if args.out == "BENCH_obs.json":  # suite default; not a serving payload
        args.out = "BENCH_serving.json"
    out = Path(args.out)
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out}", file=sys.stderr)
    ok = payload["crosscheck"]["ok"] and payload["slo"]["ok"] is not False
    return EXIT_OK if ok else EXIT_REGRESSED


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the benchmark suite with observability enabled, "
        "write a machine-readable BENCH_obs.json, and optionally diff it "
        "against a stored baseline.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="circuits to run (default: the whole suite; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the known circuit specs and exit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="size scale factor for generated circuits",
    )
    parser.add_argument(
        "--algorithm", default="ig-match",
        help="partitioner to profile (default ig-match)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run circuits in parallel on N workers (0 = auto-detect "
        "CPUs; default: $REPRO_WORKERS or 1).  Deterministic payload "
        "fields are identical for any worker count",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="parallel backend (default: $REPRO_BACKEND, or process "
        "when --workers > 1)",
    )
    parser.add_argument(
        "--memprof", action="store_true",
        help="attribute Python-heap memory to each phase: phase entries "
        "gain mem_alloc_bytes/mem_peak_bytes and circuits gain a mem "
        "snapshot (RSS + tracemalloc watermarks).  Memory fields diff "
        "noise-aware and never trip --fail-on-regress",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH_obs.json",
        help="output JSON path (default BENCH_obs.json)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="diff the fresh run against a stored BENCH_obs.json "
        "payload and print the verdicts",
    )
    parser.add_argument(
        "--fail-on-regress", action="store_true",
        help="with --compare: exit nonzero when a deterministic field "
        "(counter, phase count, nets_cut, ratio_cut) regressed; "
        "wall-clock changes never trip the gate",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=0.25, metavar="REL",
        help="relative wall-clock change below which a phase is "
        "'unchanged' (default 0.25)",
    )
    parser.add_argument(
        "--time-floor", type=float, default=0.02, metavar="SECONDS",
        help="absolute wall-clock change always treated as noise "
        "(default 0.02s)",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="write a self-contained HTML report (phase trees, "
        "convergence curves, and the diff when --compare is given)",
    )
    parser.add_argument(
        "--cache-scenario", action="store_true",
        help="run the cached-vs-cold serving scenario instead of the "
        "suite: serve one circuit twice through repro.service and "
        "verify the warm request hit the cache and skipped every "
        "compute phase (writes the record to --out)",
    )
    parser.add_argument(
        "--eco-scenario", action="store_true",
        help="run the incremental-partitioning (ECO) scenario instead "
        "of the suite: serve one circuit, chain random netlist deltas "
        "through the warm delta path and a cold recompute per edit, "
        "and gate on warm quality (no worse) and the speedup floor "
        "(writes the record to --out, default BENCH_eco.json)",
    )
    parser.add_argument(
        "--eco-deltas", type=int, default=5, metavar="N",
        help="with --eco-scenario: number of chained edits (default 5)",
    )
    parser.add_argument(
        "--eco-delta-seed", type=int, default=1, metavar="SEED",
        help="with --eco-scenario: RNG seed for the random edits "
        "(default 1)",
    )
    parser.add_argument(
        "--eco-min-speedup", type=float, default=5.0, metavar="X",
        help="with --eco-scenario: minimum warm-vs-cold speedup the "
        "gate accepts (default 5.0)",
    )
    parser.add_argument(
        "--scale-curve", action="store_true",
        help="sweep one circuit over a geometric size ladder instead of "
        "running the suite: fit log-log complexity exponents for wall "
        "time and peak heap per algorithm, write BENCH_scale.json, and "
        "(with --compare/--fail-on-regress) gate on exponent drift",
    )
    parser.add_argument(
        "--curve-circuit", default="Prim2", metavar="NAME",
        help="with --scale-curve: circuit spec to sweep (default Prim2)",
    )
    parser.add_argument(
        "--curve-scales", default="0.05,0.1,0.2,0.4", metavar="S,S,...",
        help="with --scale-curve: size ladder as comma-separated scale "
        "factors (default 0.05,0.1,0.2,0.4)",
    )
    parser.add_argument(
        "--curve-algorithms", default="ig-match,fm", metavar="ALG,...",
        help="with --scale-curve: algorithms to sweep "
        "(default ig-match,fm)",
    )
    parser.add_argument(
        "--curve-repeats", type=int, default=1, metavar="K",
        help="with --scale-curve: runs per rung; keeps min wall time "
        "and max heap peak (default 1)",
    )
    parser.add_argument(
        "--exponent-tolerance", type=float, default=0.2, metavar="TOL",
        help="with --scale-curve --compare: allowed complexity-exponent "
        "growth before the gate trips; widened automatically by the "
        "fits' standard errors (default 0.2)",
    )
    parser.add_argument(
        "--serving-scenario", action="store_true",
        help="run a short gated load test instead of the suite: boot a "
        "private in-process server, drive a mixed closed-loop workload "
        "with repro.loadgen, cross-check client records against the "
        "server's /metrics deltas, and evaluate --slo (writes the "
        "BENCH_serving payload to --out)",
    )
    parser.add_argument(
        "--serving-duration", type=float, default=3.0, metavar="SECONDS",
        help="with --serving-scenario: load duration (default 3)",
    )
    parser.add_argument(
        "--serving-concurrency", type=int, default=4, metavar="N",
        help="with --serving-scenario: closed-loop workers (default 4)",
    )
    parser.add_argument(
        "--serving-mix", default="igmatch=0.5,fm=0.3,eig1=0.2",
        metavar="ALG=W,...",
        help="with --serving-scenario: algorithm traffic mix",
    )
    parser.add_argument(
        "--slo", default=None, metavar="OBJ=TARGET,...",
        help="with --serving-scenario: SLO objectives, e.g. "
        "p99=2.0,error_rate=0.01 (failing one exits nonzero)",
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_spec_list()
        return EXIT_OK

    if args.cache_scenario:
        return _run_cache_scenario(args)

    if args.eco_scenario:
        return _run_eco_scenario(args)

    if args.scale_curve:
        return _run_scale_curve(args)

    if args.serving_scenario:
        return _run_serving_scenario(args)

    error = _validate_names(args.names)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE

    baseline = None
    if args.compare:
        baseline, error = _load_baseline(args.compare)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_USAGE

    try:
        payload = run_observed_suite(
            names=args.names or None,
            seed=args.seed,
            scale=args.scale,
            algorithm=args.algorithm,
            out_path=args.out,
            parallel=resolve_parallel(args.workers, args.backend),
            memprof=args.memprof,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for circuit in payload["circuits"]:
        print(
            f"{circuit['name']:>10}: {circuit['modules']} modules, "
            f"{circuit['nets']} nets, {circuit['nets_cut']} cut, "
            f"{circuit['seconds']:.3f}s"
        )
    print(f"wrote {args.out}", file=sys.stderr)

    diff = None
    if baseline is not None:
        from ..obs import DiffThresholds, diff_payloads, render_markdown

        diff = diff_payloads(
            baseline,
            payload,
            thresholds=DiffThresholds(
                rel_tol=args.time_tolerance,
                abs_floor_s=args.time_floor,
            ),
        )
        print(f"--- compared against {args.compare} ---")
        print(render_markdown(diff))

    if args.report:
        from ..obs import render_html

        try:
            Path(args.report).write_text(
                render_html(payload, diff=diff), encoding="utf-8"
            )
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote report to {args.report}", file=sys.stderr)

    if diff is not None and args.fail_on_regress and diff.has_regressions:
        print(
            f"FAIL: {len(diff.regressions)} deterministic regression(s)",
            file=sys.stderr,
        )
        return EXIT_REGRESSED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
