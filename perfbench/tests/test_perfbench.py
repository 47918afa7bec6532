"""Tests of the serving benchmark itself (not collected by the tier-1 run).

    python3 -m pytest perfbench/tests -q

Each smoke test drives a real server with tiny circuits for a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

bench._use_checkout_program()

from perfbench import checks  # noqa: E402
from perfbench.client import Connection  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TINY = 0.15


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_prints_declared_metrics(workload, trace):
    result = bench.measure(workload, seed=3, seconds=1.0, trace=bool(trace),
                           size=TINY, log=lambda *_: None)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert _printed(result) == _declared("per_layer" if trace else "end_to_end")
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        for name in _declared("end_to_end"):
            assert result["metrics"][name]["value"] > 0, name


def test_tampered_response_is_counted_as_failed(monkeypatch):
    original = Connection.post
    calls = {"n": 0}

    def tampering_post(self, path, body, trace_id):
        op = original(self, path, body, trace_id)
        calls["n"] += 1
        if calls["n"] == 2 and op.doc is not None:
            op.doc["result"]["nets_cut"] += 1
        return op

    monkeypatch.setattr(Connection, "post", tampering_post)
    result = bench.measure("serve-misses", seed=3, seconds=1.0, trace=False,
                           size=TINY, log=lambda *_: None)
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.fixture(scope="module")
def served():
    """A real IG-Match result for a tiny circuit, as the server sends it."""
    from repro.bench.generator import generate_from_spec
    from repro.bench.specs import get_spec
    from repro.service.engine import PartitionRequest, result_to_payload, run_partitioner

    h = generate_from_spec(get_spec("Prim1"), seed=5, scale=0.1)
    payload = result_to_payload(run_partitioner(h, PartitionRequest()))
    return h, payload


def _tampered(payload, **changes):
    result = json.loads(json.dumps(payload))
    result.update(changes)
    return result


def test_checks_accept_real_results(served):
    h, payload = served
    assert checks.check_miss({"source": "computed", "result": payload}, h) is None
    assert checks.check_delta({"source": "delta-warm", "result": payload}, h) is None
    expected = checks.result_bytes(payload)
    assert checks.check_hit({"source": "memory", "result": payload}, expected) is None


@pytest.mark.parametrize("tamper", [
    lambda p: _tampered(p, nets_cut=p["nets_cut"] + 1),
    lambda p: _tampered(p, ratio_cut=p["ratio_cut"] * 1.5),
    lambda p: _tampered(p, sides=p["sides"][:-1]),
    lambda p: _tampered(p, sides=[0] * len(p["sides"])),
    lambda p: _tampered(p, sides=[1 - s for s in p["sides"][:1]] + p["sides"][1:]),
    lambda p: _tampered(p, details={**p["details"], "matching_bound": p["nets_cut"] - 1}),
])
def test_checks_reject_tampered_results(served, tamper):
    h, payload = served
    bad = tamper(payload)
    assert checks.check_miss({"source": "computed", "result": bad}, h)
    assert checks.check_delta({"source": "delta-warm", "result": bad}, h)
    expected = checks.result_bytes(payload)
    assert checks.check_hit({"source": "memory", "result": bad}, expected)


def test_checks_reject_wrong_source(served):
    h, payload = served
    assert checks.check_miss({"source": "memory", "result": payload}, h)
    assert checks.check_delta({"source": "delta-cold", "result": payload}, h)
    expected = checks.result_bytes(payload)
    assert checks.check_hit({"source": "computed", "result": payload}, expected)


def test_digest_ignores_wall_clock_fields(served):
    _, payload = served
    slower = _tampered(payload, elapsed_seconds=payload["elapsed_seconds"] + 1)
    assert checks.digest([payload]) == checks.digest([slower])
    assert checks.digest([payload]) != checks.digest([_tampered(payload, nets_cut=0)])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
