"""The three workloads: their inputs, set-up, timed phase and replay.

All three are closed loops: each connection sends its next request only
after the previous response has been read and checked, because the
callers of a partitioning service are flows that wait for each answer.
Each workload's ops are alike in cost, so the median does not depend on
which input lands in the middle.

* ``serve-misses`` — one connection; every op is ``POST /partition`` of
  a Prim2-family netlist the server has never seen.  The paper's
  algorithm end to end plus the service's write path.
* ``serve-hits`` — two connections (at most ``nproc``); every op is a
  memory-cache hit on a corpus primed in set-up.  The read path, where
  no partitioner runs.
* ``eco-chain`` — one connection; every op is ``POST /partition/delta``
  against the previous response's fingerprint.  The incremental path.

Inputs come from the workload seed only; the server receives nothing
but the generated request bodies.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.generator import generate_from_spec
from repro.bench.specs import get_spec, spec_names
from repro.delta import dumps_delta, random_delta
from repro.hypergraph import to_json
from repro.service.cache import ResultCache

from . import checks, layers
from .client import Connection, Op
from .spans import Tracer

#: Ops whose canonical results enter the digest (the first ones of the
#: timed phase, which every run on a seed reaches).
DIGEST_OPS = 8


def _body(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _netlist_body(h) -> bytes:
    return _body({"netlist": to_json(h)})


def _finish(op: Op, check: Callable[[Dict[str, Any]], Optional[str]]) -> Op:
    if op.doc is not None and not op.error:
        op.error = check(op.doc) or ""
    op.ok = op.doc is not None and not op.error
    return op


class Workload:
    """Common shape: ``setup`` primes the server, ``run`` is the timed
    closed loop, ``replay`` repeats served ops in-process under spans."""

    name = ""
    connections = 1

    def __init__(self, seed: int, size: float = 1.0):
        self.seed = seed
        self.size = size
        self.setup_ops: List[Op] = []
        self.ops: List[Op] = []
        #: Per timed op: what the replay needs (request body and context).
        self.replayable: List[Tuple[Op, bytes, Any]] = []
        self._next_id = 0

    def trace_id(self, conn: int) -> str:
        self._next_id += 1
        return f"pb{self.seed}c{conn}n{self._next_id}"

    def setup(self, port: int) -> None:
        """Requests the server must have answered before timing starts."""

    def run(self, port: int, seconds: float) -> None:
        raise NotImplementedError

    def replay(self, tr: Tracer, budget_s: float, workdir) -> int:
        raise NotImplementedError

    def digest_results(self) -> List[Dict[str, Any]]:
        return [op.doc["result"] for op in self.ops[:DIGEST_OPS] if op.ok]

    def ratio_cuts(self) -> List[float]:
        return [op.doc["result"]["ratio_cut"] for op in self.ops if op.ok]

    def window_ratios(self) -> List[float]:
        """Per warm delta op: splits evaluated over nets."""
        return []


def _replay_ops(items, budget_s: float, replay_one) -> int:
    """Replay items in order until the budget is spent (at least 3)."""
    start = time.perf_counter()
    done = 0
    for item in items:
        if done >= 3 and time.perf_counter() - start > budget_s:
            break
        replay_one(*item)
        done += 1
    return done


class ServeMisses(Workload):
    name = "serve-misses"
    circuit, scale = "Prim2", 0.25

    def run(self, port: int, seconds: float) -> None:
        rng = random.Random(f"{self.name}/{self.seed}")
        seen = set()
        conn = Connection(port, 0)
        spec = get_spec(self.circuit)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                gen_seed = rng.randrange(1, 2**31)
                if gen_seed in seen:
                    continue
                seen.add(gen_seed)
                h = generate_from_spec(spec, seed=gen_seed, scale=self.scale * self.size)
                body = _netlist_body(h)
                op = _finish(
                    conn.post("/partition", body, self.trace_id(0)),
                    lambda doc: checks.check_miss(doc, h),
                )
                self.ops.append(op)
                self.replayable.append((op, body, None))
        finally:
            conn.close()

    def replay(self, tr: Tracer, budget_s: float, workdir) -> int:
        cache = ResultCache(disk_dir=workdir / "replay-cache")
        return _replay_ops(
            [(op, body) for op, body, _ in self.replayable if op.ok],
            budget_s,
            lambda op, body: layers.replay_miss(tr, op.trace_id, body, op.doc, cache),
        )


class ServeHits(Workload):
    name = "serve-hits"
    scale = 0.4
    #: Zipf exponent of the request draw over the corpus.
    zipf_s = 1.1
    #: Circuits in the corpus a second time, at generator seed 1.  The
    #: corpus and its popularity ranks are fixed; the workload seed
    #: draws the request sequence.
    extra = ("Prim1", "Test02", "Test06")

    def __init__(self, seed: int, size: float = 1.0):
        super().__init__(seed, size)
        self.connections = max(1, min(2, len(os.sched_getaffinity(0))))
        names = spec_names()
        plan = [(n, 0) for n in names] + [(n, 1) for n in self.extra]
        self.bodies = [
            _netlist_body(
                generate_from_spec(get_spec(n), seed=s, scale=self.scale * size)
            )
            for n, s in plan
        ]
        ranks = list(range(len(self.bodies)))
        random.Random(self.name).shuffle(ranks)
        self.weights = [0.0] * len(ranks)
        for rank, index in enumerate(ranks):
            self.weights[index] = 1.0 / (rank + 1) ** self.zipf_s
        self.expected: List[bytes] = []
        self.corpus_docs: List[Dict[str, Any]] = []

    def setup(self, port: int) -> None:
        from repro.hypergraph import from_json

        conn = Connection(port, 0)
        try:
            for body in self.bodies:
                h = from_json(json.loads(body)["netlist"])
                op = _finish(
                    conn.post("/partition", body, self.trace_id(0)),
                    lambda doc: checks.check_miss(doc, h),
                )
                self.setup_ops.append(op)
                if not op.ok:
                    raise RuntimeError(f"priming serve failed: {op.error}")
                self.corpus_docs.append(op.doc)
                self.expected.append(checks.result_bytes(op.doc["result"]))
        finally:
            conn.close()

    def run(self, port: int, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        per_conn: List[List[Tuple[Op, bytes]]] = [[] for _ in range(self.connections)]
        errors: List[BaseException] = []
        lock = threading.Lock()

        def loop(index: int) -> None:
            rng = random.Random(f"{self.name}/{self.seed}/conn{index}")
            conn = Connection(port, index)
            population = range(len(self.bodies))
            try:
                while time.perf_counter() < deadline:
                    pick = rng.choices(population, weights=self.weights)[0]
                    with lock:
                        trace_id = self.trace_id(index)
                    op = _finish(
                        conn.post("/partition", self.bodies[pick], trace_id),
                        lambda doc: checks.check_hit(doc, self.expected[pick]),
                    )
                    per_conn[index].append((op, self.bodies[pick]))
            except Exception as exc:  # re-raised in the calling thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=loop, args=(i,), name=f"hits-conn{i}")
            for i in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 120)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        if errors:
            raise errors[0]
        for entries in per_conn:
            for op, body in entries:
                self.ops.append(op)
                self.replayable.append((op, body, None))

    def digest_results(self) -> List[Dict[str, Any]]:
        return [doc["result"] for doc in self.corpus_docs]

    def replay(self, tr: Tracer, budget_s: float, workdir) -> int:
        cache = ResultCache(disk_dir=workdir / "replay-cache")
        for doc in self.corpus_docs:
            cache.put(doc["fingerprint"], doc["result"])
        return _replay_ops(
            [(op, body) for op, body, _ in self.replayable if op.ok],
            budget_s,
            lambda op, body: layers.replay_hit(tr, op.trace_id, body, op.doc, cache),
        )


class EcoChain(Workload):
    name = "eco-chain"
    circuit, scale = "Test05", 0.4
    #: Delta chains served round-robin (their heads stay live in the
    #: server's 16-entry session store).
    chains = 8

    def __init__(self, seed: int, size: float = 1.0):
        super().__init__(seed, size)
        self.base = generate_from_spec(
            get_spec(self.circuit), seed=0, scale=self.scale * size
        )
        self.base_doc: Optional[Dict[str, Any]] = None
        #: Per timed op: nets of the edited netlist (for the window ratio).
        self.nets: List[int] = []

    def setup(self, port: int) -> None:
        conn = Connection(port, 0)
        try:
            op = _finish(
                conn.post("/partition", _netlist_body(self.base), self.trace_id(0)),
                lambda doc: checks.check_miss(doc, self.base),
            )
        finally:
            conn.close()
        self.setup_ops.append(op)
        if not op.ok:
            raise RuntimeError(f"base serve failed: {op.error}")
        self.base_doc = op.doc

    def run(self, port: int, seconds: float) -> None:
        # Round-robin over ``chains`` chains from the same base: each op
        # edits the head of its own chain.  Random edits make a chain's
        # netlist drift, so short chains keep the ops alike in cost and
        # quality from the first op to the last.
        heads = [
            [random.Random(f"{self.name}/{self.seed}/{k}"), self.base,
             self.base_doc["fingerprint"]]
            for k in range(self.chains)
        ]
        conn = Connection(port, 0)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                chain = len(self.ops) % self.chains
                rng, current, fingerprint = heads[chain]
                # Net-level edits only: module churn can strand a new
                # module with no nets and collapse the optimum to a
                # degenerate cut.
                delta = random_delta(current, rng, module_churn=False)
                edited = delta.apply(current)
                body = _body(
                    {"base": fingerprint, "delta": json.loads(dumps_delta(delta))}
                )
                op = _finish(
                    conn.post("/partition/delta", body, self.trace_id(0)),
                    lambda doc: checks.check_delta(doc, edited),
                )
                self.ops.append(op)
                self.replayable.append((op, body, chain))
                self.nets.append(edited.num_nets)
                if not op.ok:
                    break  # the chain cannot go on from an unknown state
                heads[chain][1:] = [edited, op.doc["fingerprint"]]
        finally:
            conn.close()

    def window_ratios(self) -> List[float]:
        return [
            op.doc["result"]["details"].get("splits_evaluated", 0) / nets
            for op, nets in zip(self.ops, self.nets)
            if op.ok and op.doc["source"] == "delta-warm"
        ]

    def replay(self, tr: Tracer, budget_s: float, workdir) -> int:
        base = layers.seed_session(self.base, self.base_doc["result"])
        sessions = [base] * self.chains

        def one(op, body, chain):
            sessions[chain] = layers.replay_delta(
                tr, op.trace_id, body, op.doc, sessions[chain]
            )

        return _replay_ops(
            [item for item in self.replayable if item[0].ok], budget_s, one
        )


WORKLOADS = {w.name: w for w in (ServeMisses, ServeHits, EcoChain)}
