"""Output checks applied to every op, and the canonical-result digest.

A check returns ``None`` when the response is correct and a one-line
reason otherwise; the workload counts the op as failed in that case.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional

from repro.partitioning.metrics import net_cut_count, ratio_cut_of_sides


def check_partition(h, result: Dict[str, Any]) -> Optional[str]:
    """A served IG-Match result is a valid partition of ``h``.

    The sides cover every module and neither is empty; the reported
    ``nets_cut`` and ``ratio_cut`` equal the values recomputed from the
    sides; and ``nets_cut`` is at most the matching size at the chosen
    split (Theorem 5).
    """
    sides = result.get("sides")
    if not isinstance(sides, list) or len(sides) != h.num_modules:
        return "sides do not cover every module"
    if any(s not in (0, 1) for s in sides):
        return "sides hold a value other than 0 or 1"
    if 0 not in sides or 1 not in sides:
        return "a side is empty"
    nets_cut = net_cut_count(h, sides)
    if result.get("nets_cut") != nets_cut:
        return f"nets_cut {result.get('nets_cut')} != recomputed {nets_cut}"
    ratio_cut = ratio_cut_of_sides(h, sides)
    if result.get("ratio_cut") != ratio_cut:
        return f"ratio_cut {result.get('ratio_cut')} != recomputed {ratio_cut}"
    bound = result.get("details", {}).get("matching_bound")
    if not isinstance(bound, int) or nets_cut > bound:
        return f"nets_cut {nets_cut} exceeds matching_bound {bound}"
    return None


def check_miss(doc: Dict[str, Any], h) -> Optional[str]:
    """A first serve of a never-seen netlist: computed, and valid."""
    if doc.get("source") != "computed":
        return f"source {doc.get('source')!r}, expected 'computed'"
    return check_partition(h, doc.get("result", {}))


def check_hit(doc: Dict[str, Any], expected: bytes) -> Optional[str]:
    """A repeat serve: from the memory cache, and byte-equal to the
    result the first serve of the same netlist returned."""
    if doc.get("source") != "memory":
        return f"source {doc.get('source')!r}, expected 'memory'"
    if result_bytes(doc.get("result")) != expected:
        return "result differs from the first serve of this netlist"
    return None


def check_delta(doc: Dict[str, Any], h_edited) -> Optional[str]:
    """A delta serve: warm (or the session's answer for a no-op delta),
    and a valid partition of the edited netlist."""
    if doc.get("source") not in ("delta-warm", "session"):
        return f"source {doc.get('source')!r}, expected 'delta-warm'"
    return check_partition(h_edited, doc.get("result", {}))


def result_bytes(result: Any) -> bytes:
    """A served result as canonical JSON bytes."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


def canonical_result(result: Dict[str, Any]) -> bytes:
    """The deterministic fields of a served result: wall-clock fields
    (``elapsed_seconds`` and timing details) are dropped."""
    doc = dict(result)
    doc.pop("elapsed_seconds", None)
    doc["details"] = {
        k: v
        for k, v in doc.get("details", {}).items()
        if not (k.endswith(("seconds", "_s")) or k.startswith("time"))
    }
    return result_bytes(doc)


def digest(results: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical bytes of ``results``, in order."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(canonical_result(result))
        sha.update(b"\n")
    return sha.hexdigest()
