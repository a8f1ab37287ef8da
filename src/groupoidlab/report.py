"""Claims, and claim-by-claim verification reports with JSON and text
rendering.

A suite states its claims as ``Claim`` records; the runner in ``verify``
turns each into a ``ClaimEntry`` of a ``Report``.  The JSON document is the
contract: deterministic for identical inputs apart from the declared
volatile fields ``generated_at`` and per-claim ``wall_ms``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Optional

from .errors import ReportMergeError

TOOL_VERSION = "0.1.0"

VOLATILE_FIELDS = ("generated_at", "wall_ms")

PASS = "pass"
FAIL = "fail"
SURROGATE_PASS = "surrogate-pass"
SKIPPED = "skipped"

# the finite surrogates a claim names in its report entry
INDEPENDENCE_SURROGATE = "independence-as-distinct-objects"
TYPE_SURROGATE = "type-equality-as-orbit"
DCL_SURROGATE = "dcl-as-fixed-points"
ACL_SURROGATE = "acl-as-explicit-closure-sets"


@dataclass(frozen=True)
class Claim:
    """One claim of a suite: its id, the anchor it states, and a check that
    returns None when the claim holds or a JSON-able witness when it fails.
    With ``surrogate_pass`` a claim that holds is recorded as surrogate-pass:
    its check stands in for the paper's statement."""

    id: str
    anchor: str
    check: Callable[[], Optional[Any]]
    surrogates: tuple[str, ...] = ()
    surrogate_pass: bool = False


@dataclass
class ClaimEntry:
    claim_id: str
    anchor: str
    status: str
    witness: Any = None
    wall_ms: float = 0.0
    surrogates: tuple[str, ...] = ()

    def to_json(self) -> dict:
        data: dict = {
            "id": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness is not None:
            data["witness"] = self.witness
        if self.surrogates:
            data["surrogates"] = list(self.surrogates)
        return data


@dataclass
class Report:
    instance: str
    entries: list[ClaimEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def failures(self) -> list[ClaimEntry]:
        return [e for e in self.entries if e.status == FAIL]

    def to_json(self) -> dict:
        return {
            "tool_version": TOOL_VERSION,
            "instance": self.instance,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "claims": [e.to_json() for e in self.entries],
        }

    def render_text(self) -> str:
        lines = [f"instance: {self.instance}"]
        for e in self.entries:
            mark = {PASS: "PASS", FAIL: "FAIL", SURROGATE_PASS: "pass*", SKIPPED: "skip"}[e.status]
            line = f"  [{mark:5}] {e.claim_id}: {e.anchor}"
            if e.status == FAIL:
                line += f"  witness={e.witness!r}"
            lines.append(line)
        n_fail = len(self.failures())
        lines.append(
            f"  {len(self.entries)} claims, {n_fail} failed"
            + (" (* = surrogate check)" if any(e.status == SURROGATE_PASS for e in self.entries) else "")
        )
        return "\n".join(lines)


def strip_volatile(doc: dict) -> dict:
    """Drop the declared volatile fields for byte-level comparisons."""
    out = {k: v for k, v in doc.items() if k not in VOLATILE_FIELDS}
    if "claims" in out:
        out["claims"] = [
            {k: v for k, v in c.items() if k not in VOLATILE_FIELDS}
            for c in doc["claims"]
        ]
    return out


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def merge_reports(docs: list[dict]) -> dict:
    """Merge report documents into an instances-by-claims matrix.

    Every document must be a report: a dict with a string ``instance`` and
    a list of claims, each a dict with string ``id`` and ``status``.
    Duplicate claim ids within one instance must agree or the merge fails.
    """
    matrix: dict[str, dict[str, str]] = {}
    claim_order: list[str] = []
    for k, doc in enumerate(docs):
        if not _is_report(doc):
            raise ReportMergeError(
                f"document {k + 1} is not a report: it needs a string 'instance' "
                "and a list of claims, each with a string 'id' and 'status'"
            )
        inst = doc["instance"]
        row = matrix.setdefault(inst, {})
        for claim in doc["claims"]:
            cid = claim["id"]
            if cid not in claim_order:
                claim_order.append(cid)
            status = claim["status"]
            if cid in row and row[cid] != status:
                raise ReportMergeError(
                    f"conflicting status for claim {cid!r} on instance {inst!r}"
                )
            row[cid] = status
    return {
        "tool_version": TOOL_VERSION,
        "claims": claim_order,
        "instances": {
            inst: [matrix[inst].get(cid, "-") for cid in claim_order]
            for inst in sorted(matrix)
        },
    }


def _is_report(doc: Any) -> bool:
    return (
        isinstance(doc, dict)
        and isinstance(doc.get("instance"), str)
        and isinstance(doc.get("claims"), list)
        and all(
            isinstance(c, dict) and isinstance(c.get("id"), str) and isinstance(c.get("status"), str)
            for c in doc["claims"]
        )
    )


def render_matrix(merged: dict) -> str:
    claims = merged["claims"]
    width = max((len(c) for c in claims), default=5)
    lines = []
    header = " " * 28 + "  ".join(c.ljust(width) for c in claims)
    lines.append(header)
    for inst, statuses in merged["instances"].items():
        cells = "  ".join(s.ljust(width) for s in statuses)
        lines.append(f"{inst[:26]:28}{cells}")
    return "\n".join(lines)
