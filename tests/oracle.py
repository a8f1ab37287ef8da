"""Path-by-path oracles for the prefix walks of ``groupoidlab.paths``.

The walks decide every path, or every probe, of a claim at once:
``reductions_hold`` over shared prefixes and ``classes_match_folds`` per
probe.  The functions below decide one path or one pair of paths at a time,
by folding each against its probes, so the differential tests can compare
the walks with them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from groupoidlab.errors import ClaimFailure, NoProbeAvailable
from groupoidlab.paths import (
    DirectedPath,
    Probe,
    canonical_rep,
    class_key,
    contract_path,
    contract_to_two_steps,
    contraction_positions,
    fold,
)
from groupoidlab.structures import objects_of
from groupoidlab.witness import YSystem


def probe_candidates(ys: YSystem, *paths: DirectedPath) -> Iterator[Probe]:
    used = set().union(*(p.objects for p in paths))
    start = paths[0].start
    for c_star in objects_of(ys.structure):
        if c_star in used:
            continue
        for g_star in range(ys.y_set(c_star, start).size):
            yield (c_star, g_star)


def fold_vector(ys: YSystem, path: DirectedPath, probes: Iterable[Probe]) -> dict[Probe, int]:
    """The path's fold terminal at each probe."""
    return {p: fold(ys, path, p) for p in probes}


def probe_verdict(
    q: DirectedPath, r: DirectedPath, q_folds: dict[Probe, int], r_folds: dict[Probe, int]
) -> Optional[bool]:
    """Whether q and r fold to the same terminal at the probes of both fold
    vectors; None when they share no probe.  Unanimity is demanded, and
    disagreement would mean the instance is mismodelled."""
    answers = {t == r_folds[p] for p, t in q_folds.items() if p in r_folds}
    if len(answers) > 1:
        raise ClaimFailure("probe-independence", (q, r))
    return answers.pop() if answers else None


def path_equivalent(ys: YSystem, q: DirectedPath, r: DirectedPath) -> bool:
    """Terminal comparison after folding both paths against every valid
    probe (``probe_verdict``)."""
    if (q.start, q.objects[-1]) != (r.start, r.objects[-1]):
        return False
    probes = list(probe_candidates(ys, q, r))
    verdict = probe_verdict(q, r, fold_vector(ys, q, probes), fold_vector(ys, r, probes))
    if verdict is None:
        raise NoProbeAvailable(f"no probe disjoint from objects {set(q.objects) | set(r.objects)}")
    return verdict


def reduce_path(ys: YSystem, q: DirectedPath) -> DirectedPath:
    """The canonical 2-step path equivalent to q."""
    return canonical_rep(ys, class_key(ys, q))


def verify_reduction(ys: YSystem, q: DirectedPath, r: DirectedPath) -> bool:
    """Certify q ~ r as strongly as the object supply allows.

    Preferred: fold both against every common probe.  When the paths jointly
    exhaust too many objects, go through a contraction-only intermediate that
    stays inside q's own objects.  When even q admits no probe, fall back to
    contraction-order confluence: every first contraction leads to the same
    class.
    """
    if (q.start, q.objects[-1]) != (r.start, r.objects[-1]):
        return False
    if any(True for _ in probe_candidates(ys, q, r)):
        return path_equivalent(ys, q, r)
    q_sub = contract_to_two_steps(ys, q)
    if any(True for _ in probe_candidates(ys, q, q_sub)) and any(
        True for _ in probe_candidates(ys, q_sub, r)
    ):
        return path_equivalent(ys, q, q_sub) and path_equivalent(ys, q_sub, r)
    key = class_key(ys, q)
    return class_key(ys, r) == key and all(
        class_key(ys, contract_path(ys, q, i)) == key
        for i in contraction_positions(q)
    )
