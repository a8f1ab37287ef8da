"""Directed paths, path equivalence by probe folding, and the quotient groupoid.

An n-step directed path alternates objects and Y-elements.  Two paths with
shared endpoints are equivalent when folding them against a probe (a fresh
object with a Y-element into the start) yields the same terminal; the
relation does not depend on the probe, which the suites verify by iterating
every valid probe.  Two-step classes form the morphisms of the extended
groupoid; composition is concatenation followed by reduction.

Every Y-element here, in path steps, probes, fold terminals and class keys,
is its member index in the Y-set of its endpoints; only reports decode
members back to tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import ClaimFailure, InvalidInput, NoProbeAvailable
from .groupoids import FiniteGroupoid, validate_groupoid
from .structures import morphism_tuple, morphisms_between, objects_of
from .witness import YSystem

Probe = tuple[int, int]  # (object c*, member index in Y(c*, path start))


@dataclass(frozen=True)
class DirectedPath:
    objects: tuple[int, ...]
    steps: tuple[int, ...]  # step i is a member index in Y(objects[i], objects[i+1])

    @property
    def start(self) -> int:
        return self.objects[0]

    @property
    def end(self) -> int:
        return self.objects[-1]

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def make_path(ys: YSystem, objects: tuple[int, ...], steps: tuple[int, ...]) -> DirectedPath:
    if len(objects) != len(steps) + 1 or not steps:
        raise InvalidInput("path needs k+1 objects for k >= 1 steps")
    for i, g in enumerate(steps):
        a, b = objects[i], objects[i + 1]
        if a == b:
            raise InvalidInput(f"consecutive path objects coincide at {i}")
        if not 0 <= g < ys.y_set(a, b).size:
            raise InvalidInput(f"step {i} is not a member of Y({a}, {b})")
    return DirectedPath(objects=tuple(objects), steps=tuple(steps))


def probe_candidates(ys: YSystem, *paths: DirectedPath) -> Iterator[Probe]:
    used = set().union(*(p.objects for p in paths))
    start = paths[0].start
    for c_star in objects_of(ys.structure):
        if c_star in used:
            continue
        for g_star in range(ys.y_set(c_star, start).size):
            yield (c_star, g_star)


def fold(ys: YSystem, path: DirectedPath, probe: Probe) -> int:
    """Push the probe element along the path; the terminal, a member of
    Y(c*, path end), names the class."""
    c_star, g_star = probe
    if c_star in path.objects:
        raise InvalidInput("probe object meets the path")
    if not 0 <= g_star < ys.y_set(c_star, path.start).size:
        raise InvalidInput("probe element is not a member of Y(c*, path start)")
    acc = g_star
    objs = path.objects
    for b, c, g in zip(objs, objs[1:], path.steps):
        acc = ys.compose(c_star, b, c, acc, g)
    return acc


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
    if (q.start, q.end) != (r.start, r.end):
        return False
    probes = list(probe_candidates(ys, q, r))
    verdict = probe_verdict(q, r, fold_vector(ys, q, probes), fold_vector(ys, r, probes))
    if verdict is None:
        raise NoProbeAvailable(f"no probe disjoint from objects {set(q.objects) | set(r.objects)}")
    return verdict


def contract_path(ys: YSystem, path: DirectedPath, i: int) -> DirectedPath:
    """Replace steps i, i+1 by their composite (the three objects are distinct)."""
    if not 0 <= i < path.n_steps - 1:
        raise InvalidInput(f"no steps {i}, {i + 1} to contract in a {path.n_steps}-step path")
    a, b, c = path.objects[i: i + 3]
    if len({a, b, c}) != 3:
        raise InvalidInput(f"objects around step {i} are not pairwise distinct")
    composite = ys.compose(a, b, c, path.steps[i], path.steps[i + 1])
    return DirectedPath(
        objects=path.objects[: i + 1] + path.objects[i + 2:],
        steps=path.steps[:i] + (composite,) + path.steps[i + 2:],
    )


def contraction_positions(path: DirectedPath) -> list[int]:
    return [
        i
        for i in range(path.n_steps - 1)
        if len({path.objects[i], path.objects[i + 1], path.objects[i + 2]}) == 3
    ]


def contract_to_two_steps(ys: YSystem, path: DirectedPath) -> DirectedPath:
    """Reduce to a 2-step path by contractions, introducing a fresh object
    only when the path alternates between two objects."""
    q = path
    while q.n_steps > 2:
        positions = contraction_positions(q)
        if positions:
            q = contract_path(ys, q, positions[0])
            continue
        c, d = q.start, q.end
        p = _fresh(ys, set(q.objects))
        e = _fresh(ys, {c, d, p})
        q = _two_step(ys, p, c, e, d, fold(ys, q, (p, 0)))
    return q


def _fresh(ys: YSystem, banned: set[int]) -> int:
    for o in objects_of(ys.structure):
        if o not in banned:
            return o
    raise NoProbeAvailable(f"all objects meet {sorted(banned)}")


def _two_step(ys: YSystem, p: int, c: int, e: int, d: int, t: int) -> DirectedPath:
    """The path c -> e -> d whose first step is member 0 and whose fold at
    the probe (p, 0) is t."""
    u = ys.compose(p, c, e, 0, 0)
    return DirectedPath(objects=(c, e, d), steps=(0, ys.divisor(p, e, d, t, u)))


def _vertex_terminal(ys: YSystem, path: DirectedPath) -> int:
    """Fold a vertex path against the canonical probe, translating first when
    the path runs through the canonical probe object."""
    c = path.start
    c0v = _fresh(ys, {c})
    if c0v not in path.objects:
        return fold(ys, path, (c0v, 0))
    e_can = _fresh(ys, {c, c0v})
    p = _fresh(ys, set(path.objects) | {e_can})
    detour = _two_step(ys, p, c, e_can, c, fold(ys, path, (p, 0)))
    return fold(ys, detour, (c0v, 0))


def class_key(ys: YSystem, path: DirectedPath) -> tuple:
    """Canonical identifier of the equivalence class of a path.

    Edge classes (distinct endpoints) are named by their composite Y-element
    in Y(c, d); vertex classes by the fold terminal at the canonical probe,
    in Y(c0v, c).
    """
    q = contract_to_two_steps(ys, path) if path.n_steps > 2 else path
    c, d = q.start, q.end
    if c != d:
        y = q.steps[0] if q.n_steps == 1 else ys.compose(c, q.objects[1], d, *q.steps)
        return ("edge", c, d, y)
    return ("vertex", c, d, _vertex_terminal(ys, q))


def canonical_rep(ys: YSystem, key: tuple) -> DirectedPath:
    """The class's 2-step representative c -> e -> d: its first step is
    member 0, and its fold at the canonical probe (p, 0) is the fold of the
    1-step path (c, idx, d) for an edge class, idx itself for a vertex class."""
    kind, c, d, idx = key
    p = _fresh(ys, {c, d})
    e = _fresh(ys, {c, d, p})
    t = ys.compose(p, c, d, 0, idx) if kind == "edge" else idx
    return _two_step(ys, p, c, e, d, t)


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
    if (q.start, q.end) != (r.start, r.end):
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


def all_paths(ys: YSystem, c: int, d: int, n_steps: int) -> Iterator[DirectedPath]:
    """Every n-step directed path from c to d (consecutive objects distinct)."""
    if n_steps < 1:
        raise InvalidInput("paths have at least one step")
    objs = list(objects_of(ys.structure))

    def chains(prefix: list[int]) -> Iterator[list[int]]:
        if len(prefix) == n_steps:
            if d != prefix[-1]:
                yield prefix + [d]
            return
        for o in objs:
            if o != prefix[-1]:
                yield from chains(prefix + [o])

    for chain in chains([c]):
        member_lists = [
            range(ys.y_set(chain[i], chain[i + 1]).size) for i in range(n_steps)
        ]
        for steps in itertools.product(*member_lists):
            yield DirectedPath(objects=tuple(chain), steps=steps)


@dataclass
class ExtendedGroupoid:
    """The quotient groupoid built from 2-step path classes, plus the maps
    connecting it back to Y-sets and to the standard groupoid."""

    ys: YSystem
    groupoid: FiniteGroupoid
    keys: tuple[tuple, ...]  # morphism id -> class key

    def inject_standard(self, m: int) -> int:
        """The canonical injection of a standard morphism into the quotient."""
        ys = self.ys
        s, gpd = ys.structure, ys.gpd
        c, d = gpd.init[m], gpd.ter[m]
        if c != d:
            # the canonical correspondence Y(c, d) -> Mor(c, d)
            key = ("edge", c, d, ys.y_set(c, d).index_of(morphism_tuple(s, m)))
        else:
            e = _fresh(ys, {c})
            k = min(morphisms_between(s, c, e))
            k2 = gpd.compose(gpd.inverse[k], m)
            t1 = ys.y_set(c, e).index_of(morphism_tuple(s, k))
            t2 = ys.y_set(e, c).index_of(morphism_tuple(s, k2))
            key = class_key(ys, DirectedPath(objects=(c, e, c), steps=(t1, t2)))
        return self.keys.index(key)


def build_extended_groupoid(ys: YSystem) -> ExtendedGroupoid:
    """Assemble the quotient groupoid: objects are the structure's objects,
    morphisms are 2-step path classes, composition is concatenation followed
    by reduction.  The result passes full groupoid validation."""
    s = ys.structure
    n = s.sort_size("O")
    if n < 4:
        raise NoProbeAvailable("path machinery needs at least four objects")

    keys: list[tuple] = []
    reps: list[DirectedPath] = []
    for c in objects_of(s):
        for d in objects_of(s):
            if c != d:
                size = ys.y_set(c, d).size
                kind = "edge"
            else:
                c0v = _fresh(ys, {c})
                size = ys.y_set(c0v, c).size
                kind = "vertex"
            for idx in range(size):
                key = (kind, c, d, idx)
                keys.append(key)
                reps.append(canonical_rep(ys, key))

    index = {k: i for i, k in enumerate(keys)}
    init = tuple(k[1] for k in keys)
    ter = tuple(k[2] for k in keys)

    composition = []
    for m1, k1 in enumerate(keys):
        for m2, k2 in enumerate(keys):
            if k1[2] != k2[1]:
                continue
            joined = DirectedPath(
                objects=reps[m1].objects + reps[m2].objects[1:],
                steps=reps[m1].steps + reps[m2].steps,
            )
            composition.append((m1, m2, index[class_key(ys, joined)]))

    # the identity at c is the vertex class whose fold at the canonical
    # probe is the probe itself; the inverse of m is the m2 whose composite
    # m.m2 is the identity at init(m).  validate_groupoid checks both, and
    # rejects the -1 of an m without one.
    identities = [index[("vertex", c, c, 0)] for c in objects_of(s)]
    inverse = [-1] * len(keys)
    for m1, m2, m in composition:
        if m == identities[init[m1]]:
            inverse[m1] = m2

    gpd = FiniteGroupoid(
        n_objects=n,
        init=init,
        ter=ter,
        inverse=tuple(inverse),
        identities=tuple(identities),
        composition=tuple(sorted(composition)),
    )
    validate_groupoid(gpd)
    return ExtendedGroupoid(ys=ys, groupoid=gpd, keys=tuple(keys))
