"""Directed paths, path equivalence by probe folding, and the quotient groupoid.

An n-step directed path alternates objects and Y-elements.  Two paths with
shared endpoints are equivalent when folding them against a probe (a fresh
object with a Y-element into the start) yields the same terminal; the
relation does not depend on the probe, which the suites verify by iterating
every valid probe.  Two-step classes form the morphisms of the extended
groupoid; composition is concatenation followed by reduction.

Every Y-element here, in path steps, probes, fold terminals and class keys,
is its member index in the Y-set of its endpoints; only reports decode
members back to tuples.  Folding and contraction read one row of the
triple's composition table (``YSystem.table``) per step.

Contraction is leftmost first, so it can run as steps are appended
(``_push``): a prefix's contraction is shared by every path that extends
it.  The quotient contracts each representative once for all its
partners; ``reductions_hold`` walks paths depth first over shared
prefixes, each keeping its fold terminals per probe; and
``classes_match_folds`` compares, probe by probe, the partition of the
paths by fold terminal with their partition by class key.  Each walk
returns None or its first counterexample, so it is the whole check of its
fgroupoid claim.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import InvalidInput, NoProbeAvailable
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
        row = ys.table(c_star, b, c)[acc]
        if not 0 <= g < len(row):  # a negative step would wrap
            raise InvalidInput(f"member {g} outside Y({b}, {c}), which has {len(row)}")
        acc = row[g]
    return acc


def _terms(
    ys: YSystem, objs: tuple[int, ...], steps: tuple[int, ...], c_star: int
) -> tuple[int, ...]:
    """The fold of the path (objs, steps) at every probe (c_star, g*), by g*."""
    terms: Iterable[int] = range(ys.y_set(c_star, objs[0]).size)
    for b, c, g in zip(objs, objs[1:], steps):
        table = ys.table(c_star, b, c)
        terms = [table[a][g] for a in terms]
    return tuple(terms)


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


Stack = tuple[tuple[int, ...], tuple[int, ...]]  # (objects, steps) of a contracted prefix


def _push(
    ys: YSystem, objs: tuple[int, ...], steps: tuple[int, ...], o: int, g: int, left: int
) -> Stack:
    """The contracted prefix (objs, steps) extended by step g into o, then
    contracted as ``contract_to_two_steps`` contracts the whole path, with
    ``left`` steps still to come: leftmost first, while the path keeps more
    than two steps.  The prefix has no distinct triple left, so the first
    one is the triple ending at o, and after a contraction the next is."""
    objs, steps = objs + (o,), steps + (g,)
    while len(steps) + left > 2 and len(objs) > 2 and objs[-3] != objs[-2] != o != objs[-3]:
        steps = steps[:-2] + (ys.compose(objs[-3], objs[-2], o, steps[-2], steps[-1]),)
        objs = objs[:-2] + (o,)
    return objs, steps


def _settle(ys: YSystem, objs: tuple[int, ...], steps: tuple[int, ...]) -> Stack:
    """A contracted path as one of at most two steps: one that still has
    more alternates between two objects, and is replaced by the 2-step path
    through a fresh object with the same fold at a fresh probe."""
    if len(steps) <= 2:
        return objs, steps
    c, d = objs[0], objs[-1]
    p = _fresh(ys, set(objs))
    e = _fresh(ys, {c, d, p})
    q = _two_step(ys, p, c, e, d, fold(ys, DirectedPath(objs, steps), (p, 0)))
    return q.objects, q.steps


def contract_to_two_steps(ys: YSystem, path: DirectedPath) -> DirectedPath:
    """Reduce to a 2-step path by contractions, leftmost first, introducing
    a fresh object only when the path alternates between two objects."""
    if path.n_steps <= 2:
        return path
    stack: Stack = (path.objects[:1], ())
    for i, (o, g) in enumerate(zip(path.objects[1:], path.steps)):
        stack = _push(ys, *stack, o, g, path.n_steps - 1 - i)
    return DirectedPath(*_settle(ys, *stack))


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
    q = contract_to_two_steps(ys, path)
    return _key(ys, q.objects, q.steps)


def _key(ys: YSystem, objs: tuple[int, ...], steps: tuple[int, ...]) -> tuple:
    """``class_key`` of a path of at most two steps."""
    c, d = objs[0], objs[-1]
    if c != d:
        y = steps[0] if len(steps) == 1 else ys.compose(c, objs[1], d, *steps)
        return ("edge", c, d, y)
    return ("vertex", c, d, _vertex_terminal(ys, DirectedPath(objs, steps)))


def canonical_rep(ys: YSystem, key: tuple) -> DirectedPath:
    """The class's 2-step representative c -> e -> d: its first step is
    member 0, and its fold at the canonical probe (p, 0) is the fold of the
    1-step path (c, idx, d) for an edge class, idx itself for a vertex
    class.  Kept per key on the Y-set system."""
    rep = ys.path_reps.get(key)
    if rep is None:
        kind, c, d, idx = key
        p = _fresh(ys, {c, d})
        e = _fresh(ys, {c, d, p})
        t = ys.compose(p, c, d, 0, idx) if kind == "edge" else idx
        rep = ys.path_reps[key] = _two_step(ys, p, c, e, d, t)
    return rep


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


def _prefixes(
    ys: YSystem, c: int, d: int, n_steps: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], Stack, dict[int, list[int]]]]:
    """The (n-1)-step prefixes of the n-step paths c -> d, depth first, each
    extending its own prefix by one step: its objects, its steps, its
    contraction as the beginning of an n-step path (``_push``) and its fold
    terminals, per probe object off it and off d, per probe member."""
    objs = tuple(objects_of(ys.structure))

    def extend(objects, steps, stack, folds):
        depth = len(steps)
        if depth == n_steps - 1:
            yield objects, steps, stack, folds
            return
        b = objects[-1]
        for o in objs:
            if o == b or (o == d and depth == n_steps - 2):
                continue
            tables = {p: ys.table(p, b, o) for p in folds if p != o}
            for g in range(ys.y_set(b, o).size):
                yield from extend(
                    objects + (o,),
                    steps + (g,),
                    _push(ys, *stack, o, g, n_steps - 1 - depth),
                    {p: [t[a][g] for a in folds[p]] for p, t in tables.items()},
                )

    start = {p: list(range(ys.y_set(p, c).size)) for p in objs if p not in (c, d)}
    yield from extend((c,), (), ((c,), ()), start)


def reductions_hold(ys: YSystem, c: int, d: int, n_steps: int) -> Optional[dict]:
    """None when every n-step path c -> d (n >= 3) is equivalent to its
    class's 2-step representative r (``canonical_rep``); otherwise the
    first path, depth first, that is not, with its steps as members.

    A path q is compared with r by their fold terminals at every probe off
    both; with no such probe, through q's contraction, at the probes off q
    and it and at those off it and r; and with neither, by confluence: r
    and every first contraction of q have q's class key.  Terminals that
    agree at one probe and not at another fail q as well.  The walk runs
    over shared prefixes (``_prefixes``): the last step finishes the
    contraction its prefix began and extends the prefix's fold terminals,
    and each representative is folded once per probe object."""
    objs = tuple(objects_of(ys.structure))
    rep_terms: dict[tuple[tuple, int], tuple[int, ...]] = {}

    def r_terms(key: tuple, p: int) -> tuple[int, ...]:
        if (key, p) not in rep_terms:
            r = canonical_rep(ys, key)
            rep_terms[(key, p)] = _terms(ys, r.objects, r.steps, p)
        return rep_terms[(key, p)]

    for objects, steps, stack, folds in _prefixes(ys, c, d, n_steps):
        b = objects[-1]
        subs = [_settle(ys, *_push(ys, *stack, d, g, 0)) for g in range(ys.y_set(b, d).size)]
        keys = [_key(ys, *q_sub) for q_sub in subs]
        reps = [canonical_rep(ys, key) for key in keys]
        # the objects of the contraction and of the representative, so the
        # probes the comparison folds at, do not depend on the last step
        sub_objs, r_objs = subs[0][0], reps[0].objects
        # per probe object, per last step, the path's terminals by probe member
        terms = {p: list(zip(*map(ys.table(p, b, d).__getitem__, t))) for p, t in folds.items()}
        direct = [p for p in folds if p not in r_objs]
        via = [p for p in folds if p not in sub_objs]
        on = [p for p in objs if p not in sub_objs and p not in r_objs]
        q_objs = objects + (d,)
        for g, (q_sub, key) in enumerate(zip(subs, keys)):
            if direct:
                ok = all(terms[p][g] == r_terms(key, p) for p in direct)
            elif via and on:
                ok = all(terms[p][g] == _terms(ys, *q_sub, p) for p in via) and all(
                    _terms(ys, *q_sub, p) == r_terms(key, p) for p in on
                )
            else:
                q = DirectedPath(objects=q_objs, steps=steps + (g,))
                ok = class_key(ys, reps[g]) == key and all(
                    class_key(ys, contract_path(ys, q, i)) == key
                    for i in contraction_positions(q)
                )
            if not ok:
                ends = zip(q_objs, q_objs[1:], steps + (g,))
                members = [ys.y_set(a, o).members[h] for a, o, h in ends]
                return {"objects": q_objs, "steps": members}
    return None


def classes_match_folds(ys: YSystem, c: int, d: int) -> Optional[dict]:
    """None when at every probe the 2-step paths c -> d off it fall into the
    same classes by fold terminal as by ``class_key``; otherwise the first
    probe and paths q < r off it, as indices into ``all_paths``, with one
    terminal and two keys or two terminals and one key there.  That is the
    pairwise statement read probe by probe: two paths with a common probe
    get one verdict at all of them, and it is whether their class keys are
    equal."""
    # per probe, the first path with each class key and with each terminal
    by_key: dict[Probe, dict[tuple, tuple[int, int]]] = defaultdict(dict)
    by_term: dict[Probe, dict[int, tuple[int, tuple]]] = defaultdict(dict)
    for j, q in enumerate(all_paths(ys, c, d, 2)):
        key = class_key(ys, q)
        for p in objects_of(ys.structure):
            if p not in q.objects:
                for g_star, t in enumerate(_terms(ys, q.objects, q.steps, p)):
                    i, t_i = by_key[(p, g_star)].setdefault(key, (j, t))
                    if t_i == t:
                        i, key_i = by_term[(p, g_star)].setdefault(t, (j, key))
                        if key_i == key:
                            continue
                    return {"probe": [p, g_star], "q": i, "r": j}
    return None


@dataclass
class ExtendedGroupoid:
    """The quotient groupoid built from 2-step path classes, plus the maps
    connecting it back to Y-sets and to the standard groupoid."""

    ys: YSystem
    groupoid: FiniteGroupoid
    keys: tuple[tuple, ...]  # morphism id -> class key
    index: dict[tuple, int]  # class key -> morphism id

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
        return self.index[key]


def build_extended_groupoid(ys: YSystem) -> ExtendedGroupoid:
    """Assemble the quotient groupoid: objects are the structure's objects,
    morphisms are 2-step path classes, composition is concatenation followed
    by reduction.  The result passes full groupoid validation.

    A representative's contraction (``_push``) is shared by every partner
    it joins, and so is each partner's first step."""
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

    starting = [[m for m, k in enumerate(keys) if k[1] == c] for c in objects_of(s)]
    composition = []
    for m1, rep in enumerate(reps):
        (c, e1, d), (g1, h1) = rep.objects, rep.steps
        head = _push(ys, *_push(ys, (c,), (), e1, g1, 3), d, h1, 2)
        heads: dict[tuple[int, int], Stack] = {}
        for m2 in starting[d]:
            (_, e2, d2), (g2, h2) = reps[m2].objects, reps[m2].steps
            if (e2, g2) not in heads:
                heads[(e2, g2)] = _push(ys, *head, e2, g2, 1)
            joined = _settle(ys, *_push(ys, *heads[(e2, g2)], d2, h2, 0))
            composition.append((m1, m2, index[_key(ys, *joined)]))

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
    return ExtendedGroupoid(ys=ys, groupoid=gpd, keys=tuple(keys), index=index)
