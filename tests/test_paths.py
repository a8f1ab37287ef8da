import hashlib
import itertools

import pytest

from conftest import _relabelled, count_calls, suite_report
from oracle import (
    fold_vector,
    path_equivalent,
    probe_candidates,
    probe_verdict,
    reduce_path,
    verify_reduction,
)
from groupoidlab import (
    DirectedPath,
    InvalidInput,
    NoProbeAvailable,
    YSystem,
    all_paths,
    build_extended_groupoid,
    build_standard_groupoid,
    class_key,
    contract_path,
    contract_to_two_steps,
    cyclic_group,
    encode_double_cover,
    encode_groupoid,
    fold,
    isomorphism_search,
    make_path,
    structure_from_json,
    structure_to_json,
    vertex_group,
)
from groupoidlab.errors import ClaimFailure, GroupoidLabError
from groupoidlab.groupoids import FiniteGroupoid, validate_groupoid
from groupoidlab.paths import (
    _fresh,
    _key,
    _prefixes,
    _push,
    _settle,
    _two_step,
    canonical_rep,
    classes_match_folds,
    contraction_positions,
    reductions_hold,
)


@pytest.fixture(scope="module")
def ys_cover4():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    return YSystem(s)


@pytest.fixture(scope="module")
def ys_plain4():
    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 4))
    return YSystem(s)


def two_step(ys, a, e, b, i=0, j=0):
    return make_path(ys, (a, e, b), (i, j))


def test_make_path_validation(ys_cover4):
    with pytest.raises(InvalidInput):
        make_path(ys_cover4, (0, 0), (0,))
    for g in (-1, ys_cover4.y_set(1, 2).size):
        with pytest.raises(InvalidInput):
            make_path(ys_cover4, (1, 2), (g,))  # not a member of Y(1, 2)
    with pytest.raises(InvalidInput):
        make_path(ys_cover4, (0, 9), (0,))  # no object 9


def test_fold_of_single_step_is_composition(ys_cover4):
    ys = ys_cover4
    q = make_path(ys, (0, 1), (1,))
    assert fold(ys, q, (2, 0)) == ys.compose(2, 0, 1, 0, 1)


def test_fold_rejects_invalid_probes(ys_cover4):
    ys = ys_cover4
    q = make_path(ys, (0, 1), (1,))
    for probe in ((1, 0), (2, -1), (2, ys.y_set(2, 0).size), (9, 0)):
        with pytest.raises(InvalidInput):
            fold(ys, q, probe)


def test_fold_and_contraction_reject_negative_steps(ys_cover4):
    # table rows are tuples, so an unchecked negative step would wrap
    ys = ys_cover4
    with pytest.raises(InvalidInput):
        fold(ys, DirectedPath(objects=(0, 1), steps=(-1,)), (2, 0))
    with pytest.raises(InvalidInput):
        contract_path(ys, DirectedPath(objects=(0, 1, 2), steps=(0, -1)), 0)


def test_path_equivalence_reflexive(ys_cover4):
    q = two_step(ys_cover4, 0, 2, 1)
    assert path_equivalent(ys_cover4, q, q)


def test_twisting_by_binding_element(ys_cover4):
    ys = ys_cover4
    q = two_step(ys, 0, 2, 1, i=0, j=0)
    g_sub_02 = ys.g_subgroup(0, 2)
    g_sub_21 = ys.g_subgroup(2, 1)
    twist_02 = next(p for p in g_sub_02.perms if p != tuple(range(len(p))))
    twist_21 = next(p for p in g_sub_21.perms if p != tuple(range(len(p))))
    # twisting one step by the binding element and the next by its inverse
    # stays in the class; twisting only one step leaves it
    both = DirectedPath(
        objects=q.objects, steps=(twist_02[q.steps[0]], twist_21[q.steps[1]])
    )
    one = DirectedPath(objects=q.objects, steps=(twist_02[q.steps[0]], q.steps[1]))
    assert path_equivalent(ys, q, both)
    assert not path_equivalent(ys, q, one)


def test_no_probe_raises(ys_cover4):
    q = two_step(ys_cover4, 0, 2, 1)
    r = two_step(ys_cover4, 0, 3, 1)
    with pytest.raises(NoProbeAvailable):
        path_equivalent(ys_cover4, q, r)


def test_probe_verdict_reads_fold_vectors(ys_cover4):
    # each path folded once at each of its probes: a pair with a common
    # probe gets path_equivalent's verdict, a pair without gets None, and
    # fold vectors that agree at one probe and not another raise
    ys = ys_cover4
    paths = list(all_paths(ys, 0, 1, 2))
    folds = [fold_vector(ys, q, probe_candidates(ys, q)) for q in paths]
    for q, q_folds in zip(paths, folds):
        for r, r_folds in zip(paths, folds):
            verdict = probe_verdict(q, r, q_folds, r_folds)
            if q.objects == r.objects:
                assert verdict == path_equivalent(ys, q, r)
            else:
                assert verdict is None
    q, q_folds = paths[0], folds[0]
    first = next(iter(q_folds))
    split = {**q_folds, first: q_folds[first] + 1}
    assert len(split) > 1
    with pytest.raises(ClaimFailure):
        probe_verdict(q, q, q_folds, split)


def test_reduce_is_canonical_and_idempotent(ys_cover4):
    q = two_step(ys_cover4, 0, 2, 1, i=3, j=2)
    r = reduce_path(ys_cover4, q)
    assert r.n_steps == 2
    assert class_key(ys_cover4, r) == class_key(ys_cover4, q)
    assert reduce_path(ys_cover4, r) == r


def test_one_step_reduces_to_equivalent_two_step(ys_cover4):
    ys = ys_cover4
    q = make_path(ys, (0, 1), (2,))
    r = reduce_path(ys, q)
    assert r.n_steps == 2
    assert path_equivalent(ys, q, r)


def test_three_step_reductions_plain(ys_plain4):
    for q in all_paths(ys_plain4, 0, 1, 3):
        r = reduce_path(ys_plain4, q)
        assert r.n_steps == 2
        assert verify_reduction(ys_plain4, q, r)


def test_vertex_paths_reduce(ys_cover4):
    count = 0
    for q in all_paths(ys_cover4, 0, 0, 2):
        r = reduce_path(ys_cover4, q)
        assert (r.start, r.objects[-1]) == (0, 0)
        assert verify_reduction(ys_cover4, q, r)
        count += 1
    assert count > 0


def test_alternating_path_reduces(ys_cover4):
    ys = ys_cover4
    q = make_path(ys, (0, 1, 0, 1), (1, 2, 3))
    r = reduce_path(ys, q)
    assert r.n_steps == 2
    assert verify_reduction(ys, q, r)


def test_composition_associativity(ys_cover4):
    ys = ys_cover4
    for g in range(ys.y_set(0, 1).size):
        for h in range(ys.y_set(1, 2).size):
            for k in range(ys.y_set(2, 3).size):
                left = ys.compose(0, 2, 3, ys.compose(0, 1, 2, g, h), k)
                right = ys.compose(0, 1, 3, g, ys.compose(1, 2, 3, h, k))
                assert left == right


def test_contract_requires_distinct_triple(ys_cover4):
    ys = ys_cover4
    q = make_path(ys, (0, 1, 0), (0, 0))
    with pytest.raises(InvalidInput):
        contract_path(ys, q, 0)
    q3 = make_path(ys, (0, 1, 2, 3), (0, 0, 0))
    for i in (5, -1):
        with pytest.raises(InvalidInput):
            contract_path(ys, q3, i)  # no steps i, i + 1


def test_probe_candidates_iterate_all(ys_cover4):
    q = two_step(ys_cover4, 0, 2, 1)
    probes = list(probe_candidates(ys_cover4, q))
    assert {c for c, _ in probes} == {3}
    assert len(probes) == ys_cover4.y_set(3, 0).size


@pytest.mark.parametrize("n_steps", [0, -1])
def test_all_paths_rejects_fewer_than_one_step(ys_cover4, n_steps):
    with pytest.raises(InvalidInput):
        next(all_paths(ys_cover4, 0, 1, n_steps))


def test_extended_groupoid_requires_four_objects():
    s = encode_groupoid(build_standard_groupoid(cyclic_group(2), 3))
    with pytest.raises(NoProbeAvailable):
        build_extended_groupoid(s.y_system)


def test_extended_groupoid_cover(ys_cover4):
    ext = build_extended_groupoid(ys_cover4)
    assert ext.groupoid.n_morphisms == 16 * 4
    vg = vertex_group(ext.groupoid, 2)
    assert vg.group.order == 4 and vg.group.is_abelian()
    fg = ys_cover4.f_group(2, 0)
    assert isomorphism_search(vg.group, fg.group) is not None


def test_extended_groupoid_plain_is_the_standard_one(ys_plain4):
    ext = build_extended_groupoid(ys_plain4)
    gpd = ys_plain4.gpd
    images = [ext.inject_standard(m) for m in range(gpd.n_morphisms)]
    assert sorted(images) == list(range(ext.groupoid.n_morphisms))
    for m1 in range(gpd.n_morphisms):
        for m2 in range(gpd.n_morphisms):
            if gpd.ter[m1] == gpd.init[m2]:
                assert ext.inject_standard(gpd.compose(m1, m2)) == ext.groupoid.compose(
                    images[m1], images[m2]
                )


def test_path_class_membership(ys_cover4):
    ys = ys_cover4
    q = two_step(ys, 0, 2, 1, i=1, j=1)
    key = class_key(ys, q)
    r = reduce_path(ys, q)
    assert r.n_steps == 2
    assert class_key(ys, r) == key
    other = two_step(ys, 0, 2, 1, i=0, j=1)
    assert class_key(ys, other) != key


def test_four_step_reduction_with_all_probes_at_six_objects():
    # six objects leave a probe free for any 4-step path, so the reduction
    # can be certified by folding against every probe directly
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 6))
    ys = YSystem(s)
    q = make_path(
        ys,
        (0, 2, 3, 4, 1),
        (1, 3, 2, 0),
    )
    r = reduce_path(ys, q)
    assert r.n_steps == 2 and (r.start, r.objects[-1]) == (0, 1)
    assert path_equivalent(ys, q, r)


def _member(ys, a, b, step):
    # a step is decoded to its member tuple, so the digest does not depend
    # on how a path holds its steps
    return step if isinstance(step, tuple) else ys.y_set(a, b).members[step]


def _decoded_path(ys, q):
    objs = q.objects
    return objs, tuple(_member(ys, objs[i], objs[i + 1], g) for i, g in enumerate(q.steps))


def _decoded_key(ys, key):
    kind, c, d, idx = key
    a = c if kind == "edge" else min(o for o in range(ys.structure.sort_size("O")) if o != c)
    return kind, c, d, ys.y_set(a, d).members[idx]


def _composition_digest(ys):
    """sha256 over the composition tables, class keys, reductions, quotient
    groupoid and standard injection of one instance, every member decoded."""
    n = ys.structure.sort_size("O")
    out = []
    for a in range(n):
        for c in range(n):
            if a == c:
                continue
            paths = iter(all_paths(ys, a, c, 2))
            for b in range(n):
                if b in (a, c):
                    continue
                for g, h in itertools.product(ys.y_set(a, b).members, ys.y_set(b, c).members):
                    q = next(paths)
                    assert q.objects == (a, b, c)
                    out.append((a, b, c, g, h, _decoded_key(ys, class_key(ys, q))))
            assert next(paths, None) is None
    for n_steps in (2, 3):
        for q in all_paths(ys, 0, 1, n_steps):
            key = class_key(ys, q)
            out.append(
                (
                    _decoded_path(ys, q),
                    _decoded_key(ys, key),
                    _decoded_path(ys, reduce_path(ys, q)),
                )
            )
    ext = build_extended_groupoid(ys)
    gpd = ext.groupoid
    out.append(tuple(_decoded_key(ys, k) for k in ext.keys))
    out.append((gpd.init, gpd.ter, gpd.inverse, gpd.identities, gpd.composition))
    out.append(tuple(ext.inject_standard(m) for m in range(ys.gpd.n_morphisms)))
    return hashlib.sha256(repr(out).encode()).hexdigest()


COMPOSITION_GOLDEN = [
    (2, 4, True, "62b8024f68b22ce54077a333ffc37696c79504dd254ee4f346d299b8890f14b4"),
    (3, 4, True, "7beffa36c06487785aee67d5984693b0a183767695f9924b6381d60bc8716b9e"),
    (2, 5, False, "d64b00071ff03fae2ae3643376e163fd01511dab2bfe97368d91e85880abde6d"),
    (4, 4, False, "5a96665dd9a62bd49700e9755d51699de83434691063b8f9221cd84318f94508"),
]


@pytest.mark.parametrize(
    "order,n,cover,digest",
    COMPOSITION_GOLDEN,
    ids=[f"cyclic:{o}-n{n}-{'cover' if c else 'plain'}" for o, n, c, _ in COMPOSITION_GOLDEN],
)
def test_composition_and_path_classes_golden(order, n, cover, digest):
    encode = encode_double_cover if cover else encode_groupoid
    ys = YSystem(encode(build_standard_groupoid(cyclic_group(order), n)))
    assert _composition_digest(ys) == digest


# -- the shared-prefix walks against the path-by-path functions ---------------


def _cover(order, n):
    return encode_double_cover(build_standard_groupoid(cyclic_group(order), n))


def _pinned_cover4(obj):
    # no automorphism carries (0, 1) to a pair through obj, so every table
    # of a triple through it raises DecompositionFailure
    data = structure_to_json(_cover(2, 4))
    data["constants"] = [{"name": "mark", "sort": "O", "index": obj}]
    return structure_from_json(data)


DIFFERENTIAL = {
    "cyclic:2-n4-cover": lambda: _cover(2, 4),
    "cyclic:3-n4-plain": lambda: encode_groupoid(build_standard_groupoid(cyclic_group(3), 4)),
    "relabelled-cyclic:2-n4-cover": lambda: _relabelled(_cover(2, 4), 5)[0],
    "object-2-pinned": lambda: _pinned_cover4(2),
    # the walks and the loops raise naming different triples here, so
    # only their statuses agree
    "object-3-pinned": lambda: _pinned_cover4(3),
}
PAIRS = ((0, 1), (2, 0), (1, 1))


def _outcome(check):
    """A check's result, or its error as the report would show it."""
    try:
        return check()
    except GroupoidLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _leftmost(ys, path):
    """contract_to_two_steps as a loop over whole paths: contract at the
    first distinct triple, and take the fresh-object detour when none is
    left."""
    q = path
    while q.n_steps > 2:
        positions = contraction_positions(q)
        if positions:
            q = contract_path(ys, q, positions[0])
            continue
        c, d = q.start, q.objects[-1]
        p = _fresh(ys, set(q.objects))
        e = _fresh(ys, {c, d, p})
        q = _two_step(ys, p, c, e, d, fold(ys, q, (p, 0)))
    return q


def _pairwise(ys, c, d):
    """path-equivalence-consistent's pairwise loop over the 2-step paths c -> d."""
    d2 = list(all_paths(ys, c, d, 2))
    keys = [class_key(ys, q) for q in d2]
    folds = [fold_vector(ys, q, probe_candidates(ys, q)) for q in d2]
    for i, q in enumerate(d2):
        for j, r in enumerate(d2):
            verdict = probe_verdict(q, r, folds[i], folds[j])
            if verdict is not None and verdict != (keys[i] == keys[j]):
                return {"q": i, "r": j}
    return None


def _walk_order(q):
    # the depth-first order of _prefixes: each step's object, then its member
    return tuple(itertools.chain.from_iterable(zip(q.objects[1:], q.steps)))


def _reductions(ys, c, d, n_steps):
    """three-step-reduction's path-by-path loop over the n-step paths c -> d,
    in the walk's order: the first path that verify_reduction does not
    certify equivalent to its representative, or None.  A verdict split
    between probes, for which it raises, fails the path too."""
    for q in sorted(all_paths(ys, c, d, n_steps), key=_walk_order):
        r = reduce_path(ys, q)
        try:
            certified = r.n_steps == 2 and verify_reduction(ys, q, r)
        except ClaimFailure:
            certified = False
        if not certified:
            return q
    return None


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_prefix_walk_matches_fold_and_verify_reduction(name):
    ys = YSystem(DIFFERENTIAL[name]())
    for c, d in PAIRS:
        walked = _outcome(lambda: reductions_hold(ys, c, d, 3))
        reference = _outcome(lambda: _reductions(ys, c, d, 3))
        assert (walked is None) == (reference is None)
        if walked is not None:
            continue
        n = 0
        for objects, steps, stack, folds in _prefixes(ys, c, d, 3):
            prefix = DirectedPath(objects, steps)
            banned = set(objects) | {d}
            assert set(folds) == {p for p in range(ys.structure.sort_size("O")) if p not in banned}
            for p, terms in folds.items():
                assert terms == [fold(ys, prefix, (p, g)) for g in range(ys.y_set(p, c).size)]
            for g in range(ys.y_set(objects[-1], d).size):
                q = DirectedPath(objects + (d,), steps + (g,))
                settled = _settle(ys, *_push(ys, *stack, d, g, 0))
                assert DirectedPath(*settled) == _leftmost(ys, q)
                assert _key(ys, *settled) == class_key(ys, q)
                n += 1
        assert n == sum(1 for _ in all_paths(ys, c, d, 3))


def test_contraction_is_leftmost_first_on_four_step_paths():
    ys = YSystem(_cover(2, 4))
    for c, d in PAIRS:
        for q in all_paths(ys, c, d, 4):
            assert contract_to_two_steps(ys, q) == _leftmost(ys, q)
    # a repeated object is no distinct triple, on a path not built by make_path
    q = DirectedPath(objects=(0, 0, 1, 2), steps=(0, 0, 0))
    assert contract_to_two_steps(ys, q) == _leftmost(ys, q)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_probe_partitions_match_the_pairwise_loop(name):
    ys = YSystem(DIFFERENTIAL[name]())
    for c, d in PAIRS:
        walked = _outcome(lambda: classes_match_folds(ys, c, d))
        reference = _outcome(lambda: _pairwise(ys, c, d))
        assert (walked is None) == (reference is None)


def _perturbed(n, key, how):
    """The cyclic:2 cover on n objects with the table of the object triple
    key changed: entries 0 and 1 swapped in its first row ("row") or in
    every row ("column"), or member 1 read as member 0 throughout
    ("collapse"), which keeps the fold a function of the class but not
    one-to-one."""
    s = _cover(2, n)
    ys = s.y_system
    table = [list(row) for row in ys.table(*key)]
    for row in table[:1] if how == "row" else table:
        if how == "collapse":
            row[:] = [0 if t == 1 else t for t in row]
        else:
            row[0], row[1] = row[1], row[0]
    ys._tables[key] = tuple(map(tuple, table))
    return s


@pytest.mark.parametrize(
    "n,key,how,pairwise_fails,reduction_fails",
    [
        (4, (3, 0, 2), "column", True, False),  # probe 3 relabelled: pairs disagree
        (4, (3, 0, 2), "row", True, False),  # split at one probe: probe-independence
        (4, (3, 2, 1), "collapse", True, True),
        (4, (2, 0, 3), "row", True, True),
        (4, (0, 2, 1), "column", True, True),  # class keys move
        (5, (4, 1, 0), "column", False, True),  # the second of two probe objects
    ],
)
def test_a_failing_walk_reports_a_counterexample_the_oracle_confirms(
    n, key, how, pairwise_fails, reduction_fails
):
    # each claim fails where the path-by-path loop fails, and its witness
    # is a counterexample the oracle confirms; a verdict split between
    # probes, for which the loops raise, is a disagreement at one of them
    s = _perturbed(n, key, how)
    ys = s.y_system
    entries = {e.claim_id: e for e in suite_report("fgroupoid", s).entries}
    equivalence = entries["path-equivalence-consistent"]
    reduction = entries["three-step-reduction"]
    assert (equivalence.status == "fail") is pairwise_fails
    assert (_outcome(lambda: _pairwise(ys, 0, 1)) is not None) is pairwise_fails
    assert (reduction.status == "fail") is reduction_fails
    assert (_reductions(ys, 0, 1, 3) is not None) is reduction_fails
    if pairwise_fails:
        witness = equivalence.witness
        assert set(witness) == {"probe", "q", "r"} and witness["q"] < witness["r"]
        d2 = list(all_paths(ys, 0, 1, 2))
        probe, q, r = tuple(witness["probe"]), d2[witness["q"]], d2[witness["r"]]
        assert probe[0] not in q.objects + r.objects
        same_terminal = fold(ys, q, probe) == fold(ys, r, probe)
        assert same_terminal is not (class_key(ys, q) == class_key(ys, r))
    else:
        assert equivalence.witness is None
    if reduction_fails:
        witness = reduction.witness
        objs = witness["objects"]
        steps = zip(objs, objs[1:], witness["steps"])
        q = DirectedPath(objs, tuple(ys.y_set(a, b).index_of(m) for a, b, m in steps))
        # the first path, depth first, whose representative fails
        assert q == _reductions(ys, 0, 1, 3)
    else:
        assert reduction.witness is None


def _quotient_by_whole_joins(ys):
    """The quotient's composition with each join's class key computed on the
    whole 4-step path, every representative built anew."""
    n = ys.structure.sort_size("O")
    keys = []
    for c in range(n):
        for d in range(n):
            size = ys.y_set(c, d).size if c != d else ys.y_set(_fresh(ys, {c}), c).size
            keys += [("edge" if c != d else "vertex", c, d, idx) for idx in range(size)]
    reps = [canonical_rep(ys, k) for k in keys]
    index = {k: i for i, k in enumerate(keys)}
    composition = []
    for m1, r1 in enumerate(reps):
        for m2, r2 in enumerate(reps):
            if r1.objects[-1] == r2.start:
                joined = DirectedPath(r1.objects + r2.objects[1:], r1.steps + r2.steps)
                composition.append((m1, m2, index[class_key(ys, joined)]))
    return keys, composition


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_quotient_composition_is_the_class_key_of_each_join(name):
    ys = YSystem(DIFFERENTIAL[name]())
    built = _outcome(lambda: build_extended_groupoid(ys))
    if isinstance(built, str):
        # the same first failing table as the join-by-join construction
        assert built == _outcome(lambda: _quotient_by_whole_joins(ys))
        return
    keys, composition = _quotient_by_whole_joins(ys)
    assert built.keys == tuple(keys)
    assert built.groupoid.composition == tuple(sorted(composition))
    assert all(built.index[k] == m for m, k in enumerate(keys))


def test_validation_failure_of_a_perturbed_quotient_is_the_first_bad_triple():
    s = _perturbed(4, (0, 2, 1), "column")
    ys = s.y_system
    built = _outcome(lambda: build_extended_groupoid(ys))
    keys, composition = _quotient_by_whole_joins(ys)
    identities = [keys.index(("vertex", c, c, 0)) for c in range(4)]
    inverse = [-1] * len(keys)
    for m1, m2, m in composition:
        if m == identities[keys[m1][1]]:
            inverse[m1] = m2
    gpd = FiniteGroupoid(
        n_objects=4,
        init=tuple(k[1] for k in keys),
        ter=tuple(k[2] for k in keys),
        inverse=tuple(inverse),
        identities=tuple(identities),
        composition=tuple(sorted(composition)),
    )
    assert built.startswith("AxiomViolation: associativity")
    assert built == _outcome(lambda: validate_groupoid(gpd))


# the YSystem.compose and YSystem.table calls of the fgroupoid suite on the
# cyclic:2 n=5 cover: they do not depend on the machine, so a walk that
# composes per path again, or a claim that refolds, shows here
FGROUPOID_CALLS = {"compose": 4238, "table": 7249}


def test_fgroupoid_composition_calls_are_pinned(monkeypatch):
    calls = count_calls(monkeypatch, YSystem, FGROUPOID_CALLS)
    report = suite_report("fgroupoid", _cover(2, 5))
    assert report.passed
    assert calls == FGROUPOID_CALLS
