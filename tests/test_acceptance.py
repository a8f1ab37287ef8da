"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (integer equality / isomorphism existence); run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time

import pytest

from conftest import count_calls, subprocess_env, suite_report
from groupoidlab import (
    Element,
    YSystem,
    build_extended_groupoid,
    build_standard_groupoid,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    encode_double_cover,
    encode_groupoid,
    finite_stage_limit,
    isomorphism_search,
    morphism_tuple,
    morphisms_between,
    object_closure,
    quaternion_group,
    restriction_epimorphism,
    strip_volatile,
    symmetric_group,
    validate_system,
    vertex_group,
)
from groupoidlab.paths import classes_match_folds, reductions_hold
from groupoidlab.report import dumps_canonical

GROUPS = {
    "Z/2": cyclic_group(2),
    "Z/3": cyclic_group(3),
    "Z/4": cyclic_group(4),
    "Z/2xZ/2": direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": symmetric_group(3),
    "D4": dihedral_group(4),
    "Q8": quaternion_group(),
}

SMALL = {"trivial": cyclic_group(1), "Z/2": cyclic_group(2), "Z/3": cyclic_group(3)}


def conclude(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def section2_reports():
    reports = {}
    for name, group in GROUPS.items():
        for n in (2, 3):
            t0 = time.perf_counter()
            s = encode_groupoid(build_standard_groupoid(group, n))
            reports[(name, n)] = (suite_report("section2", s, group), time.perf_counter() - t0)
    return reports


@pytest.fixture(scope="module")
def section3_reports():
    reports = {}
    for name, group in SMALL.items():
        for cover in (False, True):
            gpd = build_standard_groupoid(group, 4)
            s = encode_double_cover(gpd) if cover else encode_groupoid(gpd)
            kind = "cover" if cover else "plain"
            t0 = time.perf_counter()
            reports[(name, kind)] = (suite_report("section3", s), time.perf_counter() - t0)
    return reports


@pytest.fixture(scope="module")
def cover_z2_5():
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 5))
    ys = YSystem(s)
    for a in range(5):
        for b in range(5):
            if a != b:
                ys.f_group(a, b)
    return ys


def claims_ok(reports, wanted):
    failures = []
    total = 0.0
    for key, (rep, dt) in reports.items():
        total += dt
        status = {e.claim_id: e.status for e in rep.entries}
        for claim in wanted:
            if status[claim] != "pass":
                failures.append((key, claim))
    return failures, total


def test_criterion_01_center_restriction(section2_reports):
    failures, total = claims_ok(section2_reports, ["coset-group-is-center"])
    conclude(1, not failures, f"14 instances, {total:.1f}s total; failures={failures}")


def test_criterion_02_center_coset_membership(section2_reports):
    failures, total = claims_ok(section2_reports, ["center-coset"])
    conclude(2, not failures, f"14 instances; failures={failures}")


def test_criterion_03_morphism_restriction_group(section2_reports):
    failures, total = claims_ok(
        section2_reports, ["morphism-group-is-g", "morphism-group-center"]
    )
    conclude(3, not failures, f"14 instances; failures={failures}")


def test_criterion_04_choice_family_stabilizer(section2_reports):
    failures = []
    for name in ("Z/2", "S3"):
        for n in (2, 3):
            rep, _ = section2_reports[(name, n)]
            status = {e.claim_id: e.status for e in rep.entries}
            for claim in ("choice-family-maps", "stabilizer-order"):
                if status[claim] != "pass":
                    failures.append((name, n, claim))
    conclude(4, not failures, f"failures={failures}")


def test_criterion_05_regular_action_and_centrality(section3_reports):
    failures, total = claims_ok(
        section3_reports, ["f-action-regular", "binding-central"]
    )
    conclude(5, not failures, f"6 instances, {total:.1f}s total; failures={failures}")


def test_criterion_06_composition_well_defined():
    t0 = time.perf_counter()
    s = encode_double_cover(build_standard_groupoid(cyclic_group(2), 4))
    ys = YSystem(s)
    bad = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if len({a, b, c}) != 3:
                    continue
                members_ab = range(ys.y_set(a, b).size)
                members_bc = range(ys.y_set(b, c).size)
                for g in members_ab:
                    for h in members_bc:
                        outs = {
                            ys.compose(a, b, c, g, h, decomposition=(g0, h0))
                            for g0 in ys.standard(a, b)
                            for h0 in ys.standard(b, c)
                        }
                        if len(outs) != 1 or outs.pop() != ys.compose(a, b, c, g, h):
                            bad.append((a, b, c, g, h))
                for f in range(ys.y_set(a, c).size):
                    for g in members_ab:
                        hits = [h for h in members_bc if ys.compose(a, b, c, g, h) == f]
                        if len(hits) != 1:
                            bad.append((a, b, c, f, "divisors", len(hits)))
    conclude(6, not bad, f"24 triples exhaustively, {time.perf_counter()-t0:.1f}s; bad={bad[:3]}")


def test_criterion_07_path_machinery(cover_z2_5, monkeypatch):
    ys = cover_z2_5
    calls = count_calls(monkeypatch, YSystem, ("compose", "table"))
    t0 = time.perf_counter()
    bad = []
    # equivalence relation + probe independence on every two-step carrier:
    # the unanimous probe verdict must match canonical class keys pairwise.
    # Read probe by probe: at each probe, fold terminals and class keys
    # partition the paths that have it alike.  Five objects leave every
    # pair of two-step paths a common probe.
    for a in range(5):
        for b in range(5):
            if classes_match_folds(ys, a, b) is not None:
                bad.append(("pairwise", a, b))
    t1 = time.perf_counter()
    # every 3- and 4-step path reduces to an equivalent 2-step path, as
    # the oracle's reduce_path and verify_reduction decide it, over shared
    # prefixes
    for steps in (3, 4):
        for a in range(5):
            for b in range(5):
                if reductions_hold(ys, a, b, steps) is not None:
                    bad.append(("equiv", steps, a, b))
    t2 = time.perf_counter()
    conclude(
        7,
        not bad,
        f"pairwise {t1-t0:.1f}s, reductions {t2-t1:.1f}s, "
        f"{calls['compose']} compose and {calls['table']} table calls; bad={bad[:3]}",
    )


def test_criterion_08_quotient_groupoid():
    t0 = time.perf_counter()
    bad = []
    for name, cover in (("Z/2", False), ("Z/2", True), ("trivial", True)):
        gpd0 = build_standard_groupoid(SMALL[name], 4)
        s = encode_double_cover(gpd0) if cover else encode_groupoid(gpd0)
        ext = build_extended_groupoid(s.y_system)  # validates internally
        ys = ext.ys
        for a in range(4):
            fg = ys.f_group(a, (a + 1) % 4)
            vg = vertex_group(ext.groupoid, a)
            if isomorphism_search(vg.group, fg.group) is None:
                bad.append((name, cover, "vertex", a))
        for a in range(4):
            for b in range(4):
                if a != b:
                    count = sum(1 for k in ext.keys if k[1] == a and k[2] == b)
                    if count != ys.y_set(a, b).size:
                        bad.append((name, cover, "size", a, b))
        gpd = ys.gpd
        inj = [ext.inject_standard(m) for m in range(gpd.n_morphisms)]
        for m1 in range(gpd.n_morphisms):
            for m2 in range(gpd.n_morphisms):
                if gpd.ter[m1] == gpd.init[m2]:
                    if ext.inject_standard(gpd.compose(m1, m2)) != ext.groupoid.compose(
                        inj[m1], inj[m2]
                    ):
                        bad.append((name, cover, "composition", m1, m2))
        if not cover and sorted(inj) != list(range(ext.groupoid.n_morphisms)):
            bad.append((name, cover, "not bijective on plain"))
    conclude(8, not bad, f"3 instances, {time.perf_counter()-t0:.1f}s; bad={bad[:3]}")


def test_criterion_09_cover_enlarges_group():
    t0 = time.perf_counter()
    bad = []
    for name in ("Z/2", "Z/3"):
        group = SMALL[name]
        s = encode_double_cover(build_standard_groupoid(group, 4))
        ys = YSystem(s)
        fg = ys.f_group(0, 1)
        gg = ys.g_subgroup(0, 1)
        if fg.order != 2 * group.order:
            bad.append((name, "order", fg.order))
        if not fg.group.is_abelian():
            bad.append((name, "not abelian"))
        if not set(gg.perms) < set(fg.perms):
            bad.append((name, "not proper"))
        if center(fg.group).order != fg.order:
            bad.append((name, "center not everything"))
    conclude(9, not bad, f"{time.perf_counter()-t0:.1f}s; bad={bad}")


def test_criterion_10_limits_and_towers():
    t0 = time.perf_counter()
    bad = []
    z8, z4, z2 = cyclic_group(8), cyclic_group(4), cyclic_group(2)
    sys_chain = validate_system(
        indices=("z2", "z4", "z8"),
        order_pairs=[("z2", "z4"), ("z4", "z8")],
        groups={"z2": z2, "z4": z4, "z8": z8},
        transitions={
            ("z2", "z4"): [x % 2 for x in range(4)],
            ("z4", "z8"): [x % 4 for x in range(8)],
            ("z2", "z8"): [x % 2 for x in range(8)],
        },
    )
    if isomorphism_search(finite_stage_limit(sys_chain, ("z2", "z4", "z8")).group, z8) is None:
        bad.append("chain limit")
    sys_const = validate_system(
        indices=("lo", "hi"),
        order_pairs=[("lo", "hi")],
        groups={"lo": z2, "hi": z2},
        transitions={("lo", "hi"): [0, 1]},
    )
    if isomorphism_search(finite_stage_limit(sys_const, ("lo", "hi")).group, z2) is None:
        bad.append("constant limit")

    s_cov = encode_double_cover(build_standard_groupoid(z2, 4))
    m = min(morphisms_between(s_cov, 0, 1))
    hom = restriction_epimorphism(
        s_cov, object_closure(s_cov, 0), (Element("M", m),), morphism_tuple(s_cov, m)
    )
    if not (hom.is_surjective() and len(hom.kernel()) == 2):
        bad.append(("epi", hom.source.order, hom.target.order, len(hom.kernel())))

    for name, group in SMALL.items():
        gpd = build_standard_groupoid(group, 4)
        for kind, s in (("plain", encode_groupoid(gpd)), ("cover", encode_double_cover(gpd))):
            entries = suite_report("limits", s).entries
            tower = [e for e in entries if e.claim_id.startswith("instance.")]
            if len(tower) != 5:
                bad.append((f"{kind} {name}", "tower claims", len(tower)))
            bad.extend(
                (f"{kind} {name}", e.claim_id, e.witness) for e in tower if e.status != "pass"
            )
    conclude(10, not bad, f"{time.perf_counter()-t0:.1f}s; bad={bad[:3]}")


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    docs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "groupoidlab.cli", "verify",
                "--suite", "all", "--group", "cyclic:2", "--objects", "4",
                "--cover", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(out.read_text()))
    same = dumps_canonical(strip_volatile(docs[0])) == dumps_canonical(
        strip_volatile(docs[1])
    )
    conclude(11, same, f"two full runs, {time.perf_counter()-t0:.1f}s")
