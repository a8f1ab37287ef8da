"""Golden report bytes: refactors of the engine, the groupoid view or the
suite registry must not change a single byte of a report.

Each configuration is run through the CLI in-process and its report is
hashed after ``strip_volatile`` exactly as ``dumps_canonical`` renders it.
Together the configurations cover all five suites on both encodings, the
``skipped`` entries of ``--suite all``, a structure file carrying the double
cover, and a non-abelian vertex group, alone and under ``--suite all``.  A
changed hash means a changed report: find out why before re-recording
anything.
"""

import hashlib
import json

import pytest

from groupoidlab.cli import main
from groupoidlab.report import dumps_canonical, strip_volatile

GOLDEN = [
    (
        "verify --suite all --group cyclic:2 --objects 4",
        0,
        "863b0fe00b0d67dc85a224a5f6b003accbb8a6713e37411b6aaaf1deaeb0cb1d",
    ),
    (
        "verify --suite all --group cyclic:2 --objects 3 --cover",
        0,
        "3773fdd7fc73ca2bd69cf375986efc40a86c0ad9b6baa300a3548d886edd4f2e",
    ),
    (
        "verify --suite all --group cyclic:2 --objects 2 --cover",
        0,
        "f17f6acf4fc5215656142b17096dfaf9ed9273c71eb4aceaa0cf0d96a99536b5",
    ),
    (
        "verify --suite fgroupoid --group cyclic:2 --objects 4 --cover",
        0,
        "fc53d88471e59e388cd9ea778d4a4b155dc950dfd5886982f6882aac7da580b9",
    ),
    (
        # the fgroupoid configuration of the benchmark's targeted-cover workload
        "verify --suite fgroupoid --group cyclic:2 --objects 5 --cover",
        0,
        "22488eafc7574d98b30591d63e889cb67c6b8c1e353b9a19fccfec5564243ecd",
    ),
    (
        # the section3 configuration of the benchmark's targeted-cover workload
        "verify --suite section3 --group cyclic:2 --objects 5 --cover",
        0,
        "1b4019108974d14c96c72dc37c9e43ab5c98dd3f28e056e6d3ee7ee8e0950d58",
    ),
    (
        # non-abelian F-groups at every pair of the cover (exit 1)
        "verify --suite section3 --group dihedral:4 --objects 3 --cover",
        1,
        "98bd4ac3d2579c0b9db6689f72c40826ba6ebf00899921e49f64a3a14dd9eb60",
    ),
    (
        # abelian F-groups whose transport pinned set, object_closure(0) and
        # object_tuple(1), has many automorphisms per image of the reference
        # Y-set
        "verify --suite section3 --group cyclic:4 --objects 4 --cover",
        0,
        "582d801bef2669151e1a5670c406fdab68e799834bb2d1ad5ee609c86cefc7a4",
    ),
    (
        # a non-cyclic abelian vertex group
        "verify --suite section3 --group product:cyclic:2,cyclic:2 --objects 3",
        0,
        "7b22d6511d095acc0bb45c2d4a1d2eeba3fb292bec3241b4900aace2766695f0",
    ),
    (
        # non-abelian quaternion F-groups on the cover (exit 1)
        "verify --suite section3 --group quaternion8 --objects 3 --cover",
        1,
        "1a55bfca8074409ee05c3ed66f647af4dbddb90a520a449c107abee12db3b94e",
    ),
    (
        "verify --suite section2 --group symmetric:3 --objects 3",
        0,
        "436d91112bb6c63eeebf38c54e3f15ab8b99cb01eef9e5629f7642e16279ab6d",
    ),
    (
        # claims fail on a non-abelian vertex group (exit 1), and the
        # suites share the structure's state across those failures
        "verify --suite all --group symmetric:3 --objects 3",
        1,
        "1b37456546ffa02d8dad31c42dfab4e04b304f7edb8202de160382c34bc0a725",
    ),
    (
        # the suite-all configuration of the benchmark: Aut(Z/3) = Z/2, so
        # the binding classes cut the transport coset, and every composition
        # table is built through those transports
        "verify --suite all --group cyclic:3 --objects 4",
        0,
        "6238783e0e36e3f2909f0df3d1da4ca4740913b74992d6044e762f68a2a0b842",
    ),
    (
        # Aut(Z/2 x Z/2) = S3: the binding classes cut the transport coset
        # further still
        "verify --suite all --group product:cyclic:2,cyclic:2 --objects 4",
        0,
        "fb74749c67f9831a9994cdc88996d85b8373f070af3c108cefc18dd5bcf98938",
    ),
    (
        # the largest section3 input the cyclic groups give: 3,072
        # automorphisms fix pair_closure(0, 1)
        "verify --suite section3 --group cyclic:4 --objects 5 --cover",
        0,
        "609e0acd8f7ab5328992f54b2ef84cc738093584872709519ad9892f3a41d90f",
    ),
]

# --suite all on a built cover structure: section2 falls back to the plain
# encoding of the configured group, every other suite runs on the file.
STRUCTURE_DIGEST = "3773fdd7fc73ca2bd69cf375986efc40a86c0ad9b6baa300a3548d886edd4f2e"

# --suite all on the n=4 cover with a constant pinning object 2 (exit 1): no
# automorphism carries (0, 1) to a pair through object 2, so those pairs have
# no translation.  Pins composite-membership's orbits over those pairs' own
# closures, the "no transport automorphism" witnesses of
# transport-independence (target (2, 3)) and of fgroupoid's
# DecompositionFailure, with which all eight fgroupoid claims fail: the
# quotient claims with the quotient's own, the path claims on their own.
PINNED_DIGEST = "b2b87143b04e7dc7aa8d1b449b6586ac61bf48e76b33f4d86d17dffb46ab86fc"

# the plain n=3 structure with a constant pinning one morphism (exit 1), per
# suite.  section3 with morphism 5: the only golden where composite-membership
# fails, so it pins the "no mover" witness.  section2: the constant breaks
# choice-family maps, so a generator fails and the stabiliser's order is read
# off the orbit of the lead, whether or not the cell product over its
# partition equals it (with morphism 5 it does; with morphism 10, 1 -> 2, it
# is larger).  The two section2 reports are alike byte for byte.  witness with morphism 10: the constant pins f12, so
# no automorphism carries f01 to it and type-equivalence fails.
SECTION2_PINNED_WITNESSES = {
    "choice-family-maps": {"family": {"1": 8, "2": 17}, "problem": "not an automorphism"},
    "stabilizer-order": {"expected": 4, "order": 2},
}
MORPHISM_PINNED = [
    ("section3", 5, "5142fe8b5e4311fe3047189a9dc0a64596cce737f096b32add9f5e5ac1ac8bc4", None),
    (
        "section2",
        5,
        "f9912016c06e48909ea01a1144021b5da3a6007a346a2881aa1cc9bda394865e",
        SECTION2_PINNED_WITNESSES,
    ),
    (
        "section2",
        10,
        "f9912016c06e48909ea01a1144021b5da3a6007a346a2881aa1cc9bda394865e",
        SECTION2_PINNED_WITNESSES,
    ),
    (
        "witness",
        10,
        "a9b080331b23c242e6badf55607bbc58893e90473123de15e51b521ddf258a1f",
        {"type-equivalence": "f12 not in the empty-base orbit of f01"},
    ),
]

# section2 on a built symmetric:3 n=3 structure checked against cyclic:2
# (exit 1): every choice-family map is an automorphism of the structure, so
# the cell product certifies the stabiliser order on a failing run.
MISMATCHED_GROUP_DIGEST = "67ced66cc785e171dc110b142ada965c7468de32fa60b85e2d928c5bd8ba7667"
MISMATCHED_GROUP_WITNESSES = {
    "choice-family-maps": {"distinct_maps": 36},
    "stabilizer-order": {"expected": 4, "order": 36},
}

# a single suite below its minimum object count is an input error
TOO_SMALL = [
    ("section3", 2, "error: suite section3 needs --objects >= 3\n"),
    ("witness", 2, "error: suite witness needs --objects >= 3\n"),
    ("fgroupoid", 3, "error: suite fgroupoid needs --objects >= 4\n"),
]


def report_sha256(path) -> str:
    doc = strip_volatile(json.loads(path.read_text()))
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[a for a, *_ in GOLDEN])
def test_report_bytes_unchanged(argv, code, digest, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--out", str(out)]) == code
    capsys.readouterr()
    assert report_sha256(out) == digest


def test_structure_file_report_bytes_unchanged(tmp_path, capsys):
    built, out = tmp_path / "s.json", tmp_path / "report.json"
    build = ["build", "--group", "cyclic:2", "--objects", "3", "--cover"]
    assert main([*build, "--out", str(built)]) == 0
    verify = ["verify", "--suite", "all", "--group", "cyclic:2"]
    assert main([*verify, "--structure", str(built), "--out", str(out)]) == 0
    capsys.readouterr()
    assert report_sha256(out) == STRUCTURE_DIGEST


def test_constant_pinned_structure_report_bytes_unchanged(tmp_path, capsys):
    built, out = tmp_path / "s.json", tmp_path / "report.json"
    build = ["build", "--group", "cyclic:2", "--objects", "4", "--cover"]
    assert main([*build, "--out", str(built)]) == 0
    data = json.loads(built.read_text())
    data["constants"] = [{"name": "mark", "sort": "O", "index": 2}]
    built.write_text(json.dumps(data))
    verify = ["verify", "--suite", "all", "--group", "cyclic:2"]
    assert main([*verify, "--structure", str(built), "--out", str(out)]) == 1
    capsys.readouterr()
    assert report_sha256(out) == PINNED_DIGEST


def _witnesses(path, names) -> dict:
    """The witnesses of the named claims, each named without its suite."""
    claims = json.loads(path.read_text())["claims"]
    found = {c["id"].split(".", 1)[1]: c.get("witness") for c in claims}
    return {name: found[name] for name in names}


@pytest.mark.parametrize(
    "suite,morphism,digest,witnesses",
    MORPHISM_PINNED,
    ids=[f"{suite}-M{m}" for suite, m, *_ in MORPHISM_PINNED],
)
def test_morphism_pinned_structure_report_bytes_unchanged(
    suite, morphism, digest, witnesses, tmp_path, capsys
):
    built, out = tmp_path / "s.json", tmp_path / "report.json"
    build = ["build", "--group", "cyclic:2", "--objects", "3"]
    assert main([*build, "--out", str(built)]) == 0
    data = json.loads(built.read_text())
    data["constants"] = [{"name": "mark", "sort": "M", "index": morphism}]
    built.write_text(json.dumps(data))
    verify = ["verify", "--suite", suite, "--group", "cyclic:2"]
    assert main([*verify, "--structure", str(built), "--out", str(out)]) == 1
    capsys.readouterr()
    assert report_sha256(out) == digest
    if witnesses is not None:
        assert _witnesses(out, witnesses) == witnesses


def test_mismatched_group_structure_report_bytes_unchanged(tmp_path, capsys):
    built, out = tmp_path / "s.json", tmp_path / "report.json"
    build = ["build", "--group", "symmetric:3", "--objects", "3"]
    assert main([*build, "--out", str(built)]) == 0
    verify = ["verify", "--suite", "section2", "--group", "cyclic:2"]
    assert main([*verify, "--structure", str(built), "--out", str(out)]) == 1
    capsys.readouterr()
    assert report_sha256(out) == MISMATCHED_GROUP_DIGEST
    assert _witnesses(out, MISMATCHED_GROUP_WITNESSES) == MISMATCHED_GROUP_WITNESSES


@pytest.mark.parametrize("suite,objects,message", TOO_SMALL)
def test_single_suite_below_minimum_objects(suite, objects, message, capsys):
    argv = ["verify", "--suite", suite, "--group", "cyclic:2", "--objects", str(objects)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
