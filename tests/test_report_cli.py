import json
import subprocess
import sys

import pytest

from conftest import subprocess_env
from groupoidlab import Report, ReportMergeError, merge_reports, strip_volatile
from groupoidlab.cli import main
from groupoidlab.report import dumps_canonical
from groupoidlab.verify import SUITES


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )


def test_report_statuses_and_failures():
    rep = Report(instance="demo")
    rep.add("good", "always fine", lambda: None)
    rep.add("soft", "surrogate check", lambda: None, surrogate_status=True)
    rep.add("bad", "always broken", lambda: {"reason": 1})
    assert [e.status for e in rep.entries] == ["pass", "surrogate-pass", "fail"]
    assert not rep.passed
    assert [e.claim_id for e in rep.failures()] == ["bad"]
    text = rep.render_text()
    assert "FAIL" in text and "pass*" in text


def test_report_catches_check_exceptions():
    rep = Report(instance="demo")
    rep.add("boom", "raises", lambda: 1 / 0)
    assert rep.entries[0].status == "fail"
    assert "ZeroDivisionError" in rep.entries[0].witness


def test_strip_volatile():
    rep = Report(instance="demo")
    rep.add("good", "fine", lambda: None)
    doc = rep.to_json()
    stripped = strip_volatile(doc)
    assert "generated_at" not in stripped
    assert all("wall_ms" not in c for c in stripped["claims"])


def test_merge_reports_matrix_and_conflict():
    doc1 = {"instance": "a", "claims": [{"id": "x", "status": "pass"}]}
    doc2 = {"instance": "b", "claims": [{"id": "x", "status": "fail"}]}
    merged = merge_reports([doc1, doc2])
    assert merged["instances"]["a"] == ["pass"]
    assert merged["instances"]["b"] == ["fail"]
    dup = {"instance": "a", "claims": [{"id": "x", "status": "fail"}]}
    with pytest.raises(ReportMergeError):
        merge_reports([doc1, dup])


def test_build_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "--group", "cyclic:2", "--objects", "3", "--out", str(p1)]) == 0
    assert main(["build", "--group", "cyclic:2", "--objects", "3", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_cover_adds_fiber_sort(tmp_path):
    out = tmp_path / "c.json"
    assert main(["build", "--group", "symmetric:3", "--objects", "2", "--cover", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert dict(map(tuple, data["sorts"]))["I"] == 4


def test_build_rejects_small_object_count():
    assert main(["build", "--group", "cyclic:2", "--objects", "1"]) == 2


def test_build_rejects_unknown_group():
    assert main(["build", "--group", "sporadic:1", "--objects", "3"]) == 2


@pytest.mark.parametrize(
    "spec,message",
    [
        ("cyclic:0", "cyclic order 0 outside 1..64"),
        ("cyclic:65", "cyclic order 65 outside 1..64"),
        ("symmetric:0", "symmetric degree 0 outside 1..4"),
        ("symmetric:-1", "symmetric degree -1 outside 1..4"),
        ("symmetric:5", "symmetric degree 5 outside 1..4"),
        ("dihedral:0", "dihedral parameter 0 outside 1..32"),
        ("dihedral:-2", "dihedral parameter -2 outside 1..32"),
        ("dihedral:33", "dihedral parameter 33 outside 1..32"),
    ],
)
def test_build_names_the_valid_group_parameter_range(spec, message, capsys):
    # a parameter below the range is refused for what it is, not as an
    # order above the limit
    assert main(["build", "--group", spec, "--objects", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_verify_witness_suite_exit_zero(capsys):
    rc = main([
        "verify", "--suite", "witness", "--group", "cyclic:2",
        "--objects", "3", "--cover", "--format", "text",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "composition-uniqueness" in out


def test_verify_corrupted_structure_exits_one(tmp_path):
    built = tmp_path / "s.json"
    assert main(["build", "--group", "cyclic:2", "--objects", "4", "--out", str(built)]) == 0
    data = json.loads(built.read_text())
    for rel in data["relations"]:
        if rel["name"] == "comp":
            f, g, h = rel["tuples"][0]
            rel["tuples"][0] = [f, g, (h + 1) % 32]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    rc = main([
        "verify", "--suite", "section3", "--group", "cyclic:2",
        "--structure", str(bad), "--out", str(tmp_path / "rep.json"),
    ])
    assert rc == 1
    doc = json.loads((tmp_path / "rep.json").read_text())
    statuses = {c["id"]: c for c in doc["claims"]}
    failed = [c for c in doc["claims"] if c["status"] == "fail"]
    assert failed and failed[0].get("witness")


@pytest.mark.parametrize(
    "name,cover,change,expected",
    [
        ("init", False, lambda t: t.update(args=["O"], rows=[[o, o] for o in range(3)]),
         "'init' must be M -> O, not O -> O"),
        ("ter", False, lambda t: t.update(args=["O"], rows=[[o, o] for o in range(3)]),
         "'ter' must be M -> O, not O -> O"),
        ("inverse", False, lambda t: t.update(result="O", rows=[[m, 0] for m, _ in t["rows"]]),
         "'inverse' must be M -> M, not M -> O"),
        ("comp", False, lambda t: t.update(args=["M", "M"], tuples=[x[:2] for x in t["tuples"]]),
         "'comp' must be M x M x M, not M x M"),
        ("proj", True, lambda t: t.update(result="I"), "'proj' must be I -> O, not I -> I"),
    ],
    ids=["init", "ter", "inverse", "comp", "proj"],
)
def test_verify_structure_with_a_wrong_signature_exits_two(
    name, cover, change, expected, tmp_path, capsys
):
    # each file passes validate_structure, so only the groupoid view can
    # reject it, before it reads a symbol of the wrong shape
    built, bad = tmp_path / "s.json", tmp_path / "bad.json"
    argv = ["build", "--group", "cyclic:2", "--objects", "3", "--out", str(built)]
    assert main(argv + ["--cover"] * cover) == 0
    data = json.loads(built.read_text())
    for table in (*data["functions"], *data["relations"]):
        if table["name"] == name:
            change(table)
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main([
        "verify", "--suite", "all", "--group", "cyclic:2",
        "--structure", str(bad), "--out", str(tmp_path / "rep.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize(
    "build_cover,verify_cover,instance",
    [(True, False, "group=cyclic:2 objects=2 cover"), (False, True, "group=cyclic:2 objects=2")],
    ids=["cover-file", "plain-file"],
)
def test_verify_structure_file_labelled_from_the_structure(
    build_cover, verify_cover, instance, tmp_path, capsys
):
    # the instance label follows the structure file, not the --cover flag
    built, out = tmp_path / "s.json", tmp_path / "rep.json"
    build = ["build", "--group", "cyclic:2", "--objects", "2", "--out", str(built)]
    assert main(build + ["--cover"] * build_cover) == 0
    verify = ["verify", "--suite", "all", "--group", "cyclic:2", "--structure", str(built)]
    assert main(verify + ["--cover"] * verify_cover + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["instance"] == instance


@pytest.mark.parametrize(
    "group,coset_group,morphism_group,morphism_center",
    [
        ("cyclic:3", {"center_order": 3, "restricted_order": 2},
         {"group_order": 3, "restricted_order": 2}, {"center_order": 2, "expected": 3}),
        ("symmetric:3", {"center_order": 1, "restricted_order": 2},
         {"group_order": 6, "restricted_order": 2}, {"center_order": 2, "expected": 1}),
        ("trivial", {"center_order": 1, "restricted_order": 2},
         {"group_order": 1, "restricted_order": 2}, {"center_order": 2, "expected": 1}),
    ],
)
def test_group_order_mismatch_fails_with_the_claims_witnesses(
    group, coset_group, morphism_group, morphism_center, tmp_path, capsys
):
    # a --group whose order differs from the structure's vertex group: the
    # isomorphism claims fail with their own witnesses, not OrderMismatch
    built, out = tmp_path / "s.json", tmp_path / "rep.json"
    assert main(["build", "--group", "cyclic:2", "--objects", "3", "--out", str(built)]) == 0
    verify = ["verify", "--suite", "section2", "--group", group, "--structure", str(built)]
    assert main(verify + ["--out", str(out)]) == 1
    capsys.readouterr()
    witness = {c["id"]: c.get("witness") for c in json.loads(out.read_text())["claims"]}
    assert witness["section2.coset-group-is-center"] == coset_group
    assert witness["section2.morphism-group-is-g"] == morphism_group
    assert witness["section2.morphism-group-center"] == morphism_center


def test_verify_budget_exit_three():
    rc = main(["verify", "--suite", "section3", "--group", "cyclic:8",
               "--objects", "6", "--cover"])
    assert rc == 3


def _spied_suites(monkeypatch) -> list:
    """Replace every SUITES runner with one that records the suite's name
    and the carrier size of the structure it runs on."""
    ran = []
    for name, (runner, min_objects) in list(SUITES.items()):
        def spy(s, g, name=name, runner=runner):
            ran.append((name, s.carrier_size))
            return runner(s, g)

        monkeypatch.setitem(SUITES, name, (spy, min_objects))
    return ran


def test_verify_all_checks_every_budget_before_any_suite(monkeypatch, capsys):
    # the n=6 cover of Z/8 has carrier 306, over the budget of 300, and
    # section2's plain encoding has 294: no suite runs before the exit
    ran = _spied_suites(monkeypatch)
    rc = main(["verify", "--suite", "all", "--group", "cyclic:8", "--objects", "6", "--cover"])
    assert rc == 3
    assert ran == []
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_section2_on_a_cover_over_budget_runs_on_the_plain_encoding(
    monkeypatch, capsys
):
    ran = _spied_suites(monkeypatch)
    rc = main(["verify", "--suite", "section2", "--group", "cyclic:8", "--objects", "6", "--cover"])
    assert rc == 0
    assert ran == [("section2", 294)]
    capsys.readouterr()


def test_report_merging_cli(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    rc = main(["verify", "--suite", "witness", "--group", "cyclic:2",
               "--objects", "3", "--out", str(r1)])
    assert rc == 0
    doc = json.loads(r1.read_text())
    doc["instance"] = "renamed"
    r2.write_text(dumps_canonical(doc))
    assert main(["report", str(r1), str(r2), "--format", "text"]) == 0
    # conflicting duplicate claim ids for one instance
    conflict = json.loads(r1.read_text())
    conflict["claims"][0]["status"] = "fail"
    r3 = tmp_path / "r3.json"
    r3.write_text(dumps_canonical(conflict))
    assert main(["report", str(r1), str(r3)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"sorts": [["O", 2], ["M", 8]], "functions": [], "relations": []},
        [{"instance": "a", "claims": []}],
        {"instance": "a", "claims": [{"id": "x"}]},
    ],
    ids=["structure-file", "json-array", "claim-without-status"],
)
def test_report_rejects_malformed_input(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ReportMergeError):
        merge_reports([doc])


def _built_structure():
    # the built cyclic:2, 2-object plain structure, as JSON
    from groupoidlab import build_standard_groupoid, cyclic_group, encode_groupoid
    from groupoidlab.structures import structure_to_json

    return structure_to_json(encode_groupoid(build_standard_groupoid(cyclic_group(2), 2)))


def _structure_with(name, position, value):
    # the built structure whose function or relation `name` holds `value`
    # at `position` of its first row or tuple
    data = _built_structure()
    for table in (*data["functions"], *data["relations"]):
        if table["name"] == name:
            table.get("rows", table.get("tuples"))[0][position] = value
    return data


def _structure_with_true(name):
    # the built structure whose function `name` holds JSON true for its first 1
    data = _built_structure()
    rows = next(f["rows"] for f in data["functions"] if f["name"] == name)
    row = next(r for r in rows if 1 in r)
    row[row.index(1)] = True
    return data


def _structure_with_args(name, args):
    # the built structure whose function or relation `name` has these args
    data = _built_structure()
    for table in (*data["functions"], *data["relations"]):
        if table["name"] == name:
            table["args"] = args
    return data


def _structure_with_copy(name):
    # the built structure with a second function or relation named `name`
    data = _built_structure()
    for kind in ("functions", "relations"):
        data[kind] += [dict(t) for t in data[kind] if t["name"] == name]
    return data


def _with_constant_index(index):
    data = _built_structure()
    data["constants"] = [{"name": "c", "sort": "O", "index": index}]
    return data


Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "kind,doc",
    [
        ("group", {"identity": 0, "table": [["a"]]}),
        ("group", {"identity": "x", "table": [[0]]}),
        ("group", {"identity": 0, "table": 5}),
        ("structure", _structure_with("init", 1, "a")),
        ("structure", _structure_with("comp", 2, "z")),
        # JSON true and false are not integers, and labels are a list of strings
        ("group", {"identity": False, "table": Z2_TABLE}),
        ("group", {"identity": 0, "table": [[0, True], [True, 0]]}),
        ("group", {"order": True, "identity": 0, "table": [[0]]}),
        ("group", {"identity": 0, "table": Z2_TABLE, "labels": 5}),
        ("group", {"identity": 0, "table": Z2_TABLE, "labels": ["a", 7]}),
        ("structure", _structure_with_true("ter")),
        ("structure", _with_constant_index(True)),
        # args are a list of sort names, and names are unique per kind
        ("structure", _structure_with_args("init", "M")),
        ("structure", _structure_with_args("comp", "MMM")),
        ("structure", _structure_with_args("init", [["M"]])),
        ("structure", _structure_with_copy("init")),
        ("structure", _structure_with_copy("comp")),
    ],
    ids=[
        "table-entry", "identity", "table-not-a-list", "init-row", "comp-tuple",
        "false-identity", "true-table-entry", "true-order", "labels-not-a-list",
        "label-not-a-string", "true-ter-row", "true-constant-index",
        "init-args-string", "comp-args-string", "init-args-nested",
        "duplicate-function", "duplicate-relation",
    ],
)
def test_malformed_json_input_exits_two(kind, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "group":
        argv = ["build", "--group", f"file:{path}", "--objects", "2"]
    else:
        # section2 runs on the two-object structure, so only the input can fail
        argv = ["verify", "--suite", "section2", "--group", "cyclic:2", "--structure", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "kind,doc,expected",
    [
        ("group", [1, 2], "group JSON must be an object with table and identity fields"),
        ("group", None, "group JSON must be an object with table and identity fields"),
        ("group", "x", "group JSON must be an object with table and identity fields"),
        ("structure", {"sorts": 5},
         "structure JSON sorts must be an object or a list of [name, size] pairs"),
    ],
    ids=["group-array", "group-null", "group-string", "sorts-number"],
)
def test_json_of_the_wrong_shape_says_which_shape_it_expected(
    kind, doc, expected, tmp_path, capsys
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "group":
        argv = ["build", "--group", f"file:{path}", "--objects", "2"]
    else:
        argv = ["verify", "--suite", "section2", "--group", "cyclic:2", "--structure", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n" and captured.out == ""


def test_verify_unknown_suite_exits_two_naming_every_suite(capsys):
    assert main(["verify", "--suite", "bogus", "--group", "cyclic:2", "--objects", "3"]) == 2
    captured = capsys.readouterr()
    assert "bogus" in captured.err and captured.out == ""
    for name in (*SUITES, "all"):
        assert name in captured.err, name


def _with_sort_size(size):
    data = _built_structure()
    data["sorts"][0][1] = size
    return data


@pytest.mark.parametrize(
    "doc",
    [_with_sort_size(2.9), _with_sort_size("2"), _with_constant_index(1.5)],
    ids=["float-sort-size", "string-sort-size", "float-constant-index"],
)
def test_verify_structure_with_non_integer_entries_exits_two(doc, tmp_path, capsys):
    # sizes and constant indices are checked like rows, not truncated by int()
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--suite", "section2", "--group", "cyclic:2", "--structure", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "not a list of integers" in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_verify_disconnected_structure_exits_two(suite, tmp_path, capsys):
    # four objects with only their identities: a valid groupoid in which
    # Mor(0, 1) is empty, which every suite presumes it is not
    from groupoidlab import FiniteGroupoid, encode_groupoid, validate_groupoid
    from groupoidlab.structures import structure_to_json

    ids = (0, 1, 2, 3)
    gpd = validate_groupoid(FiniteGroupoid(
        n_objects=4, init=ids, ter=ids, inverse=ids, identities=ids,
        composition=tuple((m, m, m) for m in ids),
    ))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(structure_to_json(encode_groupoid(gpd))))
    argv = ["verify", "--suite", suite, "--group", "cyclic:2", "--structure", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Mor(0, 1) is empty: the suites need a connected groupoid\n"
    assert captured.out == ""


def test_console_script_runs():
    out = run_cli("build", "--group", "cyclic:2", "--objects", "2")
    assert out.returncode == 0
    assert json.loads(out.stdout)["sorts"] == [["O", 2], ["M", 8]]


def test_suite_all_records_skips_at_small_sizes(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--suite", "all", "--group", "cyclic:2",
               "--objects", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    skipped = {c["id"] for c in doc["claims"] if c["status"] == "skipped"}
    assert {"section3.skipped", "witness.skipped", "fgroupoid.skipped"} <= skipped
