import json
import subprocess
import sys

import pytest

from conftest import subprocess_env
from groupoidlab import ClaimFailure, Report, ReportMergeError, merge_reports, strip_volatile
from groupoidlab.cli import main
from groupoidlab.report import dumps_canonical


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
    with pytest.raises(ClaimFailure):
        rep.raise_if_failed()
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


def test_verify_budget_exit_three():
    rc = main(["verify", "--suite", "section3", "--group", "cyclic:8",
               "--objects", "6", "--cover"])
    assert rc == 3


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
