"""Golden report bytes: refactors of the engine, the groupoid view or the
suite registry must not change a single byte of a report.

Each configuration is run through the CLI in-process and its report is
hashed after ``strip_volatile`` exactly as ``dumps_canonical`` renders it.
Together the configurations cover all five suites on both encodings, the
``skipped`` entries of ``--suite all``, a structure file carrying the double
cover, and a non-abelian vertex group.  A changed hash means a changed
report: find out why before re-recording anything.
"""

import hashlib
import json

import pytest

from groupoidlab.cli import main
from groupoidlab.report import dumps_canonical, strip_volatile

GOLDEN = [
    (
        "verify --suite all --group cyclic:2 --objects 4",
        "863b0fe00b0d67dc85a224a5f6b003accbb8a6713e37411b6aaaf1deaeb0cb1d",
    ),
    (
        "verify --suite all --group cyclic:2 --objects 3 --cover",
        "3773fdd7fc73ca2bd69cf375986efc40a86c0ad9b6baa300a3548d886edd4f2e",
    ),
    (
        "verify --suite all --group cyclic:2 --objects 2 --cover",
        "f17f6acf4fc5215656142b17096dfaf9ed9273c71eb4aceaa0cf0d96a99536b5",
    ),
    (
        "verify --suite fgroupoid --group cyclic:2 --objects 4 --cover",
        "fc53d88471e59e388cd9ea778d4a4b155dc950dfd5886982f6882aac7da580b9",
    ),
    (
        "verify --suite section2 --group symmetric:3 --objects 3",
        "436d91112bb6c63eeebf38c54e3f15ab8b99cb01eef9e5629f7642e16279ab6d",
    ),
]

# --suite all on a built cover structure: section2 falls back to the plain
# encoding of the configured group, every other suite runs on the file.
STRUCTURE_DIGEST = "3773fdd7fc73ca2bd69cf375986efc40a86c0ad9b6baa300a3548d886edd4f2e"

# a single suite below its minimum object count is an input error
TOO_SMALL = [
    ("section3", 2, "error: suite section3 needs --objects >= 3\n"),
    ("witness", 2, "error: suite witness needs --objects >= 3\n"),
    ("fgroupoid", 3, "error: suite fgroupoid needs --objects >= 4\n"),
]


def report_sha256(path) -> str:
    doc = strip_volatile(json.loads(path.read_text()))
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[a for a, _ in GOLDEN])
def test_report_bytes_unchanged(argv, digest, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([*argv.split(), "--out", str(out)]) == 0
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


@pytest.mark.parametrize("suite,objects,message", TOO_SMALL)
def test_single_suite_below_minimum_objects(suite, objects, message, capsys):
    argv = ["verify", "--suite", suite, "--group", "cyclic:2", "--objects", str(objects)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
