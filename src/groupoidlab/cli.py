"""Command-line entry point: build instances, run verification suites,
merge reports.  Argument parsing and I/O only; the suite registry lives in
``groupoidlab.verify``, which only the ``verify`` command imports, so
``build`` and ``report`` compile no search, Y-set, path or limits code.

Exit codes: 0 all claims pass, 1 claim failure, 2 input error, 3 enumeration
budget exceeded.  JSON output is the contract; text rendering is secondary.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import BudgetExceeded, GroupoidLabError, InvalidInput
from .groups import FiniteGroup, group_from_json, group_from_spec
from .groupoids import build_standard_groupoid
from .report import dumps_canonical, merge_reports, render_matrix
from .structures import (
    MultiSortedStructure,
    encode_double_cover,
    encode_groupoid,
    has_cover,
    structure_from_json,
    structure_to_json,
)

MIN_OBJECTS, MAX_OBJECTS = 2, 6
MAX_SUITE_GROUP_ORDER = 8


@dataclass(frozen=True)
class RunConfig:
    group: FiniteGroup
    group_spec: str
    objects: int
    cover: bool
    suite: str = "all"

    def __post_init__(self) -> None:
        if not MIN_OBJECTS <= self.objects <= MAX_OBJECTS:
            raise InvalidInput(
                f"--objects must be in [{MIN_OBJECTS}, {MAX_OBJECTS}], got {self.objects}"
            )
        if self.group.order > MAX_SUITE_GROUP_ORDER:
            raise InvalidInput(
                f"group order {self.group.order} exceeds the suite budget "
                f"{MAX_SUITE_GROUP_ORDER}"
            )

    def describe(self) -> str:
        cover = " cover" if self.cover else ""
        return f"group={self.group_spec} objects={self.objects}{cover}"


def _load_group(spec: str) -> FiniteGroup:
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read group file {path}: {exc}") from exc
        return group_from_json(data)
    return group_from_spec(spec)


def _build_structure(config: RunConfig) -> MultiSortedStructure:
    gpd = build_standard_groupoid(config.group, config.objects)
    return encode_double_cover(gpd) if config.cover else encode_groupoid(gpd)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args: argparse.Namespace) -> int:
    group = _load_group(args.group)
    config = RunConfig(
        group=group, group_spec=args.group, objects=args.objects, cover=args.cover
    )
    s = _build_structure(config)
    text = dumps_canonical(structure_to_json(s))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    structure: Optional[MultiSortedStructure] = None
    group = _load_group(args.group)
    objects, cover = args.objects, args.cover
    if args.structure:
        try:
            data = json.loads(Path(args.structure).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read structure: {exc}") from exc
        structure = structure_from_json(data)
        objects, cover = structure.sort_size("O"), has_cover(structure)
    config = RunConfig(
        group=group,
        group_spec=args.group,
        objects=objects,
        cover=cover,
        suite=args.suite,
    )
    if structure is None:
        structure = _build_structure(config)
    report = run_suites(structure, config.group, config.suite, config.describe())
    doc = report.to_json()
    rendered = (
        dumps_canonical(doc) if args.format == "json" else report.render_text() + "\n"
    )
    if args.out:
        Path(args.out).write_text(rendered)
        if args.format == "json":
            sys.stdout.write(report.render_text() + "\n")
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    docs = []
    for path in args.reports:
        try:
            docs.append(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read report {path}: {exc}") from exc
    merged = merge_reports(docs)
    if args.format == "json":
        sys.stdout.write(dumps_canonical(merged))
    else:
        sys.stdout.write(render_matrix(merged) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoidlab",
        description="Exact finite-groupoid laboratory: build instances and "
        "verify their automorphism-group claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="encode a standard groupoid instance")
    p_build.add_argument("--group", required=True, help="cyclic:N | symmetric:N | dihedral:N | quaternion8 | trivial | product:A,B | file:PATH")
    p_build.add_argument("--objects", type=int, required=True)
    p_build.add_argument("--cover", action="store_true", help="add the two-point fiber sort")
    p_build.add_argument("--out", help="output path (stdout otherwise)")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="run verification suites")
    # no choices: reading SUITES here would import verify for every command;
    # run_suites refuses an unknown name and lists the suites
    p_verify.add_argument("--suite", default="all", help="a suite name, or all")
    p_verify.add_argument("--group", required=True)
    p_verify.add_argument("--objects", type=int, default=4)
    p_verify.add_argument("--cover", action="store_true")
    p_verify.add_argument("--structure", help="verify a previously built structure file")
    p_verify.add_argument("--out", help="write the report here")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="merge reports into a claim matrix")
    p_report.add_argument("reports", nargs="+")
    p_report.add_argument("--format", choices=("json", "text"), default="text")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GroupoidLabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
