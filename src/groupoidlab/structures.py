"""Finite multi-sorted first-order structures and the groupoid encodings.

A structure has named finite carriers, total functions between carriers,
relations as tuple sets and named constants.  Groupoids are encoded with
sorts O, M, unary functions init/ter/inverse and a ternary composition
relation; the double cover adds a fiber sort I with a two-to-one projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import AxiomViolation, InvalidInput
from .groupoids import FiniteGroupoid, validate_groupoid

if TYPE_CHECKING:
    from .automorphisms import _SearchSpace
    from .witness import YSystem


class Element(NamedTuple):
    sort: str
    index: int


@dataclass(frozen=True)
class Function:
    """A total function between sort products, stored as sorted rows (*args, value)."""

    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str
    rows: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class Relation:
    name: str
    arg_sorts: tuple[str, ...]
    tuples: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class Constant:
    name: str
    sort: str
    index: int


@dataclass(frozen=True)
class MultiSortedStructure:
    sorts: tuple[tuple[str, int], ...]
    functions: tuple[Function, ...]
    relations: tuple[Relation, ...]
    constants: tuple[Constant, ...] = ()

    def sort_size(self, name: str) -> int:
        for n, size in self.sorts:
            if n == name:
                return size
        raise InvalidInput(f"unknown sort {name!r}")

    @property
    def carrier_size(self) -> int:
        return sum(size for _, size in self.sorts)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise InvalidInput(f"unknown function {name!r}")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise InvalidInput(f"unknown relation {name!r}")

    # State derived from the structure is built on first use and lives in
    # the instance dict: it stays out of eq, hash and repr, and is freed
    # with the structure.

    @cached_property
    def search_space(self) -> "_SearchSpace":
        """The automorphism engine's flattened structure and group cache."""
        from .automorphisms import _SearchSpace

        return _SearchSpace(self)

    @cached_property
    def groupoid_view(self) -> "GroupoidView":
        return GroupoidView(self)

    @cached_property
    def y_system(self) -> "YSystem":
        """Y-sets, their restriction groups and transports, shared by every
        suite that runs on the structure."""
        from .witness import YSystem

        return YSystem(self)


def validate_structure(s: MultiSortedStructure) -> MultiSortedStructure:
    sizes = dict(s.sorts)
    if len(sizes) != len(s.sorts):
        raise InvalidInput("duplicate sort name")
    for kind, tables in (("function", s.functions), ("relation", s.relations)):
        if len({t.name for t in tables}) != len(tables):
            raise InvalidInput(f"duplicate {kind} name")
    for name, size in s.sorts:
        if size < 0:
            raise InvalidInput(f"sort {name!r} has negative size")
    for f in s.functions:
        for sn in (*f.arg_sorts, f.result_sort):
            if sn not in sizes:
                raise InvalidInput(f"function {f.name!r} uses unknown sort {sn!r}")
        expected = 1
        for sn in f.arg_sorts:
            expected *= sizes[sn]
        if len(f.rows) != expected or len(set(r[:-1] for r in f.rows)) != expected:
            raise InvalidInput(f"function {f.name!r} is not total")
        for row in f.rows:
            if len(row) != f.arity + 1:
                raise InvalidInput(f"function {f.name!r} has a malformed row")
            for v, sn in zip(row, (*f.arg_sorts, f.result_sort)):
                if not 0 <= v < sizes[sn]:
                    raise InvalidInput(f"function {f.name!r} row out of range: {row}")
    for r in s.relations:
        for sn in r.arg_sorts:
            if sn not in sizes:
                raise InvalidInput(f"relation {r.name!r} uses unknown sort {sn!r}")
        for t in r.tuples:
            if len(t) != r.arity:
                raise InvalidInput(f"relation {r.name!r} has a malformed tuple")
            for v, sn in zip(t, r.arg_sorts):
                if not 0 <= v < sizes[sn]:
                    raise InvalidInput(f"relation {r.name!r} tuple out of range: {t}")
    for c in s.constants:
        if c.sort not in sizes or not 0 <= c.index < sizes[c.sort]:
            raise InvalidInput(f"constant {c.name!r} out of range")
    return s


def _unary(name: str, src: str, dst: str, values: Iterable[int]) -> Function:
    rows = tuple((i, v) for i, v in enumerate(values))
    return Function(name=name, arg_sorts=(src,), result_sort=dst, rows=rows)


def encode_groupoid(gpd: FiniteGroupoid) -> MultiSortedStructure:
    """Sorts O, M; unary init/ter/inverse; ternary comp(f, g, f-then-g)."""
    comp = Relation(
        name="comp",
        arg_sorts=("M", "M", "M"),
        tuples=tuple(sorted(gpd.composition)),
    )
    s = MultiSortedStructure(
        sorts=(("O", gpd.n_objects), ("M", gpd.n_morphisms)),
        functions=(
            _unary("init", "M", "O", gpd.init),
            _unary("ter", "M", "O", gpd.ter),
            _unary("inverse", "M", "M", gpd.inverse),
        ),
        relations=(comp,),
    )
    return validate_structure(s)


def encode_double_cover(gpd: FiniteGroupoid) -> MultiSortedStructure:
    """The plain encoding plus a fiber sort I with two points over each object.

    Point 2a and 2a+1 of I project to object a; the mate relation pairs the
    two points of each fiber.
    """
    base = encode_groupoid(gpd)
    n = gpd.n_objects
    proj = _unary("proj", "I", "O", (i // 2 for i in range(2 * n)))
    mate = Relation(
        name="mate",
        arg_sorts=("I", "I"),
        tuples=tuple(
            t for a in range(n) for t in ((2 * a, 2 * a + 1), (2 * a + 1, 2 * a))
        ),
    )
    s = MultiSortedStructure(
        sorts=base.sorts + (("I", 2 * n),),
        functions=base.functions + (proj,),
        relations=base.relations + (mate,),
    )
    return validate_structure(s)


# the signature of each symbol the view and ``_decode`` read; proj and mate
# are read on the double cover only
_SIGNATURES = {
    "init": "M -> O", "ter": "M -> O", "inverse": "M -> M", "comp": "M x M x M",
    "proj": "I -> O", "mate": "I x I",
}
_COVER_SYMBOLS = ("proj", "mate")


def _signature(symbol: Function | Relation) -> str:
    result = getattr(symbol, "result_sort", None)
    return " x ".join(symbol.arg_sorts) + ("" if result is None else f" -> {result}")


class GroupoidView:
    """The groupoid inside an encoded structure, indexed once: the init and
    ter arrays, Mor(a, b) in increasing order, whether the structure is the
    double cover and, on the cover, the fiber over each object.  Indexing
    checks the signature of every symbol it or ``groupoid`` reads and, on
    the cover, the fibers; the groupoid axioms are checked by ``groupoid``."""

    def __init__(self, s: MultiSortedStructure):
        self.structure = s
        self.cover = has_cover(s)
        for name, expected in _SIGNATURES.items():
            if name not in _COVER_SYMBOLS or self.cover:
                symbol = s.function(name) if "->" in expected else s.relation(name)
                if _signature(symbol) != expected:
                    raise InvalidInput(f"{name!r} must be {expected}, not {_signature(symbol)}")
        n_mor = s.sort_size("M")
        init = {row[0]: row[1] for row in s.function("init").rows}
        ter = {row[0]: row[1] for row in s.function("ter").rows}
        self.init = tuple(init[m] for m in range(n_mor))
        self.ter = tuple(ter[m] for m in range(n_mor))
        mor: dict[tuple[int, int], list[int]] = {}
        for m, ends in enumerate(zip(self.init, self.ter)):
            mor.setdefault(ends, []).append(m)
        self.mor = {ends: tuple(ms) for ends, ms in mor.items()}
        self.fibers = _fibers(s) if self.cover else {}

    @cached_property
    def groupoid(self) -> FiniteGroupoid:
        """The decoded groupoid, validated on first use.  A failed
        validation caches nothing: it raises again on every use."""
        return _decode(self)


def _fibers(s: MultiSortedStructure) -> dict[int, tuple[int, ...]]:
    """The two points over each object of a double cover, in increasing
    order.  proj must be two-to-one onto the objects, and mate must hold
    exactly the two ordered pairs of each fiber."""
    fibers: dict[int, list[int]] = {a: [] for a in range(s.sort_size("O"))}
    for i, a in sorted(s.function("proj").rows):
        fibers[a].append(i)
    for a, points in fibers.items():
        if len(points) != 2:
            raise InvalidInput(
                f"'proj' must be two-to-one onto the objects: {len(points)} points over object {a}"
            )
    pairs = {t for i, j in fibers.values() for t in ((i, j), (j, i))}
    if set(s.relation("mate").tuples) != pairs:
        raise InvalidInput("'mate' must hold exactly the two ordered pairs of each fiber")
    return {a: tuple(points) for a, points in fibers.items()}


def decode_groupoid(s: MultiSortedStructure) -> FiniteGroupoid:
    """Rebuild the groupoid from an encoded structure (round-trip inverse)."""
    return s.groupoid_view.groupoid


def _decode(view: GroupoidView) -> FiniteGroupoid:
    s = view.structure
    n_obj = s.sort_size("O")
    n_mor = s.sort_size("M")
    init, ter = view.init, view.ter
    inverse = tuple(v for _, v in sorted(s.function("inverse").rows))
    composition = tuple(sorted(s.relation("comp").tuples))
    seen = set()
    for f, g, _ in composition:
        if (f, g) in seen:
            raise AxiomViolation("composability", ("comp not functional", f, g))
        seen.add((f, g))
    identities = []
    comp = {(f, g): h for f, g, h in composition}
    for a in range(n_obj):
        cands = [
            e for e in range(n_mor)
            if init[e] == a and ter[e] == a and comp.get((e, e)) == e
            and all(
                comp.get((e, m)) == m
                for m in range(n_mor) if init[m] == a
            )
        ]
        if len(cands) != 1:
            raise AxiomViolation("identity", ("no unique identity at object", a))
        identities.append(cands[0])
    gpd = FiniteGroupoid(
        n_objects=n_obj,
        init=init,
        ter=ter,
        inverse=inverse,
        identities=tuple(identities),
        composition=composition,
    )
    return validate_groupoid(gpd)


# ---------------------------------------------------------------------------
# navigation helpers on encoded structures

def has_cover(s: MultiSortedStructure) -> bool:
    return any(name == "I" for name, _ in s.sorts)


def objects_of(s: MultiSortedStructure) -> range:
    return range(s.sort_size("O"))


def morphisms_between(s: MultiSortedStructure, a: int, b: int) -> tuple[int, ...]:
    return s.groupoid_view.mor.get((a, b), ())


def vertex_morphisms(s: MultiSortedStructure, a: int) -> tuple[int, ...]:
    return morphisms_between(s, a, a)


def fiber_points(s: MultiSortedStructure, a: int) -> tuple[int, ...]:
    return s.groupoid_view.fibers.get(a, ())


def object_tuple(s: MultiSortedStructure, a: int) -> tuple[Element, ...]:
    """The tuple standing for an object: its fiber points (if any), then itself."""
    parts: list[Element] = []
    if s.groupoid_view.cover:
        parts.extend(Element("I", i) for i in fiber_points(s, a))
    parts.append(Element("O", a))
    return tuple(parts)


def morphism_tuple(s: MultiSortedStructure, m: int) -> tuple[Element, ...]:
    """A morphism with both endpoint tuples embedded, e.g. (c0,c1,c,d0,d1,d,m)."""
    view = s.groupoid_view
    return object_tuple(s, view.init[m]) + object_tuple(s, view.ter[m]) + (Element("M", m),)


def object_closure(s: MultiSortedStructure, a: int) -> tuple[Element, ...]:
    """Finite stand-in for the closure of one object: the object, its fiber
    points and its whole vertex group."""
    return object_tuple(s, a) + tuple(Element("M", m) for m in vertex_morphisms(s, a))


def pair_base(s: MultiSortedStructure, a: int, b: int) -> tuple[Element, ...]:
    return object_closure(s, a) + object_closure(s, b)


def pair_closure(s: MultiSortedStructure, a: int, b: int) -> tuple[Element, ...]:
    """pair_base plus Mor(a, b): the closure stand-in for the object pair."""
    return pair_base(s, a, b) + tuple(
        Element("M", m) for m in morphisms_between(s, a, b)
    )


# ---------------------------------------------------------------------------
# JSON schema

def structure_to_json(s: MultiSortedStructure) -> dict:
    return {
        "sorts": [[name, size] for name, size in s.sorts],
        "functions": [
            {
                "name": f.name,
                "args": list(f.arg_sorts),
                "result": f.result_sort,
                "rows": [list(r) for r in f.rows],
            }
            for f in s.functions
        ],
        "relations": [
            {
                "name": r.name,
                "args": list(r.arg_sorts),
                "tuples": [list(t) for t in r.tuples],
            }
            for r in s.relations
        ],
        "constants": [
            {"name": c.name, "sort": c.sort, "index": c.index} for c in s.constants
        ],
    }


def _int_tuple(values: Iterable) -> tuple[int, ...]:
    t = tuple(values)
    if not all(type(v) is int for v in t):  # JSON's true and false are ints to isinstance
        raise InvalidInput(f"structure JSON entry is not a list of integers: {values!r}")
    return t


def _str_tuple(values) -> tuple[str, ...]:
    if type(values) is not list or not all(type(v) is str for v in values):
        raise InvalidInput(f"structure JSON entry is not a list of strings: {values!r}")
    return tuple(values)


def structure_from_json(data: dict) -> MultiSortedStructure:
    if not isinstance(data, dict):
        raise InvalidInput("structure JSON must be an object with a sorts field")
    try:
        raw_sorts = data["sorts"]
        if not isinstance(raw_sorts, dict) and not (
            isinstance(raw_sorts, list)
            and all(isinstance(p, list) and len(p) == 2 for p in raw_sorts)
        ):
            raise InvalidInput(
                "structure JSON sorts must be an object or a list of [name, size] pairs"
            )
        pairs = raw_sorts.items() if isinstance(raw_sorts, dict) else raw_sorts
        sorts = tuple((str(k), v) for k, v in pairs)
        _int_tuple([size for _, size in sorts])
        functions = tuple(
            Function(
                name=str(f["name"]),
                arg_sorts=_str_tuple(f["args"]),
                result_sort=str(f["result"]),
                rows=tuple(sorted(_int_tuple(r) for r in f["rows"])),
            )
            for f in data.get("functions", ())
        )
        relations = tuple(
            Relation(
                name=str(r["name"]),
                arg_sorts=_str_tuple(r["args"]),
                tuples=tuple(sorted(_int_tuple(t) for t in r["tuples"])),
            )
            for r in data.get("relations", ())
        )
        constants = tuple(
            Constant(name=str(c["name"]), sort=str(c["sort"]), index=c["index"])
            for c in data.get("constants", ())
        )
        _int_tuple([c.index for c in constants])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"structure JSON malformed: {exc}") from exc
    return validate_structure(
        MultiSortedStructure(
            sorts=sorts, functions=functions, relations=relations, constants=constants
        )
    )
