"""The witness suite: checks a supplied witness instance, three object
tuples and three morphism tuples with their endpoints embedded, and builds
the standard one on objects 0, 1 and 2, which the section3 suite reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automorphisms import _fixed, carries, orbit_of
from .errors import InvalidInput
from .groups import FiniteGroup
from .report import (
    ACL_SURROGATE,
    DCL_SURROGATE,
    INDEPENDENCE_SURROGATE,
    TYPE_SURROGATE,
    Report,
)
from .structures import (
    Element,
    MultiSortedStructure,
    decode_groupoid,
    morphism_tuple,
    morphisms_between,
    object_closure,
    object_tuple,
    pair_closure,
)
from .witness import YTuple, raw_morphism


@dataclass(frozen=True)
class WitnessInstance:
    """Supplied witness data: three object tuples and three morphism tuples
    with endpoints embedded; the composition relation plays the formula."""

    structure: MultiSortedStructure
    b0: tuple[Element, ...]
    b1: tuple[Element, ...]
    b2: tuple[Element, ...]
    f01: YTuple
    f12: YTuple
    f02: YTuple

    @property
    def objects(self) -> tuple[int, int, int]:
        return (self.b0[-1].index, self.b1[-1].index, self.b2[-1].index)


def standard_witness(s: MultiSortedStructure) -> WitnessInstance:
    """The canonical witness on objects 0, 1, 2 of an encoded groupoid."""
    if s.sort_size("O") < 3:
        raise InvalidInput("witness needs at least three objects")
    gpd = decode_groupoid(s)
    m01 = min(morphisms_between(s, 0, 1))
    m12 = min(morphisms_between(s, 1, 2))
    m02 = gpd.compose(m01, m12)
    return WitnessInstance(
        structure=s,
        b0=object_tuple(s, 0),
        b1=object_tuple(s, 1),
        b2=object_tuple(s, 2),
        f01=morphism_tuple(s, m01),
        f12=morphism_tuple(s, m12),
        f02=morphism_tuple(s, m02),
    )


def check_witness(w: WitnessInstance) -> Report:
    s = w.structure
    report = Report(instance=f"witness over objects {w.objects}")
    o0, o1, o2 = w.objects

    def distinct() -> Optional[object]:
        if len({o0, o1, o2}) != 3:
            return f"objects must be pairwise distinct, got {w.objects}"
        return None

    report.add(
        "objects-distinct",
        "the three base objects are pairwise distinct",
        distinct,
        surrogates=(INDEPENDENCE_SURROGATE,),
    )
    if report.failures():
        return report

    pairs = (
        ("f01", w.f01, w.b0, w.b1, o0, o1),
        ("f12", w.f12, w.b1, w.b2, o1, o2),
        ("f02", w.f02, w.b0, w.b2, o0, o2),
    )

    def embedded() -> Optional[object]:
        for name, f, bi, bj, oi, oj in pairs:
            if f[: len(bi)] != bi or f[len(bi):-1] != bj:
                return f"{name} does not embed its endpoint tuples"
            m = raw_morphism(f)
            if m not in morphisms_between(s, oi, oj):
                return f"{name} morphism is not in Mor({oi},{oj})"
            closure = set(pair_closure(s, oi, oj))
            if any(e not in closure for e in f):
                return f"{name} leaves the pair closure"
            if _fixed(s, object_closure(s, oi) + object_closure(s, oj), f):
                return f"{name} is definable from the separate closures"
        return None

    report.add(
        "endpoints-embedded",
        "morphism tuples embed endpoints, stay in the pair closure, "
        "and are not definable from the separate closures",
        embedded,
        surrogates=(ACL_SURROGATE, DCL_SURROGATE),
    )

    def equivalent() -> Optional[object]:
        for name, f in (("f12", w.f12), ("f02", w.f02)):
            if not carries(s, (), w.f01, f):
                return f"{name} not in the empty-base orbit of f01"
        return None

    report.add(
        "type-equivalence",
        "the three endpoint/morphism tuples lie in one orbit over the empty base",
        equivalent,
        surrogates=(TYPE_SURROGATE,),
    )

    def unique() -> Optional[object]:
        comp = {(f, g): h for f, g, h in s.relation("comp").tuples}
        m01, m12, m02 = map(raw_morphism, (w.f01, w.f12, w.f02))
        if comp.get((m01, m12)) != m02:
            return f"composition triple fails: ({m01}, {m12}, {m02})"
        sols_x = [m for m in morphisms_between(s, o0, o1) if comp.get((m, m12)) == m02]
        if sols_x != [m01]:
            return f"slot x solutions {sols_x}"
        sols_y = [m for m in morphisms_between(s, o1, o2) if comp.get((m01, m)) == m02]
        if sols_y != [m12]:
            return f"slot y solutions {sols_y}"
        sols_z = [m for m in morphisms_between(s, o0, o2) if comp.get((m01, m12)) == m]
        if sols_z != [m02]:
            return f"slot z solutions {sols_z}"
        return None

    report.add(
        "composition-uniqueness",
        "each morphism tuple is the unique solution of the composition "
        "relation given the other two",
        unique,
    )

    def isolation() -> Optional[object]:
        for name, f, bi, bj, oi, oj in pairs:
            endpoints = bi + bj
            big = set(orbit_of(s, endpoints, f))
            small = set(orbit_of(s, object_closure(s, oi) + object_closure(s, oj), f))
            if big != small:
                return f"{name}: endpoint orbit differs from closure orbit"
        return None

    report.add(
        "isolation-surrogate",
        "isolation replaced by orbit determination: the endpoint tuples "
        "already pin the orbit over the full closures",
        isolation,
        surrogates=("isolation-as-orbit-determination",),
        surrogate_status=True,
    )
    return report


def run(s: MultiSortedStructure, g: FiniteGroup) -> Report:
    return check_witness(standard_witness(s))
