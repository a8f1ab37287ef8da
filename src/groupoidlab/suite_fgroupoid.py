"""The fgroupoid suite: claims about the quotient groupoid of two-step path
classes, its composition, vertex groups and path reductions."""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Optional

from .groups import FiniteGroup, _isomorphic
from .groupoids import vertex_group
from .paths import ExtendedGroupoid, build_extended_groupoid, classes_match_folds, reductions_hold
from .report import Claim
from .structures import MultiSortedStructure


def claims(s: MultiSortedStructure, g: FiniteGroup) -> Iterator[Claim]:
    """Claims about the quotient groupoid of two-step path classes on the
    first objects of an instance with at least four objects."""
    n = s.sort_size("O")
    ys = s.y_system

    def wdef() -> Optional[object]:
        a, b, c = 0, 1, 2
        y_ab, y_bc = ys.y_set(a, b), ys.y_set(b, c)
        decompositions = list(itertools.product(ys.standard(a, b), ys.standard(b, c)))
        for g in range(y_ab.size):
            for h in range(y_bc.size):
                outs = {ys.compose(a, b, c, g, h, decomposition=d) for d in decompositions}
                if len(outs) != 1:
                    return {
                        "g": y_ab.members[g],
                        "h": y_bc.members[h],
                        "distinct_results": len(outs),
                    }
        return None

    yield Claim(
        "composition-well-defined",
        "composites agree over every decomposition",
        wdef,
    )

    def divisors() -> Optional[object]:
        a, b, c = 0, 1, 2
        y_ac, y_ab, y_bc = ys.y_set(a, c), ys.y_set(a, b), ys.y_set(b, c)
        for f in range(y_ac.size):
            for g in range(y_ab.size):
                hits = [h for h in range(y_bc.size) if ys.compose(a, b, c, g, h) == f]
                if len(hits) != 1:
                    return {"f": y_ac.members[f], "g": y_ab.members[g], "divisors": len(hits)}
        return None

    yield Claim("unique-divisor", "each composite has a unique divisor", divisors)

    # the cache keeps no exception, so each quotient claim fails with the
    # quotient's own witness when it cannot be built; the path claims run
    # on their own
    @functools.cache
    def quotient() -> ExtendedGroupoid:
        return build_extended_groupoid(ys)

    def builds() -> Optional[object]:
        quotient()
        return None

    yield Claim(
        "quotient-valid",
        "the two-step path classes assemble into a valid groupoid",
        builds,
    )

    def vertex_iso() -> Optional[object]:
        vg = vertex_group(quotient().groupoid, 0)
        fg = ys.f_group(0, 1)
        if not _isomorphic(vg.group, fg.group):
            return {"vertex_order": vg.group.order, "f_order": fg.group.order}
        return None

    yield Claim(
        "vertex-is-f-group",
        "quotient vertex groups are isomorphic to the Y-set groups",
        vertex_iso,
    )

    def injection() -> Optional[object]:
        gpd, ext = ys.gpd, quotient()
        inj = [ext.inject_standard(m) for m in range(gpd.n_morphisms)]
        for m1 in range(gpd.n_morphisms):
            for m2 in range(gpd.n_morphisms):
                if gpd.ter[m1] == gpd.init[m2]:
                    lhs = inj[gpd.compose(m1, m2)]
                    rhs = ext.groupoid.compose(inj[m1], inj[m2])
                    if lhs != rhs:
                        return {"pair": (m1, m2)}
        return None

    yield Claim(
        "injection-preserves-composition",
        "the standard groupoid embeds compatibly into the quotient",
        injection,
    )

    def sizes() -> Optional[object]:
        ext = quotient()
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                count = sum(1 for k in ext.keys if k[1] == a and k[2] == b)
                if count != ys.y_set(a, b).size:
                    return {"pair": (a, b), "classes": count}
        return None

    yield Claim("classes-match-y", "morphism counts equal Y-set sizes", sizes)

    yield Claim(
        "path-equivalence-consistent",
        "probe folding agrees with canonical class keys on every two-step "
        "path pair that admits a probe",
        lambda: classes_match_folds(ys, 0, 1),
    )

    yield Claim(
        "three-step-reduction",
        "every three-step path reduces to an equivalent two-step path",
        lambda: reductions_hold(ys, 0, 1, 3),
    )
