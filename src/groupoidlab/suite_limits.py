"""The limits suite: two fixed directed systems of groups, then the
restriction epimorphism and the restricted-group tower on the pair (0, 1)
of an instance."""

from __future__ import annotations

import functools
from typing import Optional

from .automorphisms import _carrier_index, _restriction
from .groups import FiniteGroup, _isomorphic, compose_perms, cyclic_group
from .limits import (
    GroupHomomorphism,
    finite_stage_limit,
    raw_restriction_epimorphism,
    validate_system,
)
from .report import Report
from .structures import MultiSortedStructure


def verify_limits(s: MultiSortedStructure) -> Report:
    """Two fixed directed systems, then the restriction epimorphism and the
    restricted-group tower on the pair (0, 1) of s: the pair-base group sits
    centrally in the interdefinability-preserving group, which sits inside
    the full restriction group; both are normal; the pair-base stage is
    abelian; and the two-stage raw/full system has the full group as its
    limit."""
    report = Report(instance="directed systems")

    def chain() -> Optional[object]:
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
        lim = finite_stage_limit(sys_chain, ("z2", "z4", "z8")).group
        if not _isomorphic(lim, z8):
            return {"limit_order": lim.order}
        return None

    report.add(
        "chain-limit",
        "the mod-tower chain validates and its stage limit is the top group",
        chain,
    )

    def constant() -> Optional[object]:
        z2 = cyclic_group(2)
        sys_const = validate_system(
            indices=("lo", "hi"),
            order_pairs=[("lo", "hi")],
            groups={"lo": z2, "hi": z2},
            transitions={("lo", "hi"): [0, 1]},
        )
        lim = finite_stage_limit(sys_const, ("lo", "hi")).group
        if not _isomorphic(lim, z2):
            return {"limit_order": lim.order}
        return None

    report.add(
        "constant-limit",
        "a constant system's stage limit is the constant group",
        constant,
    )

    @functools.cache
    def epimorphism() -> GroupHomomorphism:
        return raw_restriction_epimorphism(s, 0, 1)

    def epi() -> Optional[object]:
        hom = epimorphism()
        if not hom.is_surjective():
            return {"problem": "not surjective"}
        expected_kernel = hom.source.order // hom.target.order
        if len(hom.kernel()) != expected_kernel:
            return {"kernel": len(hom.kernel()), "expected": expected_kernel}
        return None

    report.add(
        "restriction-epimorphism",
        "restricting the full-tuple group to the raw morphism is a "
        "surjection with the index-sized kernel",
        epi,
    )

    # the tower's groups are built outside its claims, so an instance they
    # cannot be built on aborts the suite as limits.instance-error
    ys = s.y_system
    f_full = ys.f_group(0, 1)
    g_sub = ys.g_subgroup(0, 1)
    y_raw = ys.raw_y_set(0, 1)
    # the interdefinability-preserving members: those whose global reps
    # stabilize every dcl-class carrier attached to the pair
    raw_index = _carrier_index(s, y_raw.members)
    g_perms = set(g_sub.perms)
    pi_perms = {
        f_full.perms[k]
        for k, rep in enumerate(f_full.reps)
        if -1 not in _restriction(rep.images, raw_index)
    }

    def tower() -> Optional[object]:
        if not g_perms <= pi_perms:
            return {"instance": "instance", "problem": "G not inside Pi"}
        if not pi_perms <= set(f_full.perms):
            return {"instance": "instance", "problem": "Pi not inside F"}
        return None

    report.add(
        "instance.tower-containment",
        "instance: pair-base group <= interdefinability-preservers <= full group",
        tower,
        surrogates=("pi-as-interdefinability-preservers",),
    )

    def central() -> Optional[object]:
        for p in g_perms:
            for q in pi_perms:
                if compose_perms(p, q) != compose_perms(q, p):
                    return {"instance": "instance", "noncommuting": (p, q)}
        return None

    report.add(
        "instance.gamma-central-in-pi",
        "instance: the pair-base group is central in the preservers",
        central,
    )

    def normal() -> Optional[object]:
        for sub, name in ((g_perms, "G"), (pi_perms, "Pi")):
            for k, g in enumerate(f_full.perms):
                gi = f_full.perms[f_full.group.inv(k)]
                if any(compose_perms(g, compose_perms(h, gi)) not in sub for h in sub):
                    return {"instance": "instance", "problem": f"{name} not normal in F"}
        return None

    report.add(
        "instance.normal-in-full-group",
        "instance: both subgroups are normal in the full restriction group",
        normal,
    )

    def abelian() -> Optional[object]:
        if not g_sub.group.is_abelian():
            return {"instance": "instance", "order": g_sub.group.order}
        return None

    report.add(
        "instance.abelian-stage",
        "instance: the pair-base stage is abelian",
        abelian,
    )

    def two_stage() -> Optional[object]:
        hom = epimorphism()
        if not hom.is_surjective():
            return {"instance": "instance", "problem": "restriction not surjective"}
        sys = validate_system(
            indices=("raw", "full"),
            order_pairs=[("raw", "full")],
            groups={"raw": hom.target.group, "full": hom.source.group},
            transitions={("raw", "full"): hom.mapping},
        )
        lim = finite_stage_limit(sys, ("raw", "full")).group
        if lim.order != hom.source.group.order:
            return {"instance": "instance", "limit": lim.order}
        return None

    report.add(
        "instance.two-stage-limit",
        "instance: the raw/full restriction system is a directed system "
        "whose stage limit is the full group",
        two_stage,
    )
    return report


def run(s: MultiSortedStructure, g: FiniteGroup) -> Report:
    return verify_limits(s)
