"""Exact finite group arithmetic on Cayley tables.

Groups are stored as full multiplication tables over element indices
``0..order-1``; every check is an exhaustive enumeration and every equality
is exact integer equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import AxiomViolation, InvalidInput, OrderMismatch, UnsupportedSize

MAX_GROUP_ORDER = 64


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table: ``table[i][j] = i * j``."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: Optional[tuple[str, ...]] = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == self.identity and self.table[b][a] == self.identity:
                    inv[a] = b
                    break
        return tuple(inv)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for a in range(self.order):
            k, x = 1, a
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @property
    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by a sorted tuple of member indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone group on re-indexed elements."""
        pos = {m: i for i, m in enumerate(self.members)}
        g = self.parent
        table = tuple(
            tuple(pos[g.mul(a, b)] for b in self.members) for a in self.members
        )
        return validate_group(table, pos[g.identity])


def validate_group(
    table: Sequence[Sequence[int]],
    identity: int,
    labels: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Check every group axiom on the raw table; raise AxiomViolation otherwise."""
    n = len(table)
    if n == 0:
        raise AxiomViolation("shape", "empty table")
    rows = tuple(tuple(row) for row in table)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AxiomViolation("shape", ("row", i, len(row)))
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise AxiomViolation("entry-range", (i, j, v))
    if not (0 <= identity < n):
        raise AxiomViolation("identity", ("out of range", identity))
    full = set(range(n))
    for i in range(n):
        if set(rows[i]) != full:
            raise AxiomViolation("latin-square", ("row", i))
        if {rows[j][i] for j in range(n)} != full:
            raise AxiomViolation("latin-square", ("column", i))
    for i in range(n):
        if rows[identity][i] != i or rows[i][identity] != i:
            raise AxiomViolation("identity", (identity, i))
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            row_ab = rows[ab]
            row_b = rows[b]
            row_a = rows[a]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise AxiomViolation("associativity", (a, b, c))
    for a in range(n):
        if not any(rows[a][b] == identity and rows[b][a] == identity for b in range(n)):
            raise AxiomViolation("no-inverse", a)
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise AxiomViolation("shape", ("labels", len(lab)))
    return FiniteGroup(order=n, table=rows, identity=identity, labels=lab)


def center(g: FiniteGroup) -> Subgroup:
    """Elements commuting with everything; always a normal subgroup."""
    members = tuple(
        x for x in g.elements
        if all(g.mul(x, y) == g.mul(y, x) for y in g.elements)
    )
    return Subgroup(parent=g, members=members)


def isomorphism_search(g: FiniteGroup, h: FiniteGroup) -> Optional[tuple[int, ...]]:
    """Search for an isomorphism g -> h as an element map.

    Returns the map whose image sequence (phi(0), phi(1), ...) is
    lexicographically least, or None when the groups are not isomorphic.
    Backtracking assigns elements in index order with full closure
    propagation; the element-order multiset prunes up front.
    """
    if g.order != h.order:
        raise OrderMismatch(g.order, h.order)
    if sorted(g.element_orders) != sorted(h.element_orders):
        return None
    n = g.order
    go, ho = g.element_orders, h.element_orders
    gt, ht = g.table, h.table
    img = [-1] * n
    used = [False] * n

    def assign(x: int, y: int, trail: list[tuple[int, int]]) -> bool:
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            cur = img[a]
            if cur != -1:
                if cur != b:
                    return False
                continue
            if used[b] or go[a] != ho[b]:
                return False
            img[a] = b
            used[b] = True
            trail.append((a, b))
            for c in range(n):
                d = img[c]
                if d == -1:
                    continue
                stack.append((gt[a][c], ht[b][d]))
                stack.append((gt[c][a], ht[d][b]))
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for a, b in trail:
            img[a] = -1
            used[b] = False

    def search() -> bool:
        x = next((i for i in range(n) if img[i] == -1), -1)
        if x == -1:
            return True
        for y in range(n):
            if used[y] or ho[y] != go[x]:
                continue
            trail: list[tuple[int, int]] = []
            if assign(x, y, trail) and search():
                return True
            undo(trail)
        return False

    seed: list[tuple[int, int]] = []
    if not assign(g.identity, h.identity, seed):
        return None
    return tuple(img) if search() else None


def _isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Orders first: ``isomorphism_search`` raises OrderMismatch on unequal ones."""
    return g.order == h.order and isomorphism_search(g, h) is not None


def cyclic_group(n: int) -> FiniteGroup:
    if not 1 <= n <= MAX_GROUP_ORDER:
        raise UnsupportedSize(f"cyclic order {n} outside 1..{MAX_GROUP_ORDER}")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return validate_group(table, 0)


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The permutation p after q."""
    return tuple(p[i] for i in q)


def _perm_group(perms: Sequence[tuple[int, ...]]) -> FiniteGroup:
    """Cayley table of a list of permutations closed under composition."""
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[compose_perms(p, q)] for q in perms) for p in perms)
    ident = index[tuple(range(len(perms[0])))]
    return validate_group(table, ident)


def symmetric_group(n: int) -> FiniteGroup:
    import math

    top = max(d for d in range(1, MAX_GROUP_ORDER + 1) if math.factorial(d) <= MAX_GROUP_ORDER)
    if not 1 <= n <= top:
        raise UnsupportedSize(f"symmetric degree {n} outside 1..{top}")
    perms = sorted(itertools.permutations(range(n)))
    return _perm_group(perms)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Element f*n + k stands for s^f r^k; the table follows r^k s = s r^-k.
    """
    if not 1 <= n <= MAX_GROUP_ORDER // 2:
        raise UnsupportedSize(f"dihedral parameter {n} outside 1..{MAX_GROUP_ORDER // 2}")
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for fa in (0, 1):
        for ka in range(n):
            for fb in (0, 1):
                for kb in range(n):
                    f = (fa + fb) % 2
                    k = ((ka if fb == 0 else -ka) + kb) % n
                    table[fa * n + ka][fb * n + kb] = f * n + k
    return validate_group(table, 0)


_QUATERNION_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {1, -1, i, -i, j, -j, k, -k}."""
    rules = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def base(x: str) -> tuple[int, str]:
        return (1, x[1:]) if x.startswith("-") else (0, x)

    def product(a: str, b: str) -> str:
        sa, ba = base(a)
        sb, bb = base(b)
        if ba == "1":
            out = bb
        elif bb == "1":
            out = ba
        else:
            out = rules[(ba, bb)]
        so, bo = base(out)
        neg = (sa + sb + so) % 2
        return ("-" if neg else "") + bo

    idx = {x: i for i, x in enumerate(_QUATERNION_LABELS)}
    table = tuple(
        tuple(idx[product(a, b)] for b in _QUATERNION_LABELS)
        for a in _QUATERNION_LABELS
    )
    return validate_group(table, 0, _QUATERNION_LABELS)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with element (x, y) at index x * |b| + y."""
    order = a.order * b.order
    if order > MAX_GROUP_ORDER:
        raise UnsupportedSize(f"product order {order} > {MAX_GROUP_ORDER}")
    nb = b.order
    table = tuple(
        tuple(
            a.mul(x1, x2) * nb + b.mul(y1, y2)
            for x2 in a.elements for y2 in b.elements
        )
        for x1 in a.elements for y1 in b.elements
    )
    return validate_group(table, a.identity * nb + b.identity)


def group_from_spec(spec: str) -> FiniteGroup:
    """Parse constructor shorthand: cyclic:N, symmetric:N, dihedral:N,
    quaternion8, trivial, product:SPEC,SPEC."""
    spec = spec.strip()
    if spec == "trivial":
        return cyclic_group(1)
    if spec == "quaternion8":
        return quaternion_group()
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        for pos in (i for i, ch in enumerate(body) if ch == ","):
            try:
                left = group_from_spec(body[:pos])
                right = group_from_spec(body[pos + 1:])
            except InvalidInput:
                continue
            return direct_product(left, right)
        raise InvalidInput(f"cannot split product spec {spec!r}")
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        try:
            n = int(arg)
        except ValueError as exc:
            raise InvalidInput(f"bad group parameter in {spec!r}") from exc
        if kind == "cyclic":
            return cyclic_group(n)
        if kind == "symmetric":
            return symmetric_group(n)
        if kind == "dihedral":
            return dihedral_group(n)
    raise InvalidInput(f"unknown group spec {spec!r}")


def group_to_json(g: FiniteGroup) -> dict:
    data: dict = {
        "order": g.order,
        "identity": g.identity,
        "table": [list(row) for row in g.table],
    }
    if g.labels is not None:
        data["labels"] = list(g.labels)
    return data


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict):
        raise InvalidInput("group JSON must be an object with table and identity fields")
    try:
        table = data["table"]
        identity = data["identity"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"group JSON missing field: {exc}") from exc
    # type(v) is int: JSON's true and false are ints to isinstance
    if type(identity) is not int or not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(type(v) is int for v in row) for row in table
    ):
        raise InvalidInput("group JSON table and identity must hold integers")
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise InvalidInput("group JSON labels must be a list of strings")
    g = validate_group(table, identity, labels)
    if "order" in data and (type(data["order"]) is not int or data["order"] != g.order):
        raise InvalidInput("group JSON order field disagrees with table size")
    return g
