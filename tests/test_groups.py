import pytest

from groupoidlab import (
    AxiomViolation,
    OrderMismatch,
    UnsupportedSize,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_json,
    group_from_spec,
    group_to_json,
    isomorphism_search,
    quaternion_group,
    symmetric_group,
    validate_group,
)


def element_orders(g):
    # independent oracle: repeated multiplication until the identity returns
    out = []
    for a in range(g.order):
        k, x = 1, a
        while x != g.identity:
            x = g.mul(x, a)
            k += 1
        out.append(k)
    return sorted(out)


def commuting_center(g):
    # independent oracle: enumerate commuting pairs
    return [
        x
        for x in range(g.order)
        if all(g.table[x][y] == g.table[y][x] for y in range(g.order))
    ]


def test_validate_trivial_and_z2():
    assert validate_group([[0]], 0).order == 1
    g = validate_group([[0, 1], [1, 0]], 0)
    assert g.order == 2 and g.inv(1) == 1


def test_validate_rejects_missing_inverse():
    with pytest.raises(AxiomViolation) as exc:
        validate_group([[0, 1], [1, 1]], 0)
    assert exc.value.kind in ("latin-square", "no-inverse")


def test_validate_rejects_broken_associativity():
    # latin square that is not a group: swap two entries of Z/3's table
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    table[2][1], table[2][2] = table[2][2], table[2][1]
    with pytest.raises(AxiomViolation):
        validate_group(table, 0)


def test_center_examples():
    z4 = cyclic_group(4)
    assert center(z4).members == (0, 1, 2, 3)
    s3 = symmetric_group(3)
    assert center(s3).members == (commuting_center(s3)[0],) == (0,)
    d4 = dihedral_group(4)
    assert center(d4).members == tuple(commuting_center(d4)) == (0, 2)
    q8 = quaternion_group()
    assert center(q8).members == (0, 1)


def test_isomorphism_identity_on_z2():
    z2 = cyclic_group(2)
    assert isomorphism_search(z2, z2) == (0, 1)


def test_isomorphism_z4_klein_absent():
    z4 = cyclic_group(4)
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert element_orders(z4) != element_orders(k4)
    assert isomorphism_search(z4, k4) is None
    assert isomorphism_search(k4, z4) is None


def test_isomorphism_s3_d3():
    s3, d3 = symmetric_group(3), dihedral_group(3)
    iso = isomorphism_search(s3, d3)
    assert iso is not None
    for a in range(6):
        for b in range(6):
            assert iso[s3.mul(a, b)] == d3.mul(iso[a], iso[b])
    # deterministic result
    assert iso == isomorphism_search(s3, d3)
    # symmetric existence
    assert isomorphism_search(d3, s3) is not None


def test_isomorphism_order_mismatch():
    with pytest.raises(OrderMismatch):
        isomorphism_search(cyclic_group(2), cyclic_group(3))


def test_constructors():
    assert cyclic_group(1).order == 1
    s3 = symmetric_group(3)
    assert s3.order == 6 and not s3.is_abelian()
    k4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert k4.is_abelian() and element_orders(k4) == [1, 2, 2, 2]
    assert quaternion_group().order == 8
    assert dihedral_group(4).order == 8


def test_constructor_size_limits():
    with pytest.raises(UnsupportedSize):
        symmetric_group(5)
    with pytest.raises(UnsupportedSize):
        direct_product(cyclic_group(16), cyclic_group(8))
    with pytest.raises(UnsupportedSize):
        cyclic_group(0)


def test_group_spec_parsing():
    assert group_from_spec("trivial").order == 1
    assert group_from_spec("cyclic:6").order == 6
    assert group_from_spec("quaternion8").order == 8
    assert group_from_spec("product:cyclic:2,cyclic:2").order == 4
    assert group_from_spec("product:product:cyclic:2,cyclic:2,cyclic:2").order == 8


def test_json_round_trip():
    for g in (cyclic_group(4), symmetric_group(3), quaternion_group()):
        again = group_from_json(group_to_json(g))
        assert again == g
