import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blackbox.corel import (
    Corelation,
    cap_corelation,
    compose_corelations,
    corel_from_cospan,
    cup_corelation,
    identity_corelation,
    tensor_corelations,
)
from blackbox.errors import InterfaceMismatch

from util import dagger_corelation, rand_corel, rand_cospan


@st.composite
def corelations(draw, max_side=4):
    m = draw(st.integers(0, max_side))
    n = draw(st.integers(0, max_side))
    if m + n == 0:
        return Corelation(0, 0, [])
    assignment = draw(
        st.lists(st.integers(0, m + n - 1), min_size=m + n, max_size=m + n)
    )
    blocks = {}
    for idx, b in enumerate(assignment):
        blocks.setdefault(b, []).append(idx)
    return Corelation(m, n, blocks.values())


def test_from_cospan_examples():
    ident = corel_from_cospan([0, 1], [0, 1])
    assert ident == identity_corelation(2)

    point = corel_from_cospan(["p", "p"], ["p", "p", "p"])
    assert point.blocks == ((0, 1, 2, 3, 4),)

    fork = corel_from_cospan(["n", "n"], ["n"])
    assert fork.blocks == ((0, 1, 2),)

    # A function f: X -> Y read as the cospan X -> Y <- Y of f and the
    # identity: each y is a block with its preimage, a singleton outside
    # the image.
    f = corel_from_cospan([2, 0, 2], range(4))
    assert f.blocks == ((0, 2, 5), (1, 3), (4,), (6,))
    assert corel_from_cospan([], range(2)) == Corelation(0, 2, [(0,), (1,)])
    assert corel_from_cospan([1, 1], range(3)).blocks == ((0, 1, 3), (2,), (4,))

def test_compose_examples():
    a = Corelation(1, 2, [(0, 1), (2,)])
    b = Corelation(2, 1, [(0, 1, 2)])
    assert compose_corelations(a, b) == Corelation(1, 1, [(0, 1)])

    alpha = rand_corel(random.Random(0), 3, 2)
    assert compose_corelations(identity_corelation(3), alpha) == alpha
    assert compose_corelations(alpha, identity_corelation(2)) == alpha

    with pytest.raises(InterfaceMismatch):
        compose_corelations(a, a)


def test_snake_in_corel():
    idc = identity_corelation(2)
    lhs = compose_corelations(
        tensor_corelations(idc, cup_corelation(2)),
        tensor_corelations(cap_corelation(2), idc),
    )
    assert lhs == idc


def test_dagger_and_tensor_units():
    a = Corelation(2, 1, [(0, 2), (1,)])
    assert dagger_corelation(dagger_corelation(a)) == a
    empty = Corelation(0, 0, [])
    assert tensor_corelations(a, empty) == a
    assert tensor_corelations(empty, a) == a


def test_canonicalization_is_input_order_insensitive():
    b1 = Corelation(2, 2, [(3, 1), (2, 0)])
    b2 = Corelation(2, 2, [(0, 2), (1, 3)])
    assert b1 == b2
    assert b1.blocks == ((0, 2), (1, 3))
    assert str(b1) == "corel 2 -> 2 : {x0 y0} {x1 y1}"


def _composite_by_closure(a, b):
    """Independent oracle: Warshall's transitive closure of "shares a block"
    over X+Y+Z, restricted to X+Z."""
    nx, ny, nz = a.left_size, a.right_size, b.right_size
    total = nx + ny + nz
    linked = [[i == j for j in range(total)] for i in range(total)]
    blocks = list(a.blocks) + [[k + nx for k in block] for block in b.blocks]
    for block in blocks:
        for i in block:
            for j in block:
                linked[i][j] = True
    for k in range(total):
        for i in range(total):
            if linked[i][k]:
                for j in range(total):
                    linked[i][j] = linked[i][j] or linked[k][j]
    outer = [*range(nx), *range(nx + ny, total)]
    classes = {frozenset(j for j in outer if linked[i][j]) for i in outer}
    return Corelation(nx, nz, [[k if k < nx else k - ny for k in c] for c in classes])


def test_compose_against_transitive_closure_oracle():
    rng = random.Random(17)
    for _ in range(300):
        a = rand_corel(rng, rng.randint(0, 4), rng.randint(0, 4))
        b = rand_corel(rng, a.right_size, rng.randint(0, 4))
        assert compose_corelations(a, b) == _composite_by_closure(a, b)


@given(corelations(), corelations(), corelations(), st.randoms())
def test_associativity(a, b, c, rnd):
    # Resize b and c so the composites exist.
    b = rand_corel(rnd, a.right_size, b.right_size)
    c = rand_corel(rnd, b.right_size, c.right_size)
    lhs = compose_corelations(compose_corelations(a, b), c)
    rhs = compose_corelations(a, compose_corelations(b, c))
    assert lhs == rhs


@given(st.randoms())
def test_interchange(rnd):
    a = rand_corel(rnd, rnd.randint(0, 3), rnd.randint(0, 3))
    b = rand_corel(rnd, a.right_size, rnd.randint(0, 3))
    c = rand_corel(rnd, rnd.randint(0, 3), rnd.randint(0, 3))
    d = rand_corel(rnd, c.right_size, rnd.randint(0, 3))
    lhs = compose_corelations(tensor_corelations(a, c), tensor_corelations(b, d))
    rhs = tensor_corelations(compose_corelations(a, b), compose_corelations(c, d))
    assert lhs == rhs


def _compose_cospans(i1, o1, i2, o2, apex1, apex2):
    """Independent pushout of cospans via transitive closure on the apices."""
    classes = {("L", k): {("L", k)} for k in range(apex1)}
    classes.update({("R", k): {("R", k)} for k in range(apex2)})
    pairs = [(("L", o1[k]), ("R", i2[k])) for k in range(len(o1))]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            union = classes[a] | classes[b]
            if union != classes[a] or union != classes[b]:
                changed = True
                for x in union:
                    classes[x] = union
    reps = {}
    for x, cl in classes.items():
        reps[x] = min(cl)
    names = sorted(set(reps.values()))
    index = {n: k for k, n in enumerate(names)}
    new_i = [index[reps[("L", k)]] for k in i1]
    new_o = [index[reps[("R", k)]] for k in o2]
    return new_i, new_o


@given(st.randoms())
def test_cospan_composition_commutes_with_corelations(rnd):
    """Composing as cospans then converting equals converting then composing."""
    apex1, apex2 = rnd.randint(1, 4), rnd.randint(1, 4)
    m, k, n = rnd.randint(0, 3), rnd.randint(0, 3), rnd.randint(0, 3)
    i1, o1 = rand_cospan(rnd, m, k, apex1)
    i2, o2 = rand_cospan(rnd, k, n, apex2)
    via_cospans = corel_from_cospan(*_compose_cospans(i1, o1, i2, o2, apex1, apex2))
    via_corels = compose_corelations(
        corel_from_cospan(i1, o1), corel_from_cospan(i2, o2)
    )
    assert via_cospans == via_corels
