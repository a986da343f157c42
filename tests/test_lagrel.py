import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from blackbox import lagrel
from blackbox.behavior import blackbox
from blackbox.circuits import circuit, compose_circuits
from blackbox.corel import (
    Corelation,
    cap_corelation,
    compose_corelations,
    corel_from_cospan,
    identity_corelation,
)
from blackbox.dirichlet import DirichletForm, gradient, pushforward_form
from blackbox.errors import InterfaceMismatch
from blackbox.field import ONE, TWO, ZERO, from_rat, impedance
from blackbox.lagrel import (
    EMPTY_SPACE,
    LagrangianRelation,
    Subspace,
    cap_relation,
    compose_relations,
    conj,
    cup_relation,
    dagger_relation,
    embed,
    graph_of_differential,
    identity_relation,
    nullspace,
    port_space,
    rref,
    subspace_as_relation,
    symplectify,
    tensor_relations,
    twist,
)

from util import (
    circuit_kirchhoff_matrix,
    dagger_corelation,
    dense,
    gauss_jordan,
    ladder_circuit,
    mesh_circuit,
    mesh_columns,
    pushforward_lagrangian,
    rand_circuit,
    rand_composable_pair,
    rand_corel,
    rand_degenerate_matrix,
    rand_entry,
    rand_form,
    rand_oracle_matrix,
    reference_compose,
    reference_current_generators,
    reference_lagrangian,
    reference_nullspace,
    rung_sections,
    sparse,
)


def F(x):
    return from_rat(x)


def _rand_matrix(rng, rows, cols):
    return [
        [F(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rref_examples():
    ident = [[ONE, ZERO], [ZERO, ONE]]
    assert dense(rref(sparse(ident), 2), 2) == [tuple(r) for r in ident]
    proportional = [[F(2), F(4)], [F(3), F(6)]]
    assert dense(rref(sparse(proportional), 2), 2) == [(ONE, F(2))]
    rng = random.Random(1)
    for _ in range(20):
        m = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        cols = len(m[0])
        once = dense(rref(sparse(m), cols), cols)
        assert dense(rref(sparse(once), cols), cols) == once


def test_rref_canonical_under_row_mixing():
    rng = random.Random(2)
    for _ in range(20):
        cols = rng.randint(2, 5)
        m = _rand_matrix(rng, rng.randint(1, 4), cols)
        mixed = [list(r) for r in m]
        rng.shuffle(mixed)
        a, b = rng.randrange(len(mixed)), rng.randrange(len(mixed))
        if a != b:
            c = F(rng.randint(1, 3))
            mixed[a] = [x + c * y for x, y in zip(mixed[a], mixed[b])]
        assert Subspace(sparse(m), cols) == Subspace(sparse(mixed), cols)
        assert hash(Subspace(sparse(m), cols)) == hash(Subspace(sparse(mixed), cols))


def test_explicit_zeros_in_sparse_rows_are_dropped():
    # A zero stored in a sparse row must not be taken for a pivot or kept as
    # an entry: the subspace is the one the dense rows give.
    rng = random.Random(22)
    for _ in range(30):
        cols = rng.randint(1, 5)
        m = rand_degenerate_matrix(rng, rng.randint(1, 4), cols)
        as_dicts = [{c: e for c, e in enumerate(r) if e or rng.random() < 0.5} for r in m]
        sub = Subspace(as_dicts, cols)
        assert sub == Subspace(sparse(m), cols)
        assert sub.rows == tuple(gauss_jordan(m, cols))
        assert all(e for r in sub.sparse for e in r.values())


def test_rref_matches_first_nonzero_pivot_reference():
    # rref picks the simplest pivot; the reduced form is unique, so it must
    # equal plain Gauss-Jordan's, whatever the row order.
    rng = random.Random(12)
    for _ in range(60):
        cols = rng.randint(1, 6)
        m = rand_degenerate_matrix(rng, rng.randint(1, 4), cols)
        expected = gauss_jordan(m, cols)
        assert dense(rref(sparse(m), cols), cols) == expected
        rng.shuffle(m)
        assert dense(rref(sparse(m), cols), cols) == expected
    # Wide and very sparse, as the oracle's systems are.
    for _ in range(30):
        m = rand_oracle_matrix(rng)
        cols = len(m[0])
        expected = gauss_jordan(m, cols)
        assert dense(rref(sparse(m), cols), cols) == expected
        assert dense(rref(sparse(m[::-1]), cols), cols) == expected


def test_nullspace_solves():
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        m = _rand_matrix(rng, rows, cols)
        basis = dense(nullspace(sparse(m), cols, range(cols)), cols)
        assert len(basis) == cols - len(rref(sparse(m), cols))
        for vec in basis:
            for row in m:
                acc = ZERO
                for a, b in zip(row, vec):
                    acc = acc + a * b
                assert acc == ZERO


def _assert_nullspace(rows, cols, expected):
    # The basis solves every row, has one vector per free column (cols minus
    # the rank: the dimension of the reference's nullspace) and spans it.
    basis = nullspace(sparse(rows), cols, range(cols))
    assert len(basis) == expected.dim
    for vec in basis:
        for row in rows:
            acc = ZERO
            for c, e in vec.items():
                if row[c]:
                    acc = acc + row[c] * e
            assert acc == ZERO
    assert Subspace(basis, cols) == expected


def test_nullspace_matches_the_dense_reference_on_wide_sparse_matrices():
    # nullspace picks its pivots over rows and columns, so its basis may
    # differ from the canonical one; the solution space may not.
    rng = random.Random(21)
    for _ in range(30):
        m = rand_oracle_matrix(rng)
        cols = len(m[0])
        expected = Subspace(sparse(reference_nullspace(m, cols)), cols)
        for rows in (m, m[::-1]):
            _assert_nullspace(rows, cols, expected)


def _kirchhoff_circuits(rng):
    """Ladders and meshes with many interior nodes."""
    return [
        ladder_circuit(rng, 8),
        ladder_circuit(rng, 8, "RL", "C", two_node=True),
        ladder_circuit(rng, 12, "L", "C"),
        ladder_circuit(rng, 16, two_node=True),
        ladder_circuit(rng, 16, "RL", "C"),
        mesh_circuit(rng, 3),
        mesh_circuit(rng, 3, two_node=True),
        mesh_circuit(rng, 4),
    ]


def test_nullspace_backward_pass_on_kirchhoff_systems():
    # Ladders and meshes with many interior nodes: forward elimination leaves
    # later pivot columns in finished rows, and the backward pass must clear
    # every one of them.  The reference reduces the reversed rows, the order
    # in which its first-nonzero pivots stay cheapest; any order gives the
    # same nullspace.
    rng = random.Random(33)
    for g in _kirchhoff_circuits(rng):
        m = circuit_kirchhoff_matrix(g)
        cols = len(m[0])
        expected = Subspace(sparse(reference_nullspace(m[::-1], cols)), cols)
        for rows in (m, m[::-1]):
            _assert_nullspace(rows, cols, expected)
    for _ in range(40):
        cols = rng.randint(2, 7)
        m = rand_degenerate_matrix(rng, rng.randint(1, 5), cols)
        expected = Subspace(sparse(reference_nullspace(m, cols)), cols)
        for rows in (m, m[::-1]):
            _assert_nullspace(rows, cols, expected)


def test_nullspace_edge_cases():
    assert nullspace([], 0, range(0)) == [] and nullspace([{}], 0, range(0)) == []
    units = [{0: ONE}, {1: ONE}, {2: ONE}]
    assert nullspace([], 3, range(3)) == units
    assert nullspace([{0: ZERO, 1: ZERO, 2: ZERO}, {}, {1: ZERO}], 3, range(3)) == units
    ls = impedance("L", 3)
    assert nullspace([{0: ONE}, {0: ONE, 1: ls}, {1: ls}], 2, range(2)) == []
    # Row 0 takes column 0 first (Markowitz product 0) and is finished;
    # row 1 then takes column 1, which only the finished row 0 also holds.
    # The backward pass must clear it there, leaving row 0 = e0 and the
    # single solution e2 - e1.
    assert nullspace([{0: ONE, 1: ONE, 2: ONE}, {1: ONE, 2: ONE}], 3, range(3)) == [{2: ONE, 1: -ONE}]


def _assert_reads(rows, cols, read):
    # The basis read at ``read`` has one vector per free column, holds only
    # the read columns, and spans what the whole basis spans there.
    full = nullspace(rows, cols, range(cols))
    part = nullspace(rows, cols, read)
    assert len(part) == len(full)
    assert all(c in read for vec in part for c in vec)
    at = {c: k for k, c in enumerate(sorted(set(read)))}

    def projected(vecs):
        return Subspace([{at[c]: e for c, e in vec.items() if c in at} for vec in vecs], len(at))

    assert projected(part) == projected(full)


def _read_sets(rng, cols):
    """Column sets to read: one column, a few, about half, and none."""
    return [
        [rng.randrange(cols)],
        rng.sample(range(cols), min(cols, 3)),
        rng.sample(range(cols), cols // 2),
        [],
    ]


def test_nullspace_of_read_columns_on_kirchhoff_systems():
    # The systems of the backward-pass test, read at the oracle's columns
    # (the potentials of the port nodes and the port shares) and at random
    # ones.
    rng = random.Random(33)
    for g in _kirchhoff_circuits(rng):
        m = circuit_kirchhoff_matrix(g)
        cols = len(m[0])
        ports = [*g.inputs, *g.outputs]
        at = {lab: k for k, lab in enumerate(g.graph.nodes)}
        oracle = [at[p] for p in ports] + list(range(cols - len(ports), cols))
        for read in [oracle, *_read_sets(rng, cols)]:
            for rows in (sparse(m), sparse(m[::-1])):
                _assert_reads(rows, cols, read)
    for _ in range(40):
        cols = rng.randint(2, 7)
        m = rand_degenerate_matrix(rng, rng.randint(1, 5), cols)
        for read in _read_sets(rng, cols):
            _assert_reads(sparse(m), cols, read)


def test_nullspace_of_read_columns_on_wide_sparse_matrices():
    rng = random.Random(21)
    for _ in range(30):
        m = rand_oracle_matrix(rng)
        cols = len(m[0])
        for read in _read_sets(rng, cols):
            for rows in (sparse(m), sparse(m[::-1])):
                _assert_reads(rows, cols, read)


def test_nullspace_of_read_columns_edge_cases():
    # Row k is x_k + s x_{k+1}: its 1 makes column k its pivot, in order, so
    # the row of column 0 reaches the pivots 1, 2, ..., n - 2 one after the
    # other, and column n - 1 is never pivoted.  x_0 = (-s)^(n-1) x_{n-1}
    # needs every row of the chain back-substituted.
    s = impedance("L", 1)
    n = 6
    chain = [{k: ONE, k + 1: s} for k in range(n - 1)]
    x0 = -(s * s * s * s * s)
    assert nullspace(chain, n, [0]) == [{0: x0}]
    assert nullspace(chain, n, [2]) == [{2: -(s * s * s)}]
    assert nullspace(chain, n, [n - 1]) == [{n - 1: ONE}]
    assert nullspace(chain, n, []) == [{}]
    # Read in full, x_k = (-s)^(n-1-k) x_{n-1} at every column.
    full = {n - 1: ONE}
    for k in range(n - 2, -1, -1):
        full[k] = -(s * full[k + 1])
    assert full[0] == x0 and nullspace(chain, n, range(n)) == [full]
    # A column that no row holds is free, and read or not it keeps its vector.
    assert nullspace(chain, n + 1, [0, n]) == [{0: x0}, {n: ONE}]
    assert nullspace(chain, n + 1, [0]) == [{0: x0}, {}]
    for read in ([0], [1, 4], [n - 1], [], range(n + 1), [0, n]):
        _assert_reads(chain, n + 1, read)


def test_a_space_is_its_signs():
    assert port_space(0) == EMPTY_SPACE == ()
    assert port_space(2) == (1, 1) and conj(port_space(2)) == (-1, -1)
    assert conj((1, -1)) + port_space(1) == (-1, 1, 1)
    rel = blackbox(circuit(["a", "b"], [("a", "b", impedance("R", 1))], ["a"], ["b"]))
    assert rel.source == rel.target == (1,)
    # A sign other than +1 or -1 is refused, on either side, even where the
    # rows (here the potential axis) would be Lagrangian under any signs.
    for signs in ((1, 0), (2,)):
        axis = [{k: ONE} for k in range(len(signs))]
        for source, target in ((signs, ()), ((), signs)):
            with pytest.raises(ValueError, match="sign"):
                LagrangianRelation(source, target, [])
            with pytest.raises(ValueError, match="sign"):
                LagrangianRelation(source, target, axis)
        assert _accepted(port_space(len(signs)), (), axis)


def _accepted(source, target, rows):
    try:
        LagrangianRelation(source, target, rows)
    except ValueError:
        return False
    return True


def test_is_lagrangian_examples():
    # A subspace of V is Lagrangian iff it is accepted as a relation 0 -> V.
    space = port_space(2)
    potential_axis = [{0: ONE}, {1: ONE}]
    assert _accepted(EMPTY_SPACE, space, potential_axis)
    everything = [{i: ONE} for i in range(4)]
    assert not _accepted(EMPTY_SPACE, space, everything)
    rng = random.Random(4)
    for _ in range(15):
        labels = [f"q{k}" for k in range(rng.randint(1, 4))]
        q = rand_form(rng, labels)
        assert _accepted(EMPTY_SPACE, port_space(len(labels)), graph_of_differential(q).sparse)


def _relation_pairing(source, target):
    # [phi src, iota src, phi tgt, iota tgt], source signs flipped.
    m, n = len(source), len(target)
    return ([(k, m + k, -s) for k, s in enumerate(source)]
            + [(2 * m + k, 2 * m + n + k, s) for k, s in enumerate(target)])


def _negate_columns(rows, cols):
    # Negating a port's current column maps a port space to its conjugate
    # at that port.
    out = [list(r) for r in rows]
    for r in out:
        for c in cols:
            r[c] = -r[c]
    return out


def test_isotropy_check_matches_the_dense_reference():
    # The rows phi_k + sum_j sign_j S_kj iota_j are already reduced, and
    # omega(row_k, row_l) = S_lk - S_kl whatever the signs, so they are
    # isotropic iff S is symmetric.  Breaking the symmetry at (a, b) with
    # b >= a + 2 leaves one offending pair of rows, and not an adjacent one.
    rng = random.Random(41)
    seen = set()
    for _ in range(40):
        d = rng.randint(3, 5)
        signs = [rng.choice((1, -1)) for _ in range(d)]
        space = tuple(signs)
        pairing = [(k, d + k, s) for k, s in enumerate(signs)]
        sym = {}
        for k in range(d):
            for j in range(k, d):
                sym[k, j] = sym[j, k] = rand_entry(rng)
        a = rng.randrange(d - 2)
        b = rng.randrange(a + 2, d)
        broken = dict(sym)
        broken[a, b] = broken[a, b] + ONE
        for s_mat in (sym, broken):
            rows = [[ONE if j == k else ZERO for j in range(d)]
                    + [from_rat(signs[j]) * s_mat[k, j] for j in range(d)] for k in range(d)]
            mixed = [list(r) for r in rows]
            rng.shuffle(mixed)
            c = rand_entry(rng)
            mixed[0] = [x + c * y for x, y in zip(mixed[0], mixed[-1])]
            extra = [ONE if j == d + rng.randrange(d) else ZERO for j in range(2 * d)]
            for cand in (rows, mixed, rows[:-1], rows + [extra]):
                expected = reference_lagrangian(cand, 2 * d, pairing)
                assert _accepted(EMPTY_SPACE, space, sparse(cand)) == expected
                seen.add((s_mat is sym, len(cand) == d, expected))
            # The same rows as a relation: the first m ports are the
            # source, whose signs the relation's ambient flips.
            m = rng.randint(0, d)
            src = tuple(-s for s in signs[:m])
            tgt = tuple(signs[m:])
            order = [*range(m), *range(d, d + m), *range(m, d), *range(d + m, 2 * d)]
            rel_rows = [[r[c] for c in order] for r in mixed]
            expected = reference_lagrangian(rel_rows, 2 * d, _relation_pairing(src, tgt))
            assert _accepted(src, tgt, sparse(rel_rows)) == expected
            assert expected == (s_mat is sym)
    # Graphs of differentials and black-box relations, under random port
    # signs, with the currents of the flipped ports negated or not.
    for _ in range(40):
        if rng.random() < 0.5:
            labels = [f"q{k}" for k in range(rng.randint(1, 4))]
            d = len(labels)
            sub = graph_of_differential(rand_form(rng, labels))
            signs = [rng.choice((1, -1)) for _ in range(d)]
            flips = [s < 0 and rng.random() < 0.7 for s in signs]
            rows = _negate_columns(sub.rows, [d + x for x, f in enumerate(flips) if f])
            expected = reference_lagrangian(rows, 2 * d, [(k, d + k, s) for k, s in enumerate(signs)])
            assert _accepted(EMPTY_SPACE, tuple(signs), sparse(rows)) == expected
            seen.add(("graph", all(s > 0 or f for s, f in zip(signs, flips)), expected))
        else:
            rel = blackbox(rand_circuit(rng, max_nodes=4, max_edges=4))
            m, n = len(rel.source), len(rel.target)
            src_signs = [rng.choice((1, -1)) for _ in range(m)]
            tgt_signs = [rng.choice((1, -1)) for _ in range(n)]
            flips = [s < 0 and rng.random() < 0.7 for s in src_signs + tgt_signs]
            at = [*range(m, 2 * m), *range(2 * m + n, 2 * (m + n))]
            rows = _negate_columns(rel.sub.rows, [c for c, f in zip(at, flips) if f])
            src, tgt = tuple(src_signs), tuple(tgt_signs)
            expected = reference_lagrangian(rows, 2 * (m + n), _relation_pairing(src, tgt))
            assert _accepted(src, tgt, sparse(rows)) == expected
            seen.add(("behavior", all(s > 0 or f for s, f in zip(src_signs + tgt_signs, flips)), expected))
    # Every kind of case came up: isotropic of half dimension, broken at one
    # non-adjacent pair, of the wrong dimension, and the conjugated ones.
    assert {(True, True, True), (False, True, False), (True, False, False)} <= seen
    assert {("graph", True, True), ("graph", False, False)} <= seen
    assert {("behavior", True, True), ("behavior", False, False)} <= seen


def test_graph_of_differential_examples():
    zero_form = DirichletForm(["A"])
    assert graph_of_differential(zero_form) == Subspace([{0: ONE}], 2)

    r = F(2)
    q = DirichletForm(["A", "B"], [(("A", "B"), (TWO * r).inv())])
    sub = graph_of_differential(q)
    # Rows span {(p1, p2, (p1-p2)/r, (p2-p1)/r)}.
    expect = Subspace(
        sparse([
            [ONE, ZERO, ONE / r, -(ONE / r)],
            [ZERO, ONE, -(ONE / r), ONE / r],
        ]),
        4,
    )
    assert sub == expect


def test_graph_has_trivial_intersection_with_current_axis():
    rng = random.Random(5)
    for _ in range(15):
        labels = [f"q{k}" for k in range(rng.randint(1, 4))]
        sub = graph_of_differential(rand_form(rng, labels))
        k = len(labels)
        phi_block = [row[:k] for row in sub.rows]
        assert len(rref(sparse(phi_block), k)) == k


def test_ohm_composition():
    def ohm(r):
        q = DirichletForm(["A", "B"], [(("A", "B"), (TWO * F(r)).inv())])
        sub = graph_of_differential(q)
        rel = subspace_as_relation(sub, port_space(2))
        # read the 2-node graph as a 1 -> 1 relation with input current flipped
        rows = [(row[0], -row[2], row[1], row[3]) for row in rel.sub.rows]
        return LagrangianRelation(port_space(1), port_space(1), sparse(rows))

    assert compose_relations(ohm(1), ohm(1)) == ohm(2)
    assert compose_relations(ohm(2), identity_relation(port_space(1))) == ohm(2)
    assert compose_relations(identity_relation(port_space(1)), ohm(2)) == ohm(2)


def test_construction_rejects_non_lagrangian_generators():
    v = port_space(1)
    too_big = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
    ]
    with pytest.raises(ValueError):
        LagrangianRelation(v, v, sparse(too_big))
    non_isotropic = [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
    ]
    with pytest.raises(ValueError):
        LagrangianRelation(v, v, sparse(non_isotropic))


def test_compose_with_a_projected_entry_that_cancels():
    # An open port x and a wire pair y0-y1 that carries current t out of y0
    # and -t out of y1, fed into a node joining both inputs to the output:
    # its current t - t cancels, leaving open ports on both sides.
    first = LagrangianRelation(port_space(1), port_space(2), sparse([
        [ONE, ZERO, ZERO, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ONE, ZERO, ZERO],
        [ZERO, ZERO, ZERO, ZERO, ONE, -ONE],
    ]))
    second = LagrangianRelation(port_space(2), port_space(1), sparse([
        [ONE, ONE, ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ONE, ZERO, ZERO, ONE],
        [ZERO, ZERO, ZERO, ONE, ZERO, ONE],
    ]))
    out = compose_relations(first, second)
    open_ports = LagrangianRelation(port_space(1), port_space(1), sparse([
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
    ]))
    assert out == open_ports
    assert out.sub.sparse == [{0: ONE}, {2: ONE}]


def test_equal_relations_from_reordered_generators_hash_alike():
    rng = random.Random(23)
    for _ in range(10):
        rel = blackbox(rand_circuit(rng, max_nodes=4, max_edges=4))
        rows = [list(r) for r in rel.sub.rows]
        rng.shuffle(rows)
        if len(rows) > 1:
            rows[0] = [x + F(2) * y for x, y in zip(rows[0], rows[1])]
        again = LagrangianRelation(rel.source, rel.target, sparse(rows[::-1]))
        assert again == rel
        assert hash(again) == hash(rel)


def test_compose_interface_mismatch():
    with pytest.raises(InterfaceMismatch):
        compose_relations(
            identity_relation(port_space(1)), identity_relation(port_space(2))
        )


def test_random_composites_stay_lagrangian():
    # Construction re-verifies the Lagrangian property, so it is enough
    # that these composites build without raising.
    rng = random.Random(6)
    for _ in range(25):
        a = rand_corel(rng, rng.randint(0, 3), rng.randint(0, 3))
        b = rand_corel(rng, a.right_size, rng.randint(0, 3))
        out = compose_relations(symplectify(a), symplectify(b))
        half = len(out.source) + len(out.target)
        assert out.sub.dim == half


LADDER_KINDS = [("R", "C"), ("L", "R"), ("RL", "C")]


def _fold_cases(rels, graphs):
    """(first, second, second is a graph) along a fold of the relations,
    each composite taken from ``reference_compose``."""
    acc = rels[0]
    for rel, graph in zip(rels[1:], graphs):
        yield acc, rel, graph
        acc = reference_compose(acc, rel)


def _spans_its_first_columns(rel, cols):
    """True iff ``rel`` has dimension ``cols`` and its rows, cut to their
    first ``cols`` columns, have rank ``cols``: then it is the graph of a map
    out of those columns.  Ranks by ``gauss_jordan`` on the dense rows."""
    return rel.sub.dim == cols and len(gauss_jordan([r[:cols] for r in rel.sub.rows], cols)) == cols


def _shared_rank(second):
    """The rank of the rows of ``second`` cut to its source columns, by
    ``gauss_jordan`` on the dense rows: the count of shared columns that
    are pivots of its echelon rows."""
    b2 = 2 * len(second.source)
    return len(gauss_jordan([r[:b2] for r in second.sub.rows], b2))


def composition_path(first, second):
    """The path ``compose_relations`` must take, judged by ranks alone:
    "graph" when ``second`` is the graph of a map out of the shared space;
    "name" when ``first`` is a name that is the graph of iota = A phi and
    ``second`` is not a graph; "pivoted" when every shared column is a
    pivot of ``second``; and "residual" otherwise."""
    b2 = 2 * len(second.source)
    if _spans_its_first_columns(second, b2):
        return "graph"
    if not first.source and _spans_its_first_columns(first, len(first.target)):
        return "name"
    return "pivoted" if _shared_rank(second) == b2 else "residual"


def _graph_name(rng, k, constant):
    """The name of the graph of a random form's differential on k nodes;
    a low density leaves some nodes isolated."""
    form = rand_form(rng, [f"v{j}" for j in range(k)], rng.choice([0.3, 0.7]), constant)
    return subspace_as_relation(graph_of_differential(form), port_space(k))


def composition_cases():
    """Seeded (name, first, second, path) cases, ``path`` the one that
    ``composition_path`` names.  Where a case is built to take a path, that
    is asserted here."""
    rng = random.Random(41)
    cases = []
    sections = []
    for series, shunt in LADDER_KINDS:
        rels = [blackbox(g) for g in rung_sections(
            ladder_circuit(rng, 5, series, shunt, two_node=True))]
        sections.append(rels[0])
        for k, (a, b, graph) in enumerate(_fold_cases(rels, [True] * 4)):
            cases.append((f"ladder {series}{shunt} {k}", a, b, graph))
        whole = reduce(reference_compose, rels)
        cases.append((f"ladder {series}{shunt} mirror", whole, dagger_relation(whole), True))
    for side in (3, 4):
        rels = [blackbox(g) for g in mesh_columns(mesh_circuit(rng, side), side)]
        # The middle columns map side ports onto side ports; the last narrows to one.
        graphs = [True] * (side - 2) + [False]
        for k, (a, b, graph) in enumerate(_fold_cases(rels, graphs)):
            cases.append((f"mesh {side} {k}", a, b, graph))
    for k, sec in enumerate(sections):
        v = sec.target
        cases.append((f"identity {k}", sec, identity_relation(v), True))
        cases.append((f"twist {k}", sec, twist(v), True))
    for k in range(6):
        # Names 0 -> V, which are not graphs, and random relations, into a section.
        name = blackbox(rand_circuit(rng, max_nodes=4, n_in=0, n_out=2))
        cases.append((f"name {k}", name, sections[k % 3], True))
        other = blackbox(rand_circuit(rng, max_nodes=4, n_out=2))
        cases.append((f"random first {k}", other, sections[k % 3], True))
        cases.append((f"name twist {k}", name, twist(name.target), True))
        # Nothing shared: into the empty relation, or into a name.
        closed = blackbox(rand_circuit(rng, max_nodes=4, n_out=0))
        cases.append((f"b2 = 0, empty {k}", closed, LagrangianRelation(
            EMPTY_SPACE, EMPTY_SPACE, []), True))
        cases.append((f"b2 = 0, name {k}", closed, blackbox(
            rand_circuit(rng, max_nodes=4, n_in=0, n_out=1 + k % 2)), False))
    # b2 rows, but x1 is cut off and y1 is open: one pivot lies in V3.
    near = symplectify(Corelation(2, 2, [[0, 2], [1], [3]]))
    assert len(near.sub.sparse) == 4 and max(map(min, near.sub.sparse)) >= 4
    for k, sec in enumerate(sections):
        cases.append((f"near miss {k}", sec, near, False))
    cases.append(("near miss from a name", name, near, False))
    cases.append(("open into near miss", symplectify(Corelation(2, 2, [[0], [1], [2], [3]])),
                  near, False))
    # Names of graphs of differentials, constant and s-dependent, k = 0 to 5.
    for k in range(12):
        constant = k % 2 == 0
        name = _graph_name(rng, k // 2, constant)
        corel = rand_corel(rng, k // 2, rng.randint(0, 3))
        cases.append((f"graph name {k} into a corelation", name, symplectify(corel), None))
        cases.append((f"graph name {k} into a boundary", name,
                      symplectify(dagger_corelation(rand_corel(rng, rng.randint(0, 3), k // 2))),
                      None))
        if k // 2 == 2:
            cases.append((f"graph name {k} into a section", name, sections[k % 3], True))
    # A random behavior followed by its dagger: a dagger that is no graph
    # pivots on all of V2 and has rows in V3 alone, or leaves V2 columns free.
    for k in range(8):
        rel = blackbox(rand_circuit(rng, max_nodes=5, n_in=1 + k % 3, n_out=1 + k // 3 % 3))
        cases.append((f"mirror {k}", rel, dagger_relation(rel), None))
    # A name whose second row pivots on a current: phi_0 = phi_1, i_0 = i_1.
    wire = symplectify(Corelation(0, 2, [[0, 1]]))
    assert [min(r) for r in wire.sub.sparse] == [0, 2]
    for k in range(3):
        cases.append((f"current pivot {k}", wire, symplectify(rand_corel(rng, 2, 2)), None))
    out = []
    for name, first, second, graph in cases:
        path = composition_path(first, second)
        if graph is not None:
            assert (path == "graph") == graph, name
        if name.startswith("graph name"):
            assert path in ("name", "graph"), name
        if name.startswith("current pivot"):
            assert path in ("residual", "pivoted", "graph"), name
        out.append((name, first, second, path))
    return out


def composition_case_names():
    """The names of ``composition_cases``, in order, with no relation built."""
    names = [f"ladder {series}{shunt} {k}" for series, shunt in LADDER_KINDS
             for k in [0, 1, 2, 3, "mirror"]]
    names += [f"mesh {side} {k}" for side in (3, 4) for k in range(side - 1)]
    names += [f"{case} {k}" for k in range(3) for case in ("identity", "twist")]
    names += [f"{case} {k}" for k in range(6)
              for case in ("name", "random first", "name twist", "b2 = 0, empty", "b2 = 0, name")]
    names += [f"near miss {k}" for k in range(3)]
    names += ["near miss from a name", "open into near miss"]
    for k in range(12):
        names += [f"graph name {k} into a corelation", f"graph name {k} into a boundary"]
        if k // 2 == 2:
            names.append(f"graph name {k} into a section")
    names += [f"mirror {k}" for k in range(8)]
    names += [f"current pivot {k}" for k in range(3)]
    return names


# The cases are built by the fixture, not at import, so that a broken
# relation check fails the tests that use them rather than the whole module.
CASE_NAMES = composition_case_names()


@pytest.fixture(scope="module")
def cases():
    """{name: (first, second, path)} of ``composition_cases``."""
    built = composition_cases()
    assert [name for name, *_ in built] == CASE_NAMES
    return {name: rest for name, *rest in built}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_compose_matches_the_constraint_nullspace(name, cases):
    first, second, path = cases[name]
    assert compose_relations(first, second) == reference_compose(first, second)


def test_compose_through_a_graph_solves_nothing(monkeypatch, cases):
    # No solve whenever every shared column is a pivot of ``second``: a
    # graph of a map, or rows pivoting on all of V2 plus rows in V3 alone.
    # Only a graph name ahead of a second that is not a graph still solves.
    def refuse(rows, ncols, read):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(lagrel, "nullspace", refuse)
    paths = [path for *_, path in cases.values()]
    assert paths.count("graph") >= 40 and paths.count("pivoted") >= 5
    for name, (first, second, path) in cases.items():
        if path in ("graph", "pivoted"):
            assert compose_relations(first, second) == reference_compose(first, second), name
        else:
            with pytest.raises(AssertionError, match="nullspace called"):
                compose_relations(first, second)


def test_compose_from_a_graph_name_solves_one_equation_per_current(monkeypatch, cases):
    # The graph-name path solves k equations, one per current of V2, in the
    # rows of ``second``; the residual path one equation per shared column
    # that is no pivot of ``second``, in the generators of ``first``.
    shapes = []

    def recording(rows, ncols, read):
        shapes.append((len(rows), ncols))
        return nullspace(rows, ncols, read)

    monkeypatch.setattr(lagrel, "nullspace", recording)
    paths = [path for *_, path in cases.values()]
    assert paths.count("name") >= 20 and paths.count("residual") >= 10
    for name, (first, second, path) in cases.items():
        shapes.clear()
        assert compose_relations(first, second) == reference_compose(first, second), name
        b2 = 2 * len(first.target)
        want = {"graph": [], "pivoted": [], "name": [(b2 // 2, second.sub.dim)],
                "residual": [(b2 - _shared_rank(second), first.sub.dim)]}
        assert shapes == want[path], name


def _benchmark_shaped_pairs(rng):
    """(first, second) pairs shaped like the benchmark's compositions: random
    composable behaviors with 0 to 3 shared ports, a random behavior followed
    by its dagger, and seconds that pivot on every shared column and have
    rows in V3 alone (a two-port section, or the identity or twist of V2,
    beside a random name)."""
    pairs = []
    for _ in range(30):
        g1, g2 = rand_composable_pair(rng)
        pairs.append((blackbox(g1), blackbox(g2)))
        rel = blackbox(rand_circuit(rng, max_nodes=7, max_edges=8))
        pairs.append((rel, dagger_relation(rel)))
        first = blackbox(rand_circuit(rng, max_nodes=5, n_out=rng.randint(1, 2)))
        v2 = first.target
        if len(v2) == 2:
            onto = blackbox(rung_sections(ladder_circuit(rng, 1, "RL", "C", two_node=True))[0])
        else:
            onto = rng.choice([identity_relation(v2), twist(v2)])
        name = blackbox(rand_circuit(rng, max_nodes=4, n_in=0, n_out=rng.randint(1, 2)))
        pairs.append((first, tensor_relations(onto, name)))
    return pairs


def test_compose_matches_the_stacked_reference_on_benchmark_shapes():
    rng = random.Random(61)
    seen = Counter()
    for first, second in _benchmark_shaped_pairs(rng):
        path = composition_path(first, second)
        seen[path] += 1
        seen["rows in V3"] += path == "pivoted" and second.sub.dim > 2 * len(second.source)
        assert compose_relations(first, second) == reference_compose(first, second)
    # Empty residuals (a graph, or pivots on all of V2 with rows in V3 alone)
    # and nonempty ones all occur.
    assert seen["graph"] >= 5 and seen["residual"] >= 10
    assert seen["rows in V3"] == seen["pivoted"] >= 20


def test_blackbox_is_a_functor_on_rung_sections():
    rng = random.Random(43)
    for series, shunt in LADDER_KINDS:
        secs = rung_sections(ladder_circuit(rng, 4, series, shunt, two_node=True))
        rels = [blackbox(g) for g in secs]
        for g1, g2, r1, r2 in zip(secs, secs[1:], rels, rels[1:]):
            assert blackbox(compose_circuits(g1, g2)) == compose_relations(r1, r2)
        assert blackbox(reduce(compose_circuits, secs)) == reduce(compose_relations, rels)


def test_tensor_and_dagger_units():
    a = symplectify(rand_corel(random.Random(7), 2, 2))
    empty = identity_relation(EMPTY_SPACE)
    assert tensor_relations(a, empty) == a
    assert tensor_relations(empty, a) == a
    assert dagger_relation(dagger_relation(a)) == a


def test_columns_are_named_by_position():
    # Source port k is x<k> and target port k is y<k>, whatever relations
    # a relation was derived from.
    r = blackbox(circuit(["a", "b"], [("a", "b", impedance("R", 1))], ["a"], ["b"]))
    one_one = ["phi(x0)", "i(x0)", "phi(y0)", "i(y0)"]
    assert dagger_relation(r).column_names() == one_one
    assert compose_relations(r, dagger_relation(r)).column_names() == one_one
    names = tensor_relations(r, r).column_names()
    assert names == [
        "phi(x0)", "phi(x1)", "i(x0)", "i(x1)", "phi(y0)", "phi(y1)", "i(y0)", "i(y1)"]
    assert len(set(names)) == len(names)
    g = circuit(["a", "b", "c"], [("a", "c", impedance("R", 1)), ("b", "c", impedance("C", 2))],
                ["a", "b"], ["c"])
    assert blackbox(g).column_names() == [
        "phi(x0)", "phi(x1)", "i(x0)", "i(x1)", "phi(y0)", "i(y0)"]


def test_dagger_of_ohm_is_ohm():
    r = F(2)
    q = DirichletForm(["A", "B"], [(("A", "B"), (TWO * r).inv())])
    rel_rows = [
        (row[0], -row[2], row[1], row[3])
        for row in graph_of_differential(q).rows
    ]
    ohm = LagrangianRelation(port_space(1), port_space(1), sparse(rel_rows))
    assert dagger_relation(ohm) == ohm


def _halves(corel):
    """The potential rows and the current rows of ``symplectify(corel)``,
    each in pivot order: a row pivots on a potential column (before the
    source currents, or among the target potentials) or on a current."""
    m, n = corel.left_size, corel.right_size
    pots, curs = [], []
    for row in symplectify(corel).sub.sparse:
        p = min(row)
        (pots if p < m or 2 * m <= p < 2 * m + n else curs).append(row)
    return pots, curs


def test_symplectify_identity_examples():
    idc = identity_corelation(1)
    pots, curs = _halves(idc)
    assert Subspace(pots, 4) == Subspace([{0: ONE, 2: ONE}], 4)
    assert Subspace(curs, 4) == Subspace([{1: ONE, 3: ONE}], 4)
    assert symplectify(idc) == identity_relation(port_space(1))


def test_symplectify_block_examples():
    merge = Corelation(2, 1, [(0, 1, 2)])
    pots, curs = _halves(merge)
    # potentials equal across the block: phi_x0 = phi_x1 = phi_y0
    assert Subspace(pots, 6) == Subspace([{0: ONE, 1: ONE, 4: ONE}], 6)
    # currents split: lambda_x0 + lambda_x1 = lambda_y0
    curs = Subspace(curs, 6)
    for row in curs.rows:
        assert row[2] + row[3] == row[5]
    assert curs.dim == 2


def test_symplectify_dimension_law():
    rng = random.Random(8)
    for _ in range(20):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        alpha = rand_corel(rng, m, n)
        assert symplectify(alpha).sub.dim == m + n


def test_current_generators_match_the_constraint_nullspace():
    # symplectify pairs each further port of a block with the block's first
    # port; the reference solves the block constraints.
    rng = random.Random(31)
    cases = [Corelation(0, 0, [])]
    cases += [rand_corel(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(80)]
    seen = set()
    for corel in cases:
        m, n = corel.left_size, corel.right_size
        if m == 0 or n == 0:
            seen.add("empty side")
        for block in corel.blocks:
            if len(block) == 1:
                seen.add("singleton")
            elif block[-1] < m:
                seen.add("all X")
            elif block[0] >= m:
                seen.add("all Y")
            else:
                seen.add("mixed")
        expected = Subspace(reference_current_generators(corel), 2 * (m + n))
        assert Subspace(_halves(corel)[1], 2 * (m + n)) == expected
        assert expected.dim == m + n - len(corel.blocks)
    assert seen == {"empty side", "singleton", "all X", "all Y", "mixed"}


def _compose_linear(a_rows, b_rows, m, k, n):
    """Oracle composition of plain linear relations given as generators."""
    constraint = []
    for col in range(k):
        row = [g[m + col] for g in a_rows]
        row += [-h[col] if h[col] else ZERO for h in b_rows]
        constraint.append(row)
    out = []
    width = len(a_rows) + len(b_rows)
    for vec in dense(nullspace(sparse(constraint), width, range(width)), width):
        alpha, beta = vec[: len(a_rows)], vec[len(a_rows) :]
        row = []
        for c in range(m):
            acc = ZERO
            for coef, g in zip(alpha, a_rows):
                acc = acc + coef * g[c]
            row.append(acc)
        for c in range(n):
            acc = ZERO
            for coef, h in zip(beta, b_rows):
                acc = acc + coef * h[k + c]
            row.append(acc)
        out.append(row)
    return Subspace(sparse(out), m + n)


def _phi_part(corel):
    m, n = corel.left_size, corel.right_size
    cols = [*range(m), *range(2 * m, 2 * m + n)]
    return [[row.get(c, ZERO) for c in cols] for row in _halves(corel)[0]]


def _cur_part(corel):
    m, n = corel.left_size, corel.right_size
    cols = [*range(m, 2 * m), *range(2 * m + n, 2 * (m + n))]
    return [[row.get(c, ZERO) for c in cols] for row in _halves(corel)[1]]


def test_phi_and_current_functors_compose():
    rng = random.Random(9)
    for _ in range(25):
        m, k, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_corel(rng, m, k), rand_corel(rng, k, n)
        ab = compose_corelations(a, b)
        lhs = _compose_linear(_phi_part(a), _phi_part(b), m, k, n)
        assert lhs == Subspace(sparse(_phi_part(ab)), m + n)
        lhs_i = _compose_linear(_cur_part(a), _cur_part(b), m, k, n)
        assert lhs_i == Subspace(sparse(_cur_part(ab)), m + n)


def test_symplectification_functoriality():
    rng = random.Random(10)
    for _ in range(30):
        m, k, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = rand_corel(rng, m, k), rand_corel(rng, k, n)
        lhs = compose_relations(symplectify(a), symplectify(b))
        rhs = symplectify(compose_corelations(a, b))
        assert lhs == rhs
        assert dagger_relation(symplectify(a)) == symplectify(dagger_corelation(a))


def test_twist_examples():
    v = port_space(2)
    tw = twist(v)
    back = twist(conj(v))
    assert compose_relations(tw, back) == identity_relation(v)
    # S(cap) equals the LagrRel cap with a twist on the second leg
    v1 = port_space(1)
    s_cap = symplectify(cap_corelation(1))
    book = compose_relations(
        tensor_relations(identity_relation(v1), twist(v1)), cap_relation(v1)
    )
    assert s_cap.sub == book.sub
    assert s_cap.source == book.source


def test_snake_identities():
    for n in (1, 2, 3):
        v = port_space(n)
        left = compose_relations(
            tensor_relations(identity_relation(v), cup_relation(v)),
            tensor_relations(cap_relation(v), identity_relation(v)),
        )
        assert left == identity_relation(v)
        w = conj(v)
        right = compose_relations(
            tensor_relations(cup_relation(v), identity_relation(w)),
            tensor_relations(identity_relation(w), cap_relation(v)),
        )
        assert right == identity_relation(w)


def test_symplectification_of_functions():
    # S(f) pulls potentials back and pushes currents forward.
    rng = random.Random(13)
    for _ in range(20):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        f = [rng.randrange(n) for _ in range(m)]
        sf = symplectify(corel_from_cospan(f, range(n)))
        rows = []
        width = 2 * (m + n)
        for y in range(n):
            row = [ZERO] * width
            row[2 * m + y] = ONE
            for x in range(m):
                if f[x] == y:
                    row[x] = ONE
            rows.append(row)
        for x in range(m):
            row = [ZERO] * width
            row[m + x] = ONE
            row[2 * m + n + f[x]] = ONE
            rows.append(row)
        expected = LagrangianRelation(port_space(m), port_space(n), sparse(rows))
        assert sf == expected


def test_pushforward_lagrangian_examples():
    labels = ("A", "B")
    q = DirichletForm(labels, [(("A", "B"), F(Fraction(1, 2)))])
    sub = graph_of_differential(q)
    same = pushforward_lagrangian({"A": "A", "B": "B"}, labels, sub, labels)
    assert same == sub

    collapsed = pushforward_lagrangian({"A": "p", "B": "p"}, labels, sub, ("p",))
    assert collapsed == Subspace([{0: ONE}], 2)


def test_pushforward_naturality_with_forms():
    rng = random.Random(11)
    targets = ["u", "v", "w"]
    for _ in range(20):
        labels = [f"q{k}" for k in range(rng.randint(1, 4))]
        q = rand_form(rng, labels)
        f = {n: rng.choice(targets) for n in labels}
        codomain = tuple(sorted(set(f.values())))
        lhs = pushforward_lagrangian(f, labels, graph_of_differential(q), codomain)
        rhs = graph_of_differential(pushforward_form(f, q, codomain))
        assert lhs == rhs


# -- closed forms against rref ----------------------------------------------------
#
# symplectify, graph_of_differential, tensor_relations and the composite of
# two graphs of maps write their reduced rows down directly.  Each must equal
# rref of the generators it used to reduce, row for row.


def _reference_symplectify(corel):
    """symplectify through rref: one potential generator per block, the
    indicator of its potentials, and the current generators solved from the
    block constraints."""
    m, n = corel.left_size, corel.right_size
    phi = [{k if k < m else m + k: ONE for k in block} for block in corel.blocks]
    cur = reference_current_generators(corel)
    width = 2 * (m + n)
    return (Subspace(phi, width), Subspace(cur, width),
            LagrangianRelation(port_space(m), port_space(n), phi + cur))


def test_symplectify_rows_equal_rref_of_its_generators():
    rng = random.Random(47)
    cases = [(Corelation(0, 0, []), "random")]
    cases += [(rand_corel(rng, rng.randint(0, 4), rng.randint(0, 4)), "random") for _ in range(150)]
    for _ in range(50):
        # The boundary of a cospan, as cospan_relation takes it: every node is
        # a block of its own on X, some nodes carry no port.
        k = rng.randint(1, 5)
        ports = [rng.randrange(k) for _ in range(rng.randint(0, 4))]
        cases.append((corel_from_cospan(range(k), ports), "portless" if set(ports) != set(range(k)) else "cospan"))
    seen = set()
    for corel, kind in cases:
        m, n = corel.left_size, corel.right_size
        seen.add(kind)
        if m == 0:
            seen.add("empty X")
        if n == 0:
            seen.add("empty Y")
        for block in corel.blocks:
            if len(block) == 1:
                seen.add("singleton")
            elif block[0] < m <= block[-1]:
                seen.add("across X and Y")
        pots, curs, rel = _reference_symplectify(corel)
        assert _halves(corel) == (pots.sparse, curs.sparse)
        assert symplectify(corel).sub.sparse == rel.sub.sparse
        assert symplectify(corel) == rel
    assert seen == {"random", "portless", "cospan", "empty X", "empty Y", "singleton",
                    "across X and Y"}


def test_graph_of_differential_rows_equal_rref_of_its_generators():
    rng = random.Random(48)
    for k in range(60):
        labels = [f"v{j}" for j in range(k % 6)]
        form = rand_form(rng, labels, rng.choice([0.3, 0.7, 1.0]), constant=k % 2 == 0)
        rows = []
        for x in labels:
            indicator = {y: ONE if y == x else ZERO for y in labels}
            grad = gradient(form, indicator)
            rows.append([indicator[y] for y in labels] + [grad[y] for y in labels])
        assert graph_of_differential(form).sparse == rref(sparse(rows), 2 * len(labels))


def _reference_tensor(first, second):
    """tensor_relations through rref of the embedded generators."""
    src, tgt = first.source + second.source, first.target + second.target
    m1, m, n1, n = len(first.source), len(src), len(first.target), len(tgt)

    def cols(xs, ys):
        return [*xs, *(m + x for x in xs), *(2 * m + y for y in ys), *(2 * m + n + y for y in ys)]

    rows = [embed(r, cols(range(m1), range(n1))) for r in first.sub.sparse]
    rows += [embed(r, cols(range(m1, m), range(n1, n))) for r in second.sub.sparse]
    return rows, LagrangianRelation(src, tgt, rows)


def _relation_pool(rng):
    pool = [LagrangianRelation(EMPTY_SPACE, EMPTY_SPACE, []), twist(port_space(2)),
            identity_relation(port_space(1))]
    for _ in range(12):
        pool.append(blackbox(rand_circuit(rng, max_nodes=4, max_edges=4)))
        pool.append(symplectify(rand_corel(rng, rng.randint(0, 3), rng.randint(0, 3))))
    return pool


def test_tensor_rows_equal_rref_of_the_embedded_rows():
    rng = random.Random(49)
    pool = _relation_pool(rng)
    interleaved = 0
    for _ in range(120):
        a, b = rng.choice(pool), rng.choice(pool)
        rows, expected = _reference_tensor(a, b)
        got = tensor_relations(a, b)
        assert got.sub.sparse == expected.sub.sparse
        assert got == expected
        interleaved += [min(r) for r in rows] != sorted(min(r) for r in rows)
    # Most sums need their rows merged, not just concatenated.
    assert interleaved >= 60


def _graph_pairs(cases):
    """(first, second) from ``cases`` where both are graphs of maps."""
    return [(first, second) for first, second, path in cases.values()
            if path == "graph" and _spans_its_first_columns(first, 2 * len(first.source))]


def test_graph_composites_equal_rref_of_their_rows(cases):
    rng = random.Random(50)
    pairs = _graph_pairs(cases)
    for series, shunt in LADDER_KINDS:
        rels = [blackbox(g) for g in rung_sections(
            ladder_circuit(rng, rng.randint(4, 6), series, shunt, two_node=True))]
        acc = rels[0]
        for rel in rels[1:]:
            pairs.append((acc, rel))
            acc = compose_relations(acc, rel)
        pairs.append((acc, dagger_relation(acc)))
    assert len(pairs) >= 30
    for first, second in pairs:
        assert _spans_its_first_columns(first, 2 * len(first.source))
        assert _spans_its_first_columns(second, 2 * len(second.source))
        expected = reference_compose(first, second)
        got = compose_relations(first, second)
        assert got.sub.sparse == expected.sub.sparse
        assert got == LagrangianRelation(first.source, second.target,
                                         lagrel.composite_rows(first, second))


def test_closed_forms_call_no_rref(monkeypatch, cases):
    def refuse(rows, ncols):
        raise AssertionError("rref called")

    rng = random.Random(51)
    corels = [rand_corel(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(30)]
    pool = _relation_pool(rng)
    tensor_pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(30)]
    graph_pairs = _graph_pairs(cases)
    assert len(graph_pairs) >= 15
    forms = [rand_form(rng, [f"v{j}" for j in range(k % 5)]) for k in range(10)]
    expected = ([_reference_symplectify(c)[2] for c in corels],
                [_reference_tensor(a, b)[1] for a, b in tensor_pairs],
                [reference_compose(a, b) for a, b in graph_pairs])
    monkeypatch.setattr(lagrel, "rref", refuse)
    got = ([symplectify(c) for c in corels],
           [tensor_relations(a, b) for a, b in tensor_pairs],
           [compose_relations(a, b) for a, b in graph_pairs])
    graphs = [graph_of_differential(q) for q in forms]
    # Every other path still canonicalizes.
    with pytest.raises(AssertionError, match="rref called"):
        dagger_relation(pool[3])
    with pytest.raises(AssertionError, match="rref called"):
        compose_relations(*next((a, b) for a, b, path in cases.values() if path == "residual"))
    monkeypatch.undo()
    assert got == expected
    assert graphs == [Subspace(g.sparse, g.ncols) for g in graphs]


def test_reduced_rows_that_are_not_lagrangian_are_refused():
    # symplectify of one wire x0 -- y0 with its current row's sign flipped:
    # reduced, of half dimension, but omega(phi row, iota row) = -2.
    v = port_space(1)
    flipped = [{0: ONE, 2: ONE}, {1: ONE, 3: -ONE}]
    with pytest.raises(ValueError, match="Lagrangian"):
        LagrangianRelation(v, v, flipped, _reduced=True)
    with pytest.raises(ValueError, match="Lagrangian"):
        LagrangianRelation(v, v, flipped, _reduced=True)
    # Isotropic but of the wrong dimension.
    with pytest.raises(ValueError, match="Lagrangian"):
        LagrangianRelation(v, v, [{0: ONE, 2: ONE}], _reduced=True)
    assert LagrangianRelation(v, v, [{0: ONE, 2: ONE}, {1: ONE, 3: ONE}],
                              _reduced=True) == identity_relation(v)


def test_structural_caches_are_bounded():
    assert lagrel._partners.cache_info().maxsize is not None
