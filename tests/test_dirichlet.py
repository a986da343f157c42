import random
from fractions import Fraction

import pytest

from blackbox import dirichlet
from blackbox.behavior import blackbox, blackbox_fast
from blackbox.circuits import circuit, compose_circuits
from blackbox.dirichlet import (
    DirichletForm,
    compose_forms,
    eliminate_node,
    extended_power_functional,
    gradient,
    power_functional,
    pushforward_form,
)
from blackbox.errors import EngineError, MissingAssignment, NodeNotInSupport
from blackbox.field import ONE, TWO, ZERO, RatFunc, from_rat, impedance, s

from util import (
    NonConstantCoefficients,
    constant_value,
    evaluate,
    ladder_circuit,
    markov_check_real,
    mesh_circuit,
    rand_circuit,
    rand_form,
    rand_rat,
    reference_eliminate_interior,
    sample_markov_property,
    workload_circuits,
)

half = from_rat(Fraction(1, 2))


def series(r_ab=1, r_bc=1):
    return circuit(
        ["A", "B", "C"],
        [("A", "B", impedance("R", r_ab)), ("B", "C", impedance("R", r_bc))],
        ["A"],
        ["C"],
    )


def test_extended_power_functional_examples():
    g = circuit(["A", "B"], [("A", "B", impedance("R", 1))], ["A"], ["B"])
    p = extended_power_functional(g)
    assert p.coefficient("A", "B") == half

    p2 = extended_power_functional(series(1, 2))
    assert p2.coefficient("A", "B") == half
    assert p2.coefficient("B", "C") == from_rat(Fraction(1, 4))

    rlc = circuit(
        ["a", "b", "c", "d"],
        [
            ("a", "b", impedance("R", 2)),
            ("b", "c", impedance("L", 3)),
            ("c", "d", impedance("C", Fraction(1, 2))),
        ],
    )
    p3 = extended_power_functional(rlc)
    assert p3.coefficient("a", "b") == from_rat(Fraction(1, 4))
    assert p3.coefficient("b", "c") == RatFunc((Fraction(1, 6),), (0, 1))
    assert p3.coefficient("c", "d") == s / from_rat(4)


def test_extended_power_functional_matches_the_product_route_on_the_workloads():
    # Each edge's coefficient comes from field.half_inverse; the form must be
    # the one built from (TWO * z).inv(), stored pair for stored pair (RatFunc
    # equality compares the canonical n and d).
    for name, g in workload_circuits(1):
        edges = [(a, b, z) for a, b, z in g.graph.edges if a != b]
        want = DirichletForm(g.graph.nodes, [((a, b), (TWO * z).inv()) for a, b, z in edges])
        assert extended_power_functional(g) == want, name


def test_self_loops_contribute_nothing():
    g = circuit(["A"], [("A", "A", impedance("R", 3))])
    assert extended_power_functional(g) == DirichletForm(["A"])
    # Nor does a pair whose two entries cancel.
    cancelled = DirichletForm(["A", "B"], [(("A", "B"), half), (("B", "A"), -half)])
    assert cancelled == DirichletForm(["A", "B"])


def test_extended_power_functional_equals_the_checking_constructor():
    # rand_circuit draws self-loops and parallel edges.  The form is built
    # without the constructor's checks; it must equal the constructor's form,
    # the order of its stored pairs included.
    rng = random.Random(2801)
    loops = parallel = 0
    for _ in range(300):
        g = rand_circuit(rng)
        edges = [(a, b, z) for a, b, z in g.graph.edges if a != b]
        loops += len(g.graph.edges) - len(edges)
        parallel += len(edges) - len({frozenset((a, b)) for a, b, _ in edges})
        want = DirichletForm(g.graph.nodes, [((a, b), (TWO * z).inv()) for a, b, z in edges])
        got = extended_power_functional(g)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)
    assert loops >= 100 and parallel >= 100
    # Parallel edges of opposite impedance cancel, and a later one re-adds the pair.
    r = impedance("R", 2)
    edges = [("A", "B", r), ("B", "A", -r), ("A", "C", r), ("A", "B", TWO * r)]
    g = circuit(["A", "B", "C"], edges)
    want = DirichletForm(g.graph.nodes, [((a, b), (TWO * z).inv()) for a, b, z in edges])
    assert extended_power_functional(g) == want
    assert list(extended_power_functional(g).coeffs) == [("A", "C"), ("A", "B")]


def test_evaluate_examples():
    q = DirichletForm(["A", "B"], [(("A", "B"), from_rat(Fraction(1, 4)))])
    const = {"A": from_rat(5), "B": from_rat(5)}
    assert evaluate(q, const) == ZERO
    assert evaluate(q, {"A": ONE, "B": ZERO}) == from_rat(Fraction(1, 4))
    p = extended_power_functional(series())
    val = evaluate(p, {"A": ONE, "B": half, "C": ZERO})
    assert val == from_rat(Fraction(1, 4))


def test_gradient_examples():
    r = from_rat(3)
    q = DirichletForm(["A", "B"], [(("A", "B"), (TWO * r).inv())])
    psi = {"A": s, "B": ONE}
    g = gradient(q, psi)
    assert g["A"] == (s - ONE) / r
    assert g["B"] == (ONE - s) / r
    const = gradient(q, {"A": ONE, "B": ONE})
    assert const["A"] == ZERO and const["B"] == ZERO
    with pytest.raises(MissingAssignment, match="'B'"):
        gradient(q, {"A": ONE})


def test_gradient_sums_to_zero_on_components():
    rng = random.Random(5)
    for _ in range(20):
        labels = [f"m{k}" for k in range(rng.randint(2, 5))]
        q = rand_form(rng, labels)
        psi = {n: from_rat(rand_rat(rng)) * (s if rng.randint(0, 1) else ONE) for n in labels}
        g = gradient(q, psi)
        total = ZERO
        for n in labels:
            total = total + g[n]
        assert total == ZERO


def test_gradient_matches_exact_central_differences():
    # The form is quadratic, so the central difference is exact over Q.
    rng = random.Random(6)
    for _ in range(20):
        labels = ["a", "b", "c", "d"]
        q = rand_form(rng, labels, constant=True)
        psi = {n: from_rat(rand_rat(rng)) for n in labels}
        g = gradient(q, psi)
        h = from_rat(Fraction(1, 7))
        for n in labels:
            up = dict(psi)
            dn = dict(psi)
            up[n] = psi[n] + h
            dn[n] = psi[n] - h
            diff = (evaluate(q, up) - evaluate(q, dn)) / (TWO * h)
            assert diff == g[n]


def test_eliminate_node_examples():
    p = extended_power_functional(series())
    q = eliminate_node(p, "B")
    assert q == DirichletForm(["A", "C"], [(("A", "C"), from_rat(Fraction(1, 4)))])

    iso = DirichletForm(["A", "B", "Z"], [(("A", "B"), half)])
    assert eliminate_node(iso, "Z") == DirichletForm(["A", "B"], [(("A", "B"), half)])

    star = DirichletForm(
        ["n1", "n2", "n3", "s0"],
        [(("n1", "s0"), ONE), (("n2", "s0"), ONE), (("n3", "s0"), ONE)],
    )
    third = from_rat(Fraction(1, 3))
    mesh = eliminate_node(star, "s0")
    assert mesh == DirichletForm(
        ["n1", "n2", "n3"],
        [(("n1", "n2"), third), (("n1", "n3"), third), (("n2", "n3"), third)],
    )
    with pytest.raises(NodeNotInSupport):
        eliminate_node(star, "nope")


def _eliminated_by_definition(q, n):
    """``eliminate_node``'s closed form, built by the checking constructor:
    the coefficients away from n plus one fill c_in c_jn / sum_k c_kn per
    pair of n's neighbours.  None if n's coefficients sum to zero."""
    incident = {j if i == n else i: c for (i, j), c in q.coeffs.items() if n in (i, j)}
    rest = [(pair, c) for pair, c in q.coeffs.items() if n not in pair]
    mass = sum(incident.values(), ZERO)
    if incident and mass.is_zero():
        return None
    neighbors = sorted(incident)
    fills = [((i, j), incident[i] * incident[j] / mass)
             for a, i in enumerate(neighbors) for j in neighbors[a + 1:]]
    return DirichletForm([x for x in q.support if x != n], rest + fills)


def test_eliminate_node_equals_its_definition():
    # Seeded forms with signed constant and s-dependent coefficients.  Some
    # draws plant a stored pair equal to minus its fill, so that the pair
    # cancels, and some a last coefficient that makes n massless.
    rng = random.Random(52)
    weights = [from_rat(Fraction(k, d)) for k in (-2, -1, 1, 3) for d in (1, 2)]
    weights += [s, -s, s.inv(), -s.inv(), s + ONE, -(s + ONE), s / (s + TWO)]
    seen = set()
    for _ in range(400):
        labels = [f"v{x}" for x in range(rng.randint(1, 7))]
        pairs = [(a, b) for x, a in enumerate(labels) for b in labels[x + 1:]]
        density = rng.choice([0.3, 0.6, 0.9])
        coeffs = {pair: rng.choice(weights) for pair in pairs if rng.random() < density}
        n = rng.choice(labels)
        incident = sorted(pair for pair in coeffs if n in pair)
        plant = rng.random()
        if len(incident) > 1 and plant < 0.2:
            coeffs[incident[-1]] = -sum((coeffs[p] for p in incident[:-1]), ZERO)
        elif len(incident) > 1 and plant < 0.5:
            mass = sum((coeffs[p] for p in incident), ZERO)
            if not mass.is_zero():
                (a, b), (c, d) = rng.sample(incident, 2)
                i, j = sorted({a, b, c, d} - {n})
                coeffs[i, j] = -(coeffs[a, b] * coeffs[c, d] / mass)
        q = DirichletForm(labels, list(coeffs.items()))
        want = _eliminated_by_definition(q, n)
        if want is None:
            with pytest.raises(EngineError, match=f"node {n!r} cannot be eliminated"):
                eliminate_node(q, n)
            seen.add("refused")
            continue
        assert eliminate_node(q, n) == want
        kept = [pair for pair in q.coeffs if n not in pair]
        seen |= {"isolated" if len(kept) == len(q.coeffs) else "",
                 "created" if any(pair not in q.coeffs for pair in want.coeffs) else "",
                 "cancelled" if any(pair not in want.coeffs for pair in kept) else "",
                 "summed" if any(want.coeffs.get(pair, q.coeffs[pair]) != q.coeffs[pair]
                                 for pair in kept) else "",
                 "s-dependent" if any(len(c.n) > 1 or len(c.d) > 1
                                      for c in want.coeffs.values()) else ""}
    assert seen - {""} == {"refused", "isolated", "created", "cancelled", "summed", "s-dependent"}


def test_kron_refuses_a_node_whose_coefficients_cancel():
    # Minimizing over u leaves the constraint phi_a = phi_b, not a form on
    # {a, b}; dropping u would give Q = 0.
    q = DirichletForm(["a", "u", "b"], [(("a", "u"), ONE), (("u", "b"), -ONE)])
    with pytest.raises(EngineError, match="node 'u'"):
        power_functional(q, ["a", "b"])
    with pytest.raises(EngineError, match="node 'u'"):
        eliminate_node(q, "u")
    # A node with no coefficients at all is still dropped.
    assert power_functional(DirichletForm(["a", "u"]), ["a"]) == DirichletForm(["a"])


def test_star_mesh_agrees_with_kirchhoff_oracle():
    # Black-box the resistor star and the formula-built mesh: same behavior.
    from blackbox.behavior import oracle_behavior

    star = circuit(
        ["a", "b", "c", "z"],
        [("a", "z", impedance("R", 2)), ("b", "z", impedance("R", 2)),
         ("c", "z", impedance("R", 2))],
        ["a", "b"],
        ["c"],
    )
    mesh_form = eliminate_node(extended_power_functional(star), "z")
    mesh_edges = [
        (i, j, (TWO * c).inv()) for (i, j), c in mesh_form.coeffs.items()
    ]
    mesh = circuit(["a", "b", "c"], mesh_edges, ["a", "b"], ["c"])
    assert oracle_behavior(star) == oracle_behavior(mesh)


def test_power_functional_boundary_cases():
    p = extended_power_functional(series())
    assert power_functional(p, ["A", "B", "C"]) == p
    assert power_functional(p, ["A", "C"]) == eliminate_node(p, "B")
    with pytest.raises(NodeNotInSupport):
        power_functional(p, ["A", "X"])


def test_elimination_order_independence():
    rng = random.Random(8)
    for _ in range(15):
        labels = [f"k{k}" for k in range(6)]
        q = rand_form(rng, labels, density=0.6)
        boundary = labels[:2]
        interior = labels[2:]
        reference = power_functional(q, boundary)
        for _ in range(4):
            order = interior[:]
            rng.shuffle(order)
            out = q
            for n in order:
                out = eliminate_node(out, n)
            assert out == reference


def _ladder_form(rungs):
    """The power functional of n0 - n1 - ... - nN in series, each of n1..nN
    shunted to gnd; the terminals are n0 and gnd."""
    labels = ["gnd"] + [f"n{k}" for k in range(rungs + 1)]
    edges = [(f"n{k}", f"n{k + 1}", impedance("R", 1)) for k in range(rungs)]
    edges += [(f"n{k + 1}", "gnd", impedance("C", 1)) for k in range(rungs)]
    return extended_power_functional(circuit(labels, edges, ["n0"], ["gnd"]))


def _fill(before, after):
    return sum(1 for pair in after.coeffs if pair not in before.coeffs)


def test_min_degree_order_keeps_ladder_fill_low():
    for rungs in (2, 5, 9):
        p = _ladder_form(rungs)
        q, steps = dirichlet._eliminate_interior(p, ["n0", "gnd"])
        # Replay the kernel's order one eliminate_node at a time.
        fills, replay = [], p
        for n, _ in steps:
            out = eliminate_node(replay, n)
            fills.append(_fill(replay, out))
            replay = out
        assert len(fills) == rungs and sum(fills) <= 1
        assert replay == q
        # Lexicographic order joins n0 to every later rung: N new pairs.
        lex, lex_fill = p, 0
        for n in sorted(f"n{k}" for k in range(1, rungs + 1)):
            out = eliminate_node(lex, n)
            lex_fill += _fill(lex, out)
            lex = out
        assert lex_fill == rungs and lex == q


def _extension_from_steps(boundary, psi, steps):
    """Extend boundary data to the whole support so interior gradients
    vanish, by back-substitution over the steps of ``_eliminate_interior``.

    Interior potentials are the weighted averages of their neighbours at the
    moment of elimination, back-substituted in reverse; nodes with no
    incident mass get potential zero (the vanishing convention for
    components that do not touch the boundary).
    """
    phi = {n: psi[n] for n in boundary}
    for n, incident in reversed(steps):
        denom = sum(incident.values(), ZERO)
        phi[n] = ZERO if denom.is_zero() else sum(
            (c * phi[k] for k, c in incident.items()), ZERO) / denom
    return phi


def _extension(form, boundary, psi):
    return _extension_from_steps(boundary, psi, dirichlet._eliminate_interior(form, boundary)[1])


def test_kron_kernel_equals_the_per_node_elimination():
    # The kernel against the parent's one-eliminate_node-per-step loop
    # (``reference_eliminate_interior``): same order, same incident
    # coefficients per step, the same reduced form, and the same form from a
    # chain in sorted label order.
    rng = random.Random(41)
    seen = set()
    for k in range(120):
        labels = [f"v{x}" for x in range(rng.randint(1, 8))]
        constant = k % 2 == 0
        q = rand_form(rng, labels, density=rng.choice([0.3, 0.6, 0.9]), constant=constant)
        pick = k % 4
        if pick == 0:
            boundary = [rng.choice(labels)]
        elif pick == 1:
            boundary = list(labels)
        else:
            boundary = rng.sample(labels, rng.randint(1, len(labels)))
        reduced, steps = dirichlet._eliminate_interior(q, boundary)
        ref, ref_steps = reference_eliminate_interior(q, boundary)
        assert reduced == ref and steps == ref_steps
        assert reduced == DirichletForm(reduced.support, reduced.coeffs.items())
        chain = q
        for n in sorted(set(labels) - set(boundary)):
            chain = eliminate_node(chain, n)
        assert chain == reduced
        # The back-substituted potentials leave no current at an interior node.
        psi = {n: from_rat(rand_rat(rng)) * (s if rng.randint(0, 1) else ONE) for n in boundary}
        grad = gradient(q, _extension_from_steps(boundary, psi, steps))
        assert all(grad[n] == ZERO for n in set(labels) - set(boundary))
        touched = {x for pair in q.coeffs for x in pair}
        seen |= {
            "constant" if constant else "s-dependent",
            "isolated interior node" if set(labels) - set(boundary) - touched else "",
            "fill" if any(pair not in q.coeffs for pair in reduced.coeffs) else "",
            "one boundary node" if len(set(boundary)) == 1 < len(labels) else "",
            "series step" if any(len(incident) == 2 for _, incident in steps) else "",
        }
        if set(boundary) == set(labels):
            assert reduced is q and steps == []
            seen.add("whole support")
    assert seen - {""} == {"constant", "s-dependent", "isolated interior node", "fill",
                           "one boundary node", "whole support", "series step"}


def test_kron_kernel_cancellations_match_eliminate_node():
    # A fill that cancels a stored pair drops it: u's fill 1/2 meets -1/2.
    q = DirichletForm(["a", "b", "u"], [(("a", "b"), -half), (("a", "u"), ONE),
                                        (("b", "u"), ONE)])
    assert power_functional(q, ["a", "b"]) == eliminate_node(q, "u") == DirichletForm(["a", "b"])
    # A node whose coefficients cancel only after an earlier step's fill:
    # eliminating u gives a-v the coefficient 1/2, against v-b's -1/2.
    q = DirichletForm(["a", "b", "u", "v"], [(("a", "u"), ONE), (("u", "v"), ONE),
                                             (("b", "v"), -half)])
    with pytest.raises(EngineError) as kernel:
        power_functional(q, ["a", "b"])
    with pytest.raises(EngineError) as chain:
        eliminate_node(eliminate_node(q, "u"), "v")
    assert str(kernel.value) == str(chain.value) == (
        "node 'v' cannot be eliminated: its coefficients sum to zero")


def test_series_step_refuses_opposite_coefficients_like_eliminate_node():
    # u has two coefficients, s/(s+1) and its negative: the kernel's series
    # step and eliminate_node refuse it with one message, as does a node of
    # degree 3 whose coefficients cancel.
    c = s / (s + ONE)
    for q in (DirichletForm(["a", "b", "u"], [(("a", "u"), c), (("b", "u"), -c)]),
              DirichletForm(["a", "b", "u"], [(("a", "u"), c), (("b", "u"), -c),
                                              (("a", "b"), ONE)]),
              DirichletForm(["a", "b", "d", "u"], [(("a", "u"), c), (("b", "u"), -TWO * c),
                                                   (("d", "u"), c)])):
        with pytest.raises(EngineError) as kernel:
            power_functional(q, [x for x in q.support if x != "u"])
        with pytest.raises(EngineError) as chain:
            eliminate_node(q, "u")
        assert str(kernel.value) == str(chain.value) == (
            "node 'u' cannot be eliminated: its coefficients sum to zero")


def test_series_fill_that_cancels_a_stored_pair_drops_it():
    # u joins a and b through s and 1/s, in series s/(s^2+1); the stored
    # a-b coefficient is its negative, so the pair is gone, and b-d stays.
    q = DirichletForm(["a", "b", "d", "u"], [
        (("a", "u"), s), (("b", "u"), s.inv()), (("a", "b"), -s / (s * s + ONE)),
        (("b", "d"), ONE)])
    reduced, steps = dirichlet._eliminate_interior(q, ["a", "b", "d"])
    assert [(n, len(incident)) for n, incident in steps] == [("u", 2)]
    assert reduced == eliminate_node(q, "u") == DirichletForm(
        ["a", "b", "d"], [(("b", "d"), ONE)])
    assert reduced.coeffs == {("b", "d"): ONE}
    # Without the stored pair the series fill lands on it as a new pair.
    q = DirichletForm(["a", "b", "u"], [(("a", "u"), s), (("b", "u"), s.inv())])
    assert power_functional(q, ["a", "b"]).coeffs == {("a", "b"): s / (s * s + ONE)}


def test_kron_kernel_equals_the_reference_route_on_large_circuits():
    # The kernel against a chain in sorted label order through
    # eliminate_node, and blackbox against blackbox_fast.  The ladder's gnd
    # is a terminal: eliminated first, as "gnd" sorts, it would join every
    # rung to every other.
    rng = random.Random(43)
    for g in (ladder_circuit(rng, 64, two_node=True), mesh_circuit(rng, 5),
              mesh_circuit(rng, 14, kinds="R")):
        p = extended_power_functional(g)
        chain = p
        for n in sorted(set(p.support) - set(g.boundary)):
            chain = eliminate_node(chain, n)
        assert power_functional(p, g.boundary) == chain
        assert blackbox(g) == blackbox_fast(g)


def test_realizable_extension_minimizes_over_rational_scalars():
    # With constant coefficients the realizable extension is the true
    # minimizer: any perturbation vanishing on the boundary costs power.
    rng = random.Random(21)
    for _ in range(15):
        labels = [f"k{k}" for k in range(5)]
        q = rand_form(rng, labels, density=0.8, constant=True)
        boundary = labels[:2]
        psi = {n: from_rat(rand_rat(rng)) for n in boundary}
        phi = _extension(q, boundary, psi)
        base = constant_value(evaluate(q, phi))
        for _ in range(10):
            bumped = dict(phi)
            for n in labels[2:]:
                bumped[n] = bumped[n] + from_rat(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                )
            assert constant_value(evaluate(q, bumped)) >= base


def test_realizable_extension_satisfies_kcl_and_energy():
    rng = random.Random(9)
    for _ in range(15):
        labels = [f"k{k}" for k in range(5)]
        q = rand_form(rng, labels, density=0.7)
        boundary = labels[:2]
        psi = {n: from_rat(rand_rat(rng)) for n in boundary}
        phi = _extension(q, boundary, psi)
        g = gradient(q, phi)
        for n in labels[2:]:
            assert g[n] == ZERO
        assert evaluate(q, phi) == evaluate(power_functional(q, boundary), psi)
    q = DirichletForm(["a", "b", "c"], [(("a", "b"), ONE), (("b", "c"), ONE)])
    assert _extension(q, ["a", "c"], {"a": ONE, "c": ZERO})["b"] == half


def test_compose_forms_approximate_identity():
    k, c = from_rat(3), from_rat(Fraction(1, 2))
    q = DirichletForm(["a", "b"], [(("a", "b"), c)])
    p = DirichletForm(["b", "g"], [(("b", "g"), k)])
    out = compose_forms(q, p)
    assert out == DirichletForm(["a", "g"], [(("a", "g"), k * c / (k + c))])
    assert out != DirichletForm(["a", "g"], [(("a", "g"), c)])


def test_compose_forms_zero_middle():
    q = DirichletForm(["a", "b"], [(("a", "b"), ONE)])
    p = DirichletForm(["b", "g"])
    out = compose_forms(q, p)
    assert out == DirichletForm(["a", "g"])
    # S-side coefficients survive when the middle node carries no mass.
    q2 = DirichletForm(["a", "a2", "b"], [(("a", "a2"), ONE)])
    out2 = compose_forms(q2, p)
    assert out2 == DirichletForm(["a", "a2", "g"], [(("a", "a2"), ONE)])


def test_compose_forms_associative():
    rng = random.Random(10)
    for _ in range(10):
        q1 = rand_form(rng, ["a0", "a1", "t0"], density=0.9)
        q2 = rand_form(rng, ["t0", "u0"], density=0.9)
        q3 = rand_form(rng, ["u0", "w0", "w1"], density=0.9)
        lhs = compose_forms(compose_forms(q1, q2), q3)
        rhs = compose_forms(q1, compose_forms(q2, q3))
        assert lhs == rhs


def test_pushforward_examples():
    q = DirichletForm(["A", "B"], [(("A", "B"), half)])
    relabeled = pushforward_form({"A": "x", "B": "y"}, q, ["x", "y"])
    assert relabeled == DirichletForm(["x", "y"], [(("x", "y"), half)])
    collapsed = pushforward_form({"A": "x", "B": "x"}, q, ["x"])
    assert collapsed == DirichletForm(["x"])


def test_pushforward_matches_circuit_composition():
    r1 = impedance("R", 1)
    g1 = circuit(["A", "B"], [("A", "B", r1)], ["A"], ["B"])
    g2 = circuit(["P", "Q"], [("P", "Q", r1)], ["P"], ["Q"])
    comp = compose_circuits(g1, g2)
    f1 = {"A": "A", "B": "B"}
    f2 = {"P": "B", "Q": "Q"}
    pushed = DirichletForm(
        comp.graph.nodes,
        list(pushforward_form(f1, extended_power_functional(g1), comp.graph.nodes).coeffs.items())
        + list(pushforward_form(f2, extended_power_functional(g2), comp.graph.nodes).coeffs.items()),
    )
    assert pushed == extended_power_functional(comp)


def test_power_functional_natural_in_node_relabelings():
    # Pushing the graph forward then taking the form equals taking the form
    # then pushing it forward.
    from blackbox.circuits import Circuit, LabelledGraph
    from util import rand_circuit

    rng = random.Random(14)
    targets = ["u", "v", "w"]
    for _ in range(15):
        g = rand_circuit(rng, max_nodes=4, max_edges=5)
        f = {n: rng.choice(targets) for n in g.graph.nodes}
        # edges collapsed by f become self-loops, which carry no power
        pushed_graph = LabelledGraph(
            targets, [(f[a], f[b], z) for a, b, z in g.graph.edges]
        )
        lhs = extended_power_functional(Circuit(pushed_graph, [], []))
        rhs = pushforward_form(f, extended_power_functional(g), targets)
        assert lhs == rhs


def test_pretty():
    q = DirichletForm(
        ["A", "C"], [(("A", "C"), from_rat(Fraction(1, 4)))]
    )
    assert q.pretty() == "Q = (1/4)(psi_A - psi_C)^2"
    assert DirichletForm(["A"]).pretty("P") == "P = 0"


def test_markov_check():
    rng = random.Random(11)
    q = DirichletForm(["a", "b"], [(("a", "b"), ONE)])
    assert markov_check_real(q, 30, rng)
    with pytest.raises(NonConstantCoefficients):
        markov_check_real(DirichletForm(["a", "b"], [(("a", "b"), s)]), 5)
    # c_ab = 1, psi = (2, 0): Q(min(psi,1)) = 1 <= 4 = Q(psi)
    assert evaluate(q, {"a": from_rat(2), "b": ZERO}) == from_rat(4)
    assert evaluate(q, {"a": ONE, "b": ZERO}) == ONE
    # (psi_a + psi_b)^2 is not a Dirichlet form and fails the check
    bad = lambda psi: (psi["a"] + psi["b"]) ** 2
    assert not sample_markov_property(bad, ["a", "b"], 50, random.Random(12))
