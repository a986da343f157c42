import random
from collections import Counter
from fractions import Fraction

import pytest

import blackbox as bb
from blackbox import behavior, dirichlet, lagrel
from blackbox.behavior import (
    LagrCospan,
    as_impedance,
    behavior_to_json,
    blackbox,
    blackbox_categorical,
    blackbox_fast,
    compose_dirichlet_cospans,
    cospan_relation,
    equivalent,
    oracle_behavior,
    port_relation,
    to_dirichlet_cospan,
    to_lagr_cospan,
)
from blackbox.circuits import (
    circuit,
    compose_circuits,
    dagger_circuit,
    identity_circuit,
    tensor_circuits,
)
from blackbox.dirichlet import DirichletForm, extended_power_functional, power_functional
from blackbox.cli import main
from blackbox.errors import EngineError, InterfaceMismatch, NodeNotInSupport, NotAGraph
from blackbox.field import ONE, ZERO, RatFunc, from_rat, impedance
from blackbox.lagrel import (
    Subspace,
    compose_relations,
    dagger_relation,
    graph_of_differential,
    identity_relation,
    port_space,
    tensor_relations,
)
from blackbox.netlist import print_netlist

from util import (
    bench_modules,
    compose_lagr_cospans,
    composed_cospan_relation,
    dagger_corelation,
    ladder_circuit,
    mesh_circuit,
    rand_circuit,
    rand_coefficient,
    rand_composable_pair,
    reference_eliminate_interior,
    reference_port_relation,
    sparse,
    workload_circuits,
)


def resistor(r, labels=("a", "b")):
    return circuit(labels, [(labels[0], labels[1], impedance("R", r))],
                   [labels[0]], [labels[1]])


def test_ohm_relation():
    rel = blackbox(resistor(2))
    assert rel.sub == Subspace(
        sparse([[ONE, ZERO, ONE, ZERO], [ZERO, ONE, from_rat(2), ONE]]), 4
    )


def test_identity_circuit_blackboxes_to_identity_relation():
    for labels in ([], ["a"], ["a", "b", "c"]):
        rel = blackbox(identity_circuit(labels))
        assert rel.sub == identity_relation(port_space(len(labels))).sub


def test_rlc_series_impedance():
    rlc = circuit(
        ["a", "b", "c", "d"],
        [
            ("a", "b", impedance("R", 2)),
            ("b", "c", impedance("L", 3)),
            ("c", "d", impedance("C", Fraction(1, 2))),
        ],
        ["a"],
        ["d"],
    )
    rel = blackbox(rlc)
    assert as_impedance(rel) == RatFunc((2, 2, 3), (0, 1))


def test_as_impedance_rejects_non_graphs():
    wire = blackbox(identity_circuit(["a"]))
    with pytest.raises(NotAGraph):
        as_impedance(wire)
    open_circuit = blackbox(circuit(["a", "b"], [], ["a"], ["b"]))
    with pytest.raises(NotAGraph):
        as_impedance(open_circuit)
    with pytest.raises(NotAGraph):
        as_impedance(blackbox(identity_circuit(["a", "b"])))


def test_equivalence_collapse():
    series = compose_circuits(resistor(1), resistor(1, ("p", "q")))
    assert equivalent(series, resistor(2))
    parallel = circuit(
        ["m", "n"],
        [("m", "n", impedance("R", 2)), ("m", "n", impedance("R", 2))],
        ["m"],
        ["n"],
    )
    assert equivalent(parallel, resistor(1, ("m", "n")))
    assert not equivalent(parallel, resistor(2, ("m", "n")))


def test_factored_pipeline_is_blackbox():
    rng = random.Random(1)
    for _ in range(10):
        g = rand_circuit(rng, max_nodes=4, max_edges=4)
        assert cospan_relation(to_lagr_cospan(to_dirichlet_cospan(g))) == blackbox(g)


def test_cospan_relation_matches_the_composed_definition():
    # cospan_relation applies the twist to its generators; the reference
    # composes with twist (x) id.  Both must give one relation.
    rng = random.Random(12)
    seen = set()
    for _ in range(60):
        g = rand_circuit(rng, max_nodes=7, max_edges=8)
        m, n = len(g.inputs), len(g.outputs)
        ports = [*g.inputs, *g.outputs]
        touched = {x for e in g.graph.edges for x in e[:2]}
        seen |= {kind for kind, hit in [
            ("m = 0", m == 0), ("n = 0", n == 0), ("both sides", m and n),
            ("repeated port", len(set(ports)) < len(ports)),
            ("isolated node", any(x not in touched for x in g.graph.nodes)),
        ] if hit}
        q = power_functional(extended_power_functional(g), g.boundary)
        for lc in (to_lagr_cospan(to_dirichlet_cospan(g)),
                   LagrCospan(tuple(g.inputs), tuple(g.outputs), g.boundary,
                              graph_of_differential(q))):
            assert cospan_relation(lc) == composed_cospan_relation(lc)
    assert seen == {"m = 0", "n = 0", "both sides", "repeated port", "isolated node"}


def test_dirichlet_cospan_functor():
    rng = random.Random(2)
    for _ in range(15):
        g1, g2 = rand_composable_pair(rng, max_nodes=4, max_edges=3)
        lhs = compose_dirichlet_cospans(to_dirichlet_cospan(g1), to_dirichlet_cospan(g2))
        rhs = to_dirichlet_cospan(compose_circuits(g1, g2))
        assert lhs == rhs
    fork = to_dirichlet_cospan(circuit(["a"], [], ["a"], ["a", "a"]))
    with pytest.raises(InterfaceMismatch):
        compose_dirichlet_cospans(fork, fork)


def test_lagr_cospan_functor():
    rng = random.Random(3)
    for _ in range(15):
        g1, g2 = rand_composable_pair(rng, max_nodes=4, max_edges=3)
        a = to_lagr_cospan(to_dirichlet_cospan(g1))
        b = to_lagr_cospan(to_dirichlet_cospan(g2))
        lhs = compose_lagr_cospans(a, b)
        rhs = to_lagr_cospan(to_dirichlet_cospan(compose_circuits(g1, g2)))
        assert lhs == rhs
    fork = to_lagr_cospan(to_dirichlet_cospan(circuit(["a"], [], ["a"], ["a", "a"])))
    with pytest.raises(InterfaceMismatch):
        compose_lagr_cospans(fork, fork)


def test_cospans_compare_and_hash_by_structure():
    rng = random.Random(6)
    for _ in range(10):
        g = rand_circuit(rng, max_nodes=4, max_edges=3)
        twin = circuit(g.graph.nodes, g.graph.edges, g.inputs, g.outputs)
        a, b = to_dirichlet_cospan(g), to_dirichlet_cospan(twin)
        assert a.form is not b.form
        assert a == b and hash(a) == hash(b)
        la, lb = to_lagr_cospan(a), to_lagr_cospan(b)
        assert la.sub is not lb.sub
        assert la == lb and hash(la) == hash(lb)
        for obj in (a, la):
            assert not hasattr(obj, "__dict__")
    g = circuit(["a", "b"], [("a", "b", impedance("R", 1))], ["a"], ["b"])
    a = to_dirichlet_cospan(g)
    assert a != to_dirichlet_cospan(dagger_circuit(g))
    assert to_lagr_cospan(a) != to_lagr_cospan(to_dirichlet_cospan(dagger_circuit(g)))
    assert repr(a) == f"DirichletCospan(inputs=('a',), outputs=('b',), form={a.form!r})"


def test_final_factor_functorial_and_dagger():
    rng = random.Random(4)
    for _ in range(15):
        g1, g2 = rand_composable_pair(rng, max_nodes=4, max_edges=3)
        a = to_lagr_cospan(to_dirichlet_cospan(g1))
        b = to_lagr_cospan(to_dirichlet_cospan(g2))
        assert cospan_relation(compose_lagr_cospans(a, b)) == compose_relations(
            cospan_relation(a), cospan_relation(b)
        )
        flipped = to_lagr_cospan(to_dirichlet_cospan(dagger_circuit(g1)))
        assert cospan_relation(flipped) == dagger_relation(cospan_relation(a))


def test_lagr_cospan_composite_keeps_colliding_labels_apart():
    # A left node named like a tagged right node must stay its own node.
    left = circuit(
        ["a", "b~right", "o"],
        [("a", "b~right", impedance("R", 1)), ("b~right", "o", impedance("R", 5))],
        ["a"],
        ["o"],
    )
    right = circuit(["b", "c"], [("b", "c", impedance("R", 2))], ["c"], ["b"])
    lagr = compose_lagr_cospans(
        to_lagr_cospan(to_dirichlet_cospan(left)),
        to_lagr_cospan(to_dirichlet_cospan(right)),
    )
    dirichlet = compose_dirichlet_cospans(
        to_dirichlet_cospan(left), to_dirichlet_cospan(right)
    )
    eight = from_rat(8)
    assert as_impedance(cospan_relation(lagr)) == eight
    assert as_impedance(cospan_relation(to_lagr_cospan(dirichlet))) == eight
    assert as_impedance(blackbox(compose_circuits(left, right))) == eight


def test_zero_form_cospan_gives_potential_axis():
    lc = to_lagr_cospan(
        compose_dirichlet_cospans(
            to_dirichlet_cospan(identity_circuit(["a"])),
            to_dirichlet_cospan(identity_circuit(["a"])),
        )
    )
    assert lc.sub == Subspace([{0: ONE}], 2)


def test_functor_laws_on_random_circuits():
    rng = random.Random(5)
    for _ in range(15):
        g1, g2 = rand_composable_pair(rng, max_nodes=5, max_edges=4)
        assert blackbox(compose_circuits(g1, g2)) == compose_relations(
            blackbox(g1), blackbox(g2)
        )
        assert blackbox(tensor_circuits(g1, g2)) == tensor_relations(
            blackbox(g1), blackbox(g2)
        )
        assert blackbox(dagger_circuit(g1)) == dagger_relation(blackbox(g1))


def test_identity_law_at_behavior_level():
    rng = random.Random(6)
    for _ in range(10):
        g = rand_circuit(rng, max_nodes=4, max_edges=4)
        left = identity_circuit([f"i{k}" for k in range(len(g.inputs))])
        right = identity_circuit([f"o{k}" for k in range(len(g.outputs))])
        assert blackbox(compose_circuits(left, g)) == blackbox(g)
        assert blackbox(compose_circuits(g, right)) == blackbox(g)


def test_monoidal_unit():
    empty = circuit([])
    rel = blackbox(empty)
    assert rel.sub.dim == 0
    g = resistor(3)
    assert blackbox(tensor_circuits(g, empty)) == blackbox(g)


def test_minimization_equals_boundary_restriction_of_the_graph():
    # Restricting Graph(dP) along the boundary inclusion equals the graph of
    # the eliminated form: the identity that licenses the fast path.
    from blackbox.lagrel import (
        compose_relations,
        graph_of_differential,
        subspace_as_relation,
        symplectify,
    )
    from blackbox.corel import corel_from_cospan

    rng = random.Random(9)
    for _ in range(20):
        g = rand_circuit(rng, max_nodes=6, max_edges=6)
        nodes = g.graph.nodes
        boundary = g.boundary
        p = extended_power_functional(g)
        q = power_functional(p, boundary)
        node_at = {n: k for k, n in enumerate(nodes)}
        inclusion = corel_from_cospan([node_at[b] for b in boundary], range(len(nodes)))
        restricted = compose_relations(
            subspace_as_relation(graph_of_differential(p), port_space(len(nodes))),
            symplectify(dagger_corelation(inclusion)),
        )
        assert restricted.sub == graph_of_differential(q)


def test_triple_agreement_spot_checks():
    rng = random.Random(7)
    for _ in range(20):
        g = rand_circuit(rng, max_nodes=5, max_edges=6)
        ref = blackbox_categorical(g)
        assert blackbox(g) == ref
        assert blackbox_fast(g) == ref
        assert oracle_behavior(g) == ref


def test_routes_agree_on_large_circuits():
    # Ladders and meshes larger than the acceptance distribution, where the
    # reference routes' nullspaces eliminate many interior columns.
    rng = random.Random(31)
    circuits = [
        ladder_circuit(rng, 8),
        ladder_circuit(rng, 8, "RL", "C", two_node=True),
        ladder_circuit(rng, 16, two_node=True),
        ladder_circuit(rng, 16, "RL", "C"),
        mesh_circuit(rng, 3, two_node=True),
        mesh_circuit(rng, 4),
        mesh_circuit(rng, 4, two_node=True),
    ]
    for g in circuits:
        ref = blackbox(g)
        assert blackbox_categorical(g) == ref
        assert oracle_behavior(g) == ref
        assert blackbox_fast(g) == ref


def test_floating_component_is_invisible():
    seen = circuit(["a", "b"], [("a", "b", impedance("R", 2))], ["a"], ["b"])
    haunted = circuit(
        ["a", "b", "x", "y"],
        [("a", "b", impedance("R", 2)), ("x", "y", impedance("L", 1)),
         ("x", "y", impedance("C", 2))],
        ["a"],
        ["b"],
    )
    assert blackbox(haunted) == blackbox(seen)
    assert oracle_behavior(haunted) == blackbox(seen)
    assert blackbox_fast(haunted) == blackbox(seen)


def test_repeated_ports_split_currents():
    fork = circuit(["n"], [], ["n", "n"], ["n"])
    rel = blackbox(fork)
    # potentials copied, input currents sum to the output current
    assert rel.sub == Subspace(
        sparse([
            [ONE, ONE, ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ONE, ZERO, ZERO, ONE],
            [ZERO, ZERO, ZERO, ONE, ZERO, ONE],
        ]),
        6,
    )
    assert oracle_behavior(fork) == rel
    assert blackbox_fast(fork) == rel


def test_port_relation_splits_a_repeated_terminal():
    # Terminal t is an input twice and an output once, behind a resistor
    # and an interior RC node.
    g = circuit(
        ["t", "u", "v"],
        [("t", "u", impedance("R", 2)), ("u", "v", impedance("L", 1)),
         ("u", "v", impedance("C", 3))],
        ["t", "v", "t"],
        ["t"],
    )
    q = power_functional(extended_power_functional(g), g.boundary)
    rel = port_relation(q, g.inputs, g.outputs)
    assert rel == oracle_behavior(g)
    assert rel == blackbox_categorical(g)
    # On an edgeless form the portless node u carries no constraint.
    edgeless = DirichletForm(g.graph.nodes)
    assert port_relation(edgeless, g.inputs, g.outputs) == oracle_behavior(
        circuit(g.graph.nodes, [], g.inputs, g.outputs)
    )
    # Node u's coefficients cancel, so minimizing over it leaves the
    # constraint phi_a = phi_b, which the whole-form nullspace reads and no
    # Kron-reduced form can express: the production route refuses it.
    cancelling = DirichletForm(["a", "u", "b"], [(("a", "u"), ONE), (("u", "b"), -ONE)])
    with pytest.raises(EngineError, match="node 'u'"):
        port_relation(cancelling, ["a"], ["b"])
    for route in (port_relation, reference_port_relation):
        with pytest.raises(NodeNotInSupport, match="port 'x'"):
            route(cancelling, ["a", "x"], ["b"])
    assert reference_port_relation(cancelling, ["a"], ["b"]).sub == Subspace(
        sparse([[ONE, ZERO, ONE, ZERO], [ZERO, ONE, ZERO, ONE]]), 4
    )


def test_port_relation_matches_the_whole_form_nullspace():
    # Random forms with positive coefficients of degree <= 2, read by the
    # Kron route and by one nullspace of the whole form.  The cases are
    # counted, so a generator that stops reaching one fails here.
    rng = random.Random(23)
    seen = set()
    for _ in range(250):
        labels = [f"n{x}" for x in range(rng.randint(1, 6))]
        coeffs = [((a, b), rand_coefficient(rng))
                  for x, a in enumerate(labels) for b in labels[x + 1:] if rng.random() < 0.5]
        form = DirichletForm(labels, coeffs)
        terminals = rng.sample(labels, rng.randint(1, len(labels)))
        inputs = [rng.choice(terminals) for _ in range(rng.randint(0, 3))]
        outputs = [rng.choice(terminals) for _ in range(rng.randint(0, 3))]
        assert port_relation(form, inputs, outputs) == reference_port_relation(
            form, inputs, outputs)
        touched = {x for pair in form.coeffs for x in pair}
        portless = set(labels) - set(inputs) - set(outputs)
        seen |= {
            "degree 2" if any(max(len(c.n), len(c.d)) == 3 for c in form.coeffs.values()) else "",
            "repeat on one side" if len(set(inputs)) < len(inputs) else "",
            "repeat across sides" if set(inputs) & set(outputs) else "",
            "portless, coupled" if portless & touched else "",
            "portless, isolated" if portless - touched else "",
            "no inputs" if not inputs else "",
            "no outputs" if not outputs else "",
        }
    assert seen - {""} == {"degree 2", "repeat on one side", "repeat across sides",
                           "portless, coupled", "portless, isolated", "no inputs", "no outputs"}


def test_the_production_route_solves_no_nullspace(monkeypatch, tmp_path, capsys):
    # blackbox, equivalent and the blackbox and eval verbs read the relation
    # off the Kron-reduced form; a nullspace on their path fails here.
    def refuse(rows, ncols, read):
        raise AssertionError("nullspace called")

    monkeypatch.setattr(behavior, "nullspace", refuse)
    monkeypatch.setattr(lagrel, "nullspace", refuse)
    rng = random.Random(29)
    circuits = [rand_circuit(rng) for _ in range(30)]
    rels, same = [], []
    for k, g in enumerate(circuits):
        rels.append(blackbox(g))
        assert equivalent(g, g)
        same.append(equivalent(g, circuits[k - 1]))
        path = tmp_path / f"g{k}.net"
        path.write_text(print_netlist(g))
        assert main(["blackbox", str(path)]) == 0
        assert main(["eval", str(path), "--at", "2"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    refs = [blackbox_categorical(g) for g in circuits]
    assert rels == refs
    assert same == [ref == refs[k - 1] for k, ref in enumerate(refs)]


def test_kron_reduction_calls_no_eliminate_node(monkeypatch, tmp_path, capsys):
    # blackbox, power_functional and the eliminate verb run the one-map
    # kernel; an eliminate_node on their path fails here.
    def refuse(form, n):
        raise AssertionError("eliminate_node called")

    monkeypatch.setattr(dirichlet, "eliminate_node", refuse)
    monkeypatch.setattr(behavior, "eliminate_node", refuse)
    rng = random.Random(37)
    circuits = [ladder_circuit(rng, 6), mesh_circuit(rng, 3)]
    circuits += [rand_circuit(rng) for _ in range(20)]
    rels, forms = [], []
    for k, g in enumerate(circuits):
        rels.append(blackbox(g))
        forms.append(power_functional(extended_power_functional(g), g.boundary))
        path = tmp_path / f"g{k}.net"
        path.write_text(print_netlist(g))
        assert main(["eliminate", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert rels == [blackbox_fast(g) for g in circuits]
    assert forms == [reference_eliminate_interior(extended_power_functional(g), g.boundary)[0]
                     for g in circuits]


def test_benchmark_times_no_reference_kron_route(monkeypatch, tmp_path):
    # bench/run.py reaches blackbox_fast only through the compose ops'
    # untimed reference: no op's call, the timed work, may reach it or its
    # eliminate_node steps.
    reached = []

    def refusing(name):
        def refuse(*args):
            reached.append(name)
            raise AssertionError(f"{name} called")
        return refuse

    for owner, name in ((bb, "blackbox_fast"), (behavior, "blackbox_fast"),
                        (behavior, "eliminate_node"), (dirichlet, "eliminate_node")):
        monkeypatch.setattr(owner, name, refusing(f"{owner.__name__}.{name}"))
    gen, run = bench_modules()
    kinds = Counter()
    for wname, make in gen.WORKLOADS.items():
        workdir = tmp_path / wname
        workdir.mkdir()
        ops = run.make_ops(bb, make(1), workdir)
        for op in ops:
            op.call()
            kinds[op.kind] += 1
        assert reached == []
    assert set(kinds) == set(run.KINDS)
    # The patches are on the path the references take.
    compose = next(op for op in ops if op.kind == "compose")
    with pytest.raises(AssertionError, match="blackbox.blackbox_fast called"):
        compose.reference()
    assert reached == ["blackbox.blackbox_fast"]


def test_blackbox_fast_eliminates_through_eliminate_node(monkeypatch):
    # The reference keeps its own path: one eliminate_node per interior
    # node, fewest incident coefficients first (recounted per step, ties to
    # the smaller label), and no call of the kernel.
    calls = []

    def recording(form, n):
        calls.append(n)
        return dirichlet.eliminate_node(form, n)

    def refuse(form, boundary):
        raise AssertionError("Kron kernel called")

    monkeypatch.setattr(behavior, "eliminate_node", recording)
    monkeypatch.setattr(dirichlet, "_eliminate_interior", refuse)
    g = ladder_circuit(random.Random(38), 4)
    rel = blackbox_fast(g)
    monkeypatch.undo()
    order = [n for n, _ in reference_eliminate_interior(extended_power_functional(g), g.boundary)[1]]
    assert calls == order == ["n1", "n2", "gnd", "n3"]
    assert rel == blackbox(g)


def test_blackbox_fast_eliminates_a_hub_once_it_is_small(monkeypatch):
    # A 64-rung ladder driven n0 -> n64 keeps its ground interior, joined to
    # every rung.  Eliminated first, as "gnd" sorts, it would join every rung
    # to every other; fewest coefficients first, no step meets more than 3.
    degrees = []

    def recording(form, n):
        degrees.append(sum(n in pair for pair in form.coeffs))
        return dirichlet.eliminate_node(form, n)

    monkeypatch.setattr(behavior, "eliminate_node", recording)
    g = ladder_circuit(random.Random(43), 64)
    rel = blackbox_fast(g)
    monkeypatch.undo()
    assert "gnd" not in g.boundary and len(degrees) == 64
    assert max(degrees) == 3
    assert rel == blackbox(g)


def _check_fewest_first(calls, outs, form, interior):
    """Check the recorded ``eliminate_node`` calls of one elimination, as
    (form, node) and the forms they returned: each call takes the form the
    previous one returned (the first takes ``form``), and its node has the
    fewest pairs in that form among the nodes of ``interior`` not yet
    eliminated, ties going to the smaller label.  Returns the nodes never
    eliminated, whether some step made a fill pair and whether one
    cancelled a pair."""
    left = set(interior)
    fill = cancel = False
    for k, (got, n) in enumerate(calls):
        assert got == form
        pairs = {x: sum(x in pair for pair in got.coeffs) for x in left}
        assert n in left and all((pairs[n], n) <= (pairs[x], x) for x in left)
        left.remove(n)
        if k < len(outs):
            form = outs[k]
            fill |= any(pair not in got.coeffs for pair in form.coeffs)
            cancel |= any(pair not in form.coeffs and n not in pair for pair in got.coeffs)
    return left, fill, cancel


def test_blackbox_fast_order_equals_the_recount(monkeypatch):
    # Each node that blackbox_fast eliminates has the fewest pairs, counted
    # anew in the form it is eliminated from, among the interior nodes left,
    # ties going to the smaller label: on random forms whose signed
    # coefficients make fill pairs appear and cancel or a node refuse, and
    # on the 64-rung ladder with an interior hub.
    calls, outs = [], []

    def recording(form, n):
        calls.append((form, n))
        outs.append(dirichlet.eliminate_node(form, n))
        return outs[-1]

    monkeypatch.setattr(behavior, "eliminate_node", recording)
    rng = random.Random(44)
    weights = [from_rat(Fraction(k, d)) for k in (-2, -1, 1, 2, 3) for d in (1, 2)]
    seen = set()
    for k in range(150):
        labels = [f"v{x}" for x in range(rng.randint(2, 9))]
        pairs = [(a, b) for x, a in enumerate(labels) for b in labels[x + 1:]]
        density = rng.choice([0.3, 0.5, 0.8])
        q = DirichletForm(labels, [(pair, rng.choice(weights)) for pair in pairs
                                   if rng.random() < density])
        interior = rng.sample(labels, rng.randint(1, len(labels)))
        calls.clear()
        outs.clear()
        try:
            behavior._eliminate_fewest_first(q, interior)
            refused = False
        except EngineError:
            refused = True
        left, fill, cancel = _check_fewest_first(calls, outs, q, interior)
        # Every interior node is eliminated once, unless the last call refused.
        assert len(outs) == len(calls) - refused and (refused or not left)
        seen |= {"refused" if refused else "completed", "fill" if fill else "",
                 "cancel" if cancel else ""}
    assert seen - {""} == {"completed", "refused", "fill", "cancel"}
    g = ladder_circuit(random.Random(43), 64)
    calls.clear()
    outs.clear()
    rel = blackbox_fast(g)
    q = extended_power_functional(g)
    left = _check_fewest_first(calls, outs, q, set(q.support) - set(g.boundary))[0]
    assert not left and len(calls) == len(outs) == 64
    assert rel == blackbox(g)


def test_associativity_at_behavior_level():
    rng = random.Random(8)
    for _ in range(8):
        k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
        f = rand_circuit(rng, max_nodes=4, max_edges=3, n_out=k1, prefix="f")
        g = rand_circuit(rng, max_nodes=4, max_edges=3, n_in=k1, n_out=k2, prefix="g")
        h = rand_circuit(rng, max_nodes=4, max_edges=3, n_in=k2, prefix="h")
        assert blackbox(compose_circuits(compose_circuits(f, g), h)) == blackbox(
            compose_circuits(f, compose_circuits(g, h))
        )


def test_behavior_json_schema():
    g = resistor(2)
    doc = behavior_to_json(g, blackbox(g))
    assert doc == {
        "inputs": ["a"],
        "outputs": ["b"],
        "generators": [["1", "0", "1", "0"], ["0", "1", "2", "1"]],
    }


def test_behavior_json_prints_the_dense_rows():
    # The benchmark checks --json against behavior_to_json of the oracle, the
    # same renderer, so only this comparison with the dense rows guards it.
    rng = random.Random(26)
    cases = workload_circuits(1) + workload_circuits(5)
    cases += [(f"random {k}", rand_circuit(rng)) for k in range(150)]
    for name, g in cases:
        rel = blackbox(g)
        assert behavior_to_json(g, rel) == {
            "inputs": list(g.inputs),
            "outputs": list(g.outputs),
            "generators": [[str(e) for e in row] for row in rel.sub.rows],
        }, name
