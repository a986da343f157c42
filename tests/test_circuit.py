import importlib
import pkgutil
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import blackbox
from blackbox.circuits import (
    Circuit,
    LabelledGraph,
    circuit,
    compose_circuits,
    dagger_circuit,
    identity_circuit,
    tensor_circuits,
)
from blackbox.corel import Corelation, Record, corel_from_cospan
from blackbox.dirichlet import (
    DirichletForm,
    extended_power_functional,
    power_functional,
    pushforward_form,
)
from blackbox.errors import InterfaceMismatch
from blackbox.field import ONE, TWO, ZERO, from_rat, impedance, int_impedance, s
from blackbox.lagrel import LagrangianRelation, symplectify

from util import merge_parallel_edges, old_label_rule, rand_circuit, rand_composable_pair

R1 = impedance("R", 1)


def test_compose_series_example():
    g1 = circuit(["A", "B"], [("A", "B", R1)], ["A"], ["B"])
    g2 = circuit(["B'", "C"], [("B'", "C", R1)], ["B'"], ["C"])
    g = compose_circuits(g1, g2)
    assert g.graph.nodes == ("A", "B", "C")
    assert [(a, b) for a, b, _ in g.graph.edges] == [("A", "B"), ("B", "C")]
    assert g.inputs == ("A",) and g.outputs == ("C",)


def test_compose_port_count_mismatch():
    g1 = circuit(["A"], [], ["A"], ["A", "A"])
    g2 = circuit(["B"], [], ["B"], ["B"])
    with pytest.raises(InterfaceMismatch, match="^2 outputs cannot meet 1 inputs$"):
        compose_circuits(g1, g2)


def test_fork_composed_with_its_dagger_merges_terminals():
    fork = circuit(["n"], [], ["n"], ["n", "n"])
    g = compose_circuits(fork, dagger_circuit(fork))
    assert len(g.graph.nodes) == 1
    assert g.inputs == g.outputs == (g.graph.nodes[0],)


def test_compose_circuit_with_itself():
    g = circuit(["a", "b"], [("a", "b", R1)], ["a"], ["b"])
    gg = compose_circuits(g, g)
    assert len(gg.graph.nodes) == 3
    assert len(gg.graph.edges) == 2
    from blackbox.behavior import blackbox

    assert blackbox(gg) == blackbox(
        circuit(["a", "b"], [("a", "b", impedance("R", 2))], ["a"], ["b"])
    )


def test_tensor_disjointness():
    g = circuit(["a", "b"], [("a", "b", R1)], ["a"], ["b"])
    t = tensor_circuits(g, g)
    assert t.graph.nodes == ("a", "a'", "b", "b'")
    assert len(t.graph.edges) == 2
    assert t.inputs == ("a", "a'") and t.outputs == ("b", "b'")


def test_tensor_with_empty_is_identity_up_to_nothing():
    g = circuit(["a", "b"], [("a", "b", R1)], ["a"], ["b"])
    e = circuit([])
    assert tensor_circuits(g, e) == g
    assert tensor_circuits(e, g) == g


def test_dagger_involution():
    g = circuit(["a", "b"], [("a", "b", R1)], ["a"], ["b"])
    assert dagger_circuit(dagger_circuit(g)) == g
    assert dagger_circuit(g).inputs == ("b",)


def test_identity_circuit():
    e = identity_circuit([])
    assert e.graph.nodes == () and e.inputs == ()
    g = identity_circuit(["a", "b"])
    assert g.graph.nodes == ("a", "b")
    assert g.inputs == g.outputs == ("a", "b")
    assert g.graph.edges == ()


def test_merge_parallel_edges_examples():
    two = circuit(["m", "n"], [("m", "n", impedance("R", 2)),
                              ("m", "n", impedance("R", 2))])
    merged = merge_parallel_edges(two.graph)
    assert [(a, b, str(z)) for a, b, z in merged.edges] == [("m", "n", "1")]

    loop = circuit(["m"], [("m", "m", impedance("R", 5))])
    assert merge_parallel_edges(loop.graph).edges == ()

    anti = circuit(["m", "n"], [("m", "n", R1), ("n", "m", R1)])
    merged = merge_parallel_edges(anti.graph)
    assert [(a, b, z) for a, b, z in merged.edges] == [("m", "n", from_rat(Fraction(1, 2)))]


def test_merge_preserves_power_functional():
    from blackbox.circuits import Circuit

    rng = random.Random(3)
    for _ in range(25):
        g = rand_circuit(rng, max_nodes=5, max_edges=7)
        h = Circuit(merge_parallel_edges(g.graph), g.inputs, g.outputs)
        assert extended_power_functional(g) == extended_power_functional(h)


def _closure_classes(nodes, pairs):
    # Independent oracle: repeated sweeps until no class changes.
    cls = {n: {n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            merged = cls[a] | cls[b]
            if merged != cls[a] or merged != cls[b]:
                changed = True
                for n in merged:
                    cls[n] = merged
    return {frozenset(c) for c in cls.values()}


def test_pushout_node_count_against_transitive_closure_oracle():
    rng = random.Random(11)
    for _ in range(40):
        g1, g2 = rand_composable_pair(rng, max_nodes=5, max_edges=4)
        comp = compose_circuits(g1, g2)
        right = {n: n + "~R" for n in g2.graph.nodes}
        nodes = list(g1.graph.nodes) + [right[n] for n in g2.graph.nodes]
        pairs = [
            (g1.outputs[k], right[g2.inputs[k]]) for k in range(len(g1.outputs))
        ]
        assert len(comp.graph.nodes) == len(_closure_classes(nodes, pairs))


def test_edge_validation():
    with pytest.raises(ValueError):
        circuit(["a"], [("a", "z", R1)])
    with pytest.raises(ValueError):
        circuit(["a", "b"], [], ["z"], [])
    with pytest.raises(ValueError):
        circuit(["bad label"], [])


_AB = DirichletForm(["a", "b"], [(("a", "b"), ONE)])


@pytest.mark.parametrize("build, message", [
    (lambda: Corelation(1, 1, [(0, 2)]), "do not partition"),
    (lambda: Corelation(1, 1, [(0, 1), (1,)]), "do not partition"),
    (lambda: Corelation(1, 1, [(0,)]), "do not cover"),
    (lambda: DirichletForm(["a"], [(("a", "a"), ONE)]), "no diagonal"),
    (lambda: DirichletForm(["a"], [(("a", "b"), ONE)]), "outside support"),
    (lambda: pushforward_form({"a": "x"}, _AB, ["x"]), "undefined at b"),
    (lambda: LabelledGraph(["a", "b"], [("a", "b", ZERO)]), "nonzero RatFunc"),
    (lambda: LabelledGraph(["a", "b"], [("a", "b", 1)]), "nonzero RatFunc"),
    (lambda: int_impedance("X", 1, 1), "unknown component kind"),
], ids=["index outside", "index twice", "index missing", "diagonal pair",
        "pair outside support", "incomplete map", "zero impedance",
        "int impedance", "unknown kind"])
def test_malformed_arguments_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_only_record_and_ratfunc_define_equality():
    # Every immutable engine value takes __eq__ and __hash__ from Record;
    # RatFunc also equals ints and Fractions, and DirichletForm and Subspace
    # hold a dict or a list of dicts, which Record cannot hash.
    eq, hashed = set(), set()
    for info in pkgutil.iter_modules(blackbox.__path__):
        module = importlib.import_module(f"blackbox.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if "__eq__" in vars(obj):
                    eq.add(obj.__name__)
                if "__hash__" in vars(obj):
                    hashed.add(obj.__name__)
    assert eq == {"Record", "RatFunc"}
    assert hashed == {"Record", "RatFunc", "DirichletForm", "Subspace"}


def test_records_compare_by_class_and_fields():
    # Equal relations, one written reduced by symplectify and one reduced by
    # rref from scaled, shuffled rows, are equal and hash equal; so are forms whose coefficients arrive in another order.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(0, 4)
        corel = corel_from_cospan([rng.randrange(3) for _ in range(n)],
                                  [rng.randrange(3) for _ in range(rng.randint(0, 4))])
        written = symplectify(corel)
        rows = [{c: e * from_rat(k + 2) for c, e in r.items()} for k, r in enumerate(written.sub.sparse)]
        rng.shuffle(rows)
        by_rref = LagrangianRelation(written.source, written.target, rows)
        assert by_rref.sub is not written.sub
        assert by_rref == written and hash(by_rref) == hash(written)
        assert by_rref.sub == written.sub and hash(by_rref.sub) == hash(written.sub)
    pairs = [(("a", "b"), ONE), (("b", "c"), s), (("a", "c"), TWO * s + ONE)]
    forward, backward = DirichletForm("abc", pairs), DirichletForm("abc", pairs[::-1])
    assert list(forward.coeffs) != list(backward.coeffs)
    assert forward == backward and hash(forward) == hash(backward)

    # A value never equals one of another class, even with the same fields.
    class Form(Record):
        __slots__ = ("support", "coeffs")

        def __init__(self, support, coeffs):
            self.support = support
            self.coeffs = coeffs

    form = DirichletForm("ab", [(("a", "b"), s)])
    twin = Form(form.support, form.coeffs)
    assert twin != form and not form == twin
    assert form != (form.support, form.coeffs) and form == DirichletForm(["a", "b"], [(("b", "a"), s)])
    assert Corelation(1, 1, [(0, 1)]) != symplectify(Corelation(1, 1, [(0, 1)]))
    assert not isinstance(ONE, Record)


def test_graphs_and_circuits_compare_and_hash_by_structure():
    rng = random.Random(5)
    for _ in range(10):
        g = rand_circuit(rng)
        twin = Circuit(LabelledGraph(reversed(g.graph.nodes), list(g.graph.edges)),
                       list(g.inputs), list(g.outputs))
        assert twin.graph is not g.graph
        assert twin.graph == g.graph and hash(twin.graph) == hash(g.graph)
        assert twin == g and hash(twin) == hash(g)
        for obj in (g, g.graph):
            assert not hasattr(obj, "__dict__")
    g = circuit(["a", "b"], [("a", "b", R1)], ["a"], ["b"])
    assert g != dagger_circuit(g) and g != g.graph and g != (g.graph, g.inputs, g.outputs)
    assert g.graph != LabelledGraph(["a", "b"], [("a", "b", impedance("L", 1))])
    assert repr(g) == f"Circuit(graph=LabelledGraph(nodes=('a', 'b'), edges=(('a', 'b', {R1!r}),)), " \
        "inputs=('a',), outputs=('b',))"


SPACES = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())


@seed(16)
@settings(max_examples=300)
@given(st.text() | st.text(st.sampled_from(SPACES + "#ab\u00e9\u03a9")) | st.text(min_size=1).map(
    lambda t: t + SPACES[len(t) % len(SPACES)]))
def test_labels_are_accepted_by_the_per_character_rule(label):
    if old_label_rule(label):
        assert circuit([label]).graph.nodes == (label,)
    else:
        with pytest.raises(ValueError, match="bad node label"):
            circuit([label])
