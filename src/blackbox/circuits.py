"""Circuits as cospans of finite sets decorated with impedance-labelled graphs.

Node labels are nonempty strings without whitespace or ``#``, ordered
lexicographically; that order fixes canonical representatives everywhere
(pushout classes are named by their smallest member, so composite circuits
are deterministic).
Ports are positional lists of node labels and may repeat or omit nodes.
``identity_circuit`` stays for the acceptance suite's identity law
(criterion 7).
"""

from __future__ import annotations

from .corel import Record, merge_map
from .errors import InterfaceMismatch
from .field import RatFunc


def _check_label(label):
    # '#' would start a comment in the printed netlist.  A nonempty label
    # without whitespace is the one word that it splits into.
    if "#" in label or label.split() != [label]:
        raise ValueError(f"bad node label {label!r}")


class LabelledGraph(Record):
    """A finite multigraph with an impedance in F+ on every edge."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges=()):
        nodes = tuple(sorted(set(nodes)))
        for n in nodes:
            _check_label(n)
        norm = []
        node_set = set(nodes)
        for src, tgt, z in edges:
            if src not in node_set or tgt not in node_set:
                raise ValueError(f"edge ({src}, {tgt}) references unknown node")
            if not isinstance(z, RatFunc) or z.is_zero():
                raise ValueError("edge impedance must be a nonzero RatFunc")
            norm.append((src, tgt, z))
        self.nodes = nodes
        self.edges = tuple(norm)


class Circuit(Record):
    """A labelled graph together with ordered input and output port lists."""

    __slots__ = ("graph", "inputs", "outputs")

    def __init__(self, graph, inputs, outputs):
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        node_set = set(graph.nodes)
        for p in inputs + outputs:
            if p not in node_set:
                raise ValueError(f"port references unknown node {p!r}")
        self.graph = graph
        self.inputs = inputs
        self.outputs = outputs

    @property
    def boundary(self):
        """The terminals i(X) | o(Y), sorted."""
        return tuple(sorted(set(self.inputs) | set(self.outputs)))


def circuit(nodes, edges=(), inputs=(), outputs=()):
    return Circuit(LabelledGraph(nodes, edges), inputs, outputs)


def identity_circuit(ports):
    """The edgeless circuit whose nodes are all both inputs and outputs."""
    ports = tuple(ports)
    return Circuit(LabelledGraph(ports), ports, ports)


def _fresh_labels(taken, labels):
    """Rename ``labels`` injectively away from ``taken`` by appending primes."""
    out = {}
    used = set(taken)
    for lab in labels:
        cand = lab
        while cand in used:
            cand += "'"
        out[lab] = cand
        used.add(cand)
    return out


def pushout(nodes1, outs1, nodes2, ins2):
    """Glue two apexes along matched ports: ``outs1[k]`` meets ``ins2[k]``.

    The right apex is first made disjoint by priming its colliding labels.
    Returns the two legs into the pushout, as dicts, and its sorted nodes.
    Port lists of unequal length raise ``InterfaceMismatch``.
    """
    if len(outs1) != len(ins2):
        raise InterfaceMismatch(f"{len(outs1)} outputs cannot meet {len(ins2)} inputs")
    rename = _fresh_labels(nodes1, nodes2)
    pairs = [(a, rename[b]) for a, b in zip(outs1, ins2)]
    j = merge_map([*nodes1, *rename.values()], pairs)
    map1 = {n: j[n] for n in nodes1}
    map2 = {n: j[rename[n]] for n in nodes2}
    return map1, map2, tuple(sorted(set(j.values())))


def compose_circuits(g1, g2):
    """Glue g2's inputs onto g1's outputs by pushout of the underlying cospans."""
    map1, map2, nodes = pushout(g1.graph.nodes, g1.outputs, g2.graph.nodes, g2.inputs)
    edges = [(map1[s], map1[t], z) for s, t, z in g1.graph.edges]
    edges += [(map2[s], map2[t], z) for s, t, z in g2.graph.edges]
    return Circuit(
        LabelledGraph(nodes, edges),
        [map1[p] for p in g1.inputs],
        [map2[p] for p in g2.outputs],
    )


def tensor_circuits(g1, g2):
    """Disjoint union: the pushout over no ports, so colliding labels on the
    right operand gain primes."""
    map1, map2, nodes = pushout(g1.graph.nodes, (), g2.graph.nodes, ())
    edges = [(map1[s], map1[t], z) for s, t, z in g1.graph.edges]
    edges += [(map2[s], map2[t], z) for s, t, z in g2.graph.edges]
    return Circuit(
        LabelledGraph(nodes, edges),
        [map1[p] for p in g1.inputs] + [map2[p] for p in g2.inputs],
        [map1[p] for p in g1.outputs] + [map2[p] for p in g2.outputs],
    )


def dagger_circuit(g):
    """Swap inputs and outputs, keeping the graph."""
    return Circuit(g.graph, g.outputs, g.inputs)
