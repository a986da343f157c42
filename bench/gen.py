"""Deterministic circuit families for the benchmark, built without the engine.

Each family draws its structure (topology, component kinds, ports) and a
multiset of component values from a fixed structural seed.  The run's
``--seed`` then deals each circuit's values to its components in a shuffled
order (a chain's values across all its blocks).  So a second seed changes
component values but keeps each family's structure, size and value
distribution, and timings stay comparable across seeds.

A circuit is a ``Net``: plain labels and ``(kind, a, b, value)`` edges with
positive ``Fraction`` values.  ``netlist_text`` renders it in the engine's
netlist format.  A chain is a list of blocks joined by one of three
combinators: ``series`` (compose left to right), ``parallel`` (side by side)
or ``mirror`` (compose left to right, then with the reverse of the result).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

# Structural seeds: fixed, so structure never depends on --seed.  66 and 77
# are the seeds of the acceptance criteria whose distributions are reused.
CORPUS_STRUCTURE = 66
NETWORKS_STRUCTURE = 33
PAIRS_STRUCTURE = 77

CORPUS_SIZE = 60
MIRROR_EVERY = 2
PAIR_COUNT = 20
RC_RUNGS = (4, 6)
RLC_RUNGS = (4,)
MESH_COUNT = 1
MESH_SIDE = 3
SECTION_CHAIN_LENGTHS = (4, 8, 12)
# (series, shunt) kinds: RC low-pass and RL low-pass sections.
SECTION_KINDS = (("R", "C"), ("L", "R"))


@dataclass(frozen=True)
class Net:
    name: str
    nodes: tuple
    edges: tuple  # (kind, a, b, value)
    inputs: tuple
    outputs: tuple


@dataclass(frozen=True)
class Chain:
    name: str
    combinator: str  # "series", "parallel" or "mirror"
    blocks: tuple  # of Net
    flat_verbs: bool = False  # the flat composite also runs behavior and check


@dataclass(frozen=True)
class Workload:
    name: str
    circuits: tuple  # of Net: each runs the behavior and check verbs
    chains: tuple  # of Chain: each runs one compositional analysis
    impedance: bool = False  # circuits are two-terminal: print and check Z(s)


def netlist_text(net):
    lines = ["nodes: " + " ".join(net.nodes)]
    if net.inputs:
        lines.append("inputs: " + " ".join(net.inputs))
    if net.outputs:
        lines.append("outputs: " + " ".join(net.outputs))
    lines += [f"{kind} {a} {b} {value}" for kind, a, b, value in net.edges]
    return "\n".join(lines) + "\n"


def _value(rs):
    """A positive rational with small numerator and denominator."""
    return Fraction(rs.randint(1, 4), rs.randint(1, 3))


def deal(nets, rv):
    """The same nets with their component values shuffled among their edges."""
    values = [e[3] for net in nets for e in net.edges]
    rv.shuffle(values)
    it = iter(values)
    return [replace(net, edges=tuple((k, a, b, next(it)) for k, a, b, _ in net.edges))
            for net in nets]


def random_net(name, rs, max_nodes, max_edges, n_in=None, n_out=None, prefix="n"):
    """The acceptance suite's random circuit: ports repeat and need not cover
    the nodes; self-loops, parallel edges and isolated nodes all occur."""
    labels = [f"{prefix}{k}" for k in range(rs.randint(1, max_nodes))]
    edges = tuple(
        (rs.choice("RLC"), rs.choice(labels), rs.choice(labels), _value(rs))
        for _ in range(rs.randint(0, max_edges))
    )
    n_in = rs.randint(0, 3) if n_in is None else n_in
    n_out = rs.randint(0, 3) if n_out is None else n_out
    inputs = tuple(rs.choice(labels) for _ in range(n_in))
    outputs = tuple(rs.choice(labels) for _ in range(n_out))
    return Net(name, tuple(labels), edges, inputs, outputs)


def ladder(name, rungs, series_kinds, shunt_kind, rs):
    """n0 -[series]- n1 - ... - nN, with a shunt element from each nk to gnd."""
    nodes = tuple(f"n{k}" for k in range(rungs + 1)) + ("gnd",)
    edges = []
    for k in range(1, rungs + 1):
        edges.append((series_kinds[(k - 1) % len(series_kinds)], f"n{k - 1}", f"n{k}", _value(rs)))
        edges.append((shunt_kind, f"n{k}", "gnd", _value(rs)))
    return Net(name, nodes, tuple(edges), ("n0",), ("gnd",))


def rung_sections(net):
    """A ladder cut into its rungs: two-ports with a series edge a-b and a
    shunt edge b-g, inputs (a, g) and outputs (b, g)."""
    blocks = []
    for k in range(0, len(net.edges), 2):
        (series, _, _, sv), (shunt, _, _, hv) = net.edges[k : k + 2]
        blocks.append(Net(f"{net.name}-{k // 2}", ("a", "b", "g"),
                          ((series, "a", "b", sv), (shunt, "b", "g", hv)),
                          ("a", "g"), ("b", "g")))
    return tuple(blocks)


def _cell(i, j):
    return f"r{i}c{j}"


def mesh(name, side, kinds, rs):
    """A side x side grid with the given edge kinds, driven corner to corner."""
    kinds = iter(kinds)
    edges = []
    for j in range(side):
        for i in range(side):
            if i + 1 < side:
                edges.append((next(kinds), _cell(i, j), _cell(i + 1, j), _value(rs)))
            if j + 1 < side:
                edges.append((next(kinds), _cell(i, j), _cell(i, j + 1), _value(rs)))
    nodes = tuple(_cell(i, j) for i in range(side) for j in range(side))
    return Net(name, nodes, tuple(edges), (_cell(0, 0),), (_cell(side - 1, side - 1),))


def mesh_columns(net, side):
    """A mesh cut into columns: block j holds column j's vertical edges and
    the horizontal edges to column j+1, and meets its neighbours on whole
    columns; the first block's input and the last block's output are the
    mesh's own ports."""
    blocks = []
    for j in range(side):
        col = tuple(_cell(i, j) for i in range(side))
        nxt = tuple(_cell(i, j + 1) for i in range(side)) if j + 1 < side else ()
        mine = tuple(e for e in net.edges if e[1] in col)
        blocks.append(Net(f"{net.name}-{j}", col + nxt, mine,
                          net.inputs if j == 0 else col, nxt or net.outputs))
    return tuple(blocks)


def _rngs(family, seed, structure):
    return random.Random(structure), random.Random(f"{family}:{seed}")


def corpus(seed):
    """Many tiny circuits; every second also composes with its own reverse."""
    rs, rv = _rngs("corpus", seed, CORPUS_STRUCTURE)
    nets = [deal([random_net(f"c{k:03d}", rs, max_nodes=7, max_edges=8)], rv)[0]
            for k in range(CORPUS_SIZE)]
    chains = tuple(Chain(f"{n.name}-mirror", "mirror", (n,)) for n in nets[::MIRROR_EVERY])
    return Workload("corpus", tuple(nets), chains)


def networks(seed):
    """Two-terminal ladders and a mixed R/L/C mesh with many interior nodes,
    each also rebuilt compositionally from its rungs or columns.  Ladders and
    meshes alternate, so that similar operations do not run back to back."""
    rs, rv = _rngs("networks", seed, NETWORKS_STRUCTURE)
    ladders = [ladder(f"rc{n:02d}", n, "R", "C", rs) for n in RC_RUNGS]
    ladders += [ladder(f"rlc{n:02d}", n, "RL", "C", rs) for n in RLC_RUNGS]
    kinds = [rs.choice("RLC") for _ in range(2 * MESH_SIDE * (MESH_SIDE - 1))]
    meshes = [mesh(f"mesh{k}", MESH_SIDE, kinds, rs) for k in range(MESH_COUNT)]
    ladders = [deal([n], rv)[0] for n in ladders]
    meshes = [deal([n], rv)[0] for n in meshes]
    order = [n for pair in zip(ladders, meshes) for n in pair]
    order += ladders[len(meshes) :] + meshes[len(ladders) :]
    chains = tuple(
        Chain(f"{n.name}-fold", "series",
              mesh_columns(n, MESH_SIDE) if n in meshes else rung_sections(n))
        for n in order
    )
    return Workload("networks", tuple(order), chains, impedance=True)


def compose(seed):
    """Random composable pairs plus long chains of two-port sections; the flat
    composite of each pair runs the behavior and check verbs."""
    rs, rv = _rngs("compose", seed, PAIRS_STRUCTURE)
    shapes = []
    for k in range(PAIR_COUNT):
        combinator = ("series", "series", "series", "parallel", "mirror")[k % 5]
        shared = rs.randint(0, 3)
        if combinator == "parallel":
            left = random_net(f"p{k:03d}l", rs, 6, 6, prefix="p")
            right = random_net(f"p{k:03d}r", rs, 6, 6, prefix="q")
        else:
            left = random_net(f"p{k:03d}l", rs, 6, 6, n_out=shared, prefix="a")
            right = random_net(f"p{k:03d}r", rs, 6, 6, n_in=shared, prefix="b")
        shapes.append((f"p{k:03d}", combinator, (left, right), True))
    for series, shunt in SECTION_KINDS:
        for length in SECTION_CHAIN_LENGTHS:
            name = f"{series}{shunt}{length:02d}".lower()
            shapes.append((name, "series",
                           rung_sections(ladder(name, length, series, shunt, rs)), False))
    chains = tuple(
        Chain(name, combinator, tuple(deal(blocks, rv)), verbs)
        for name, combinator, blocks, verbs in shapes
    )
    return Workload("compose", (), chains)


WORKLOADS = {"corpus": corpus, "networks": networks, "compose": compose}
