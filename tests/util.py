"""Shared randomized generators for the property suites.

Deterministic seeds throughout: every suite builds its own ``random.Random``
so cases are reproducible and independent of execution order.
"""

import random
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import blackbox
from blackbox.behavior import LagrCospan, _port_behavior
from blackbox.circuits import LabelledGraph, circuit, pushout
from blackbox.corel import Corelation, corel_from_cospan
from blackbox.dirichlet import DirichletForm, eliminate_node
from blackbox.errors import EngineError, NodeNotInSupport, NonPositiveImpedance, ParseError
from blackbox.field import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MINUS_ONE,
    ONE,
    TWO,
    ZERO,
    RatFunc,
    from_rat,
    impedance,
    parse_rational,
)
from blackbox.lagrel import (
    LagrangianRelation,
    compose_relations,
    embed,
    identity_relation,
    nullspace,
    port_space,
    subspace_as_relation,
    symplectify,
    tensor_relations,
    twist,
)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_modules():
    """The benchmark's ``gen`` and ``run`` modules, imported from ``bench/``."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import gen
    import run

    return gen, run


def workload_circuits(seed):
    """(name, circuit) for every circuit, every chain block and every checked
    flat composite of the benchmark's workloads (``bench/gen.py``) at
    ``seed``: the circuits that ``scripts/route_digest.py`` covers."""
    gen, run = bench_modules()
    out = []
    for wname, make in gen.WORKLOADS.items():
        workload = make(seed)
        out += [(f"{wname}/{net.name}", blackbox.parse_netlist(gen.netlist_text(net)))
                for net in workload.circuits]
        for chain in workload.chains:
            blocks = [blackbox.parse_netlist(gen.netlist_text(b)) for b in chain.blocks]
            out += [(f"{wname}/{chain.name}/{k}", g) for k, g in enumerate(blocks)]
            if chain.flat_verbs:
                out.append((f"{wname}/{chain.name}/flat",
                            run.flatten(blackbox, chain.combinator, blocks)))
    return out


def rand_rat(rng, lo=1, hi=4):
    """A random positive rational with small numerator and denominator."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def reference_component(kind, text, lineno):
    """The impedance of an R/L/C netlist value read the general way:
    ``parse_rational``, the positivity test, then ``impedance``.  The
    reference that the netlist reader's integer short path must reproduce,
    value for value and error for error."""
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    if value <= 0:
        raise NonPositiveImpedance(f"line {lineno}: value {value} is not positive")
    return impedance(kind, value)


def old_label_rule(label):
    """True iff ``label`` is a node label by the rule written per character:
    nonempty, no ``#`` and no character that ``str.isspace`` accepts."""
    return bool(label) and "#" not in label and not any(ch.isspace() for ch in label)


def rand_impedance(rng):
    return impedance(rng.choice("RLC"), rand_rat(rng))


def rand_circuit(rng, max_nodes=6, max_edges=6, max_in=3, max_out=3,
                 n_in=None, n_out=None, prefix="n"):
    """A random circuit with structural R/L/C impedances.

    Ports are drawn with repetition and need not cover the nodes; self-loops
    and parallel edges are allowed.
    """
    n = rng.randint(1, max_nodes)
    labels = [f"{prefix}{k}" for k in range(n)]
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        edges.append((rng.choice(labels), rng.choice(labels), rand_impedance(rng)))
    n_in = rng.randint(0, max_in) if n_in is None else n_in
    n_out = rng.randint(0, max_out) if n_out is None else n_out
    inputs = [rng.choice(labels) for _ in range(n_in)]
    outputs = [rng.choice(labels) for _ in range(n_out)]
    return circuit(labels, edges, inputs, outputs)


def rand_composable_pair(rng, **kw):
    k = rng.randint(0, 3)
    g1 = rand_circuit(rng, n_out=k, prefix="a", **kw)
    g2 = rand_circuit(rng, n_in=k, prefix="b", **kw)
    return g1, g2


def rand_form(rng, labels, density=0.7, constant=False):
    """A random Dirichlet form with positive coefficients on random pairs."""
    labels = list(labels)
    coeffs = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if rng.random() < density:
                if constant:
                    c = from_rat(rand_rat(rng))
                else:
                    c = rand_impedance(rng)
                coeffs.append(((labels[i], labels[j]), c))
    return DirichletForm(labels, coeffs)


class NonConstantCoefficients(EngineError):
    """A form given to ``markov_check_real`` has a coefficient that depends
    on s."""


def sample_markov_property(qfun, labels, trials, rng):
    """Sample condition (iii) of the Dirichlet characterization over Q.

    ``qfun`` maps a dict of Fraction potentials to a Fraction.  Checks that
    the form vanishes on constants and that clipping at 1 never increases
    it, on ``trials`` random rational vectors.
    """
    labels = list(labels)
    ones = {n: Fraction(1) for n in labels}
    if qfun(ones) != 0:
        return False
    for _ in range(trials):
        const = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if qfun({n: const for n in labels}) != 0:
            return False
        psi = {
            n: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for n in labels
        }
        clipped = {n: min(v, Fraction(1)) for n, v in psi.items()}
        if qfun(clipped) > qfun(psi):
            return False
    return True


def constant_value(c):
    """The Fraction that a constant RatFunc stands for."""
    assert len(c.n) <= 1 and len(c.d) == 1, f"{c} is not a constant"
    return Fraction(c.n[0], c.d[0]) if c.n else Fraction(0)


def markov_check_real(form, trials, rng=None):
    """Sampled Markov-property check for a form with constant coefficients."""
    if rng is None:
        rng = random.Random(0)
    for c in form.coeffs.values():
        if len(c.n) > 1 or len(c.d) > 1:
            raise NonConstantCoefficients(f"coefficient {c} is not degree 0")

    def qfun(psi):
        return constant_value(evaluate(form, {n: from_rat(v) for n, v in psi.items()}))

    return sample_markov_property(qfun, form.support, trials, rng)


def rand_coefficient(rng):
    """A random element of Q(s) positive on s > 0: numerator and denominator
    of degree at most 2 with nonnegative integer coefficients."""
    def poly():
        coeffs = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        coeffs[rng.randrange(len(coeffs))] = rng.randint(1, 3)
        return coeffs
    return RatFunc(poly(), poly())


def rand_corel(rng, m, n):
    """A random partition of m + n indices."""
    total = m + n
    if total == 0:
        return Corelation(0, 0, [])
    k = rng.randint(1, total)
    assignment = [rng.randrange(k) for _ in range(total)]
    blocks = {}
    for idx, b in enumerate(assignment):
        blocks.setdefault(b, []).append(idx)
    return Corelation(m, n, blocks.values())


def rand_cospan(rng, m, n, apex):
    """Random leg images for a cospan m -> apex <- n."""
    i_images = [rng.randrange(apex) for _ in range(m)]
    o_images = [rng.randrange(apex) for _ in range(n)]
    return i_images, o_images


def gauss_jordan(rows, ncols):
    """Reduced row-echelon form by plain Gauss-Jordan, taking the first
    nonzero entry of each column as its pivot; zero rows dropped.  The
    reference that ``lagrel.rref`` must reproduce exactly."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inv()
        mat[rank] = [e * inv for e in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return [tuple(r) for r in mat[:rank]]


def dense(rows, ncols):
    """Sparse {column: entry} rows as dense tuples of ``ncols`` entries."""
    return [tuple(r.get(c, ZERO) for c in range(ncols)) for r in rows]


def omega(u, v, pairing):
    """The symplectic form on two dense rows, port by port, for a pairing of
    (phi column, iota column, sign) triples:
    sum_x sign_x (v[iota_x] u[phi_x] - u[iota_x] v[phi_x]).  The reference
    for the sparse isotropy check in ``lagrel``."""
    acc = ZERO
    for phi, iota, sgn in pairing:
        t = v[iota] * u[phi] - u[iota] * v[phi]
        acc = acc + t if sgn > 0 else acc - t
    return acc


def reference_lagrangian(rows, ncols, pairing):
    """True iff the rows span a subspace of half the dimension ``ncols`` on
    which ``omega`` vanishes for every pair of rows of its ``gauss_jordan``
    form."""
    red = gauss_jordan(rows, ncols)
    return 2 * len(red) == ncols and not any(omega(u, v, pairing) for u in red for v in red)


def reference_nullspace(rows, ncols):
    """The canonical nullspace basis read off ``gauss_jordan``: one vector
    per free column, with a 1 there and minus that column of the reduced
    rows at their pivots."""
    red = gauss_jordan(rows, ncols)
    pivots = [next(k for k, e in enumerate(r) if e) for r in red]
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [ZERO] * ncols
            vec[free] = ONE
            for r, p in zip(red, pivots):
                vec[p] = -r[free]
            basis.append(vec)
    return basis


def kirchhoff_matrix(nn, edges, ports):
    """The dense rows of the Kirchhoff/Ohm oracle's system for nn nodes,
    edges (a, b, impedance) between node indices and ports at node indices,
    over columns [node potentials, edge currents, port shares]: one Ohm row
    per edge (its impedance and +-1 at its two ends), then one current-law
    row of +-1 incidences per node."""
    ne = len(edges)
    width = nn + ne + len(ports)
    mat = []
    for k, (a, b, z) in enumerate(edges):
        row = [ZERO] * width
        row[nn + k] = z
        row[a] = row[a] + ONE
        row[b] = row[b] - ONE
        mat.append(row)
    for x in range(nn):
        row = [ZERO] * width
        for k, (a, b, _) in enumerate(edges):
            if b == x:
                row[nn + k] = row[nn + k] + ONE
            if a == x:
                row[nn + k] = row[nn + k] - ONE
        for p, at in enumerate(ports):
            if at == x:
                row[nn + ne + p] = -ONE
        mat.append(row)
    return mat


def circuit_kirchhoff_matrix(g):
    """``kirchhoff_matrix`` for a circuit, its inputs before its outputs."""
    at = {lab: k for k, lab in enumerate(g.graph.nodes)}
    edges = [(at[a], at[b], z) for a, b, z in g.graph.edges]
    return kirchhoff_matrix(len(at), edges, [at[p] for p in (*g.inputs, *g.outputs)])


def rand_oracle_matrix(rng):
    """A wide, very sparse ``kirchhoff_matrix`` with 10-40 columns on random
    edges and ports.  Zero rows and duplicate rows make it more rank
    deficient, and the rows come shuffled."""
    while True:
        nn, ne, np_ = rng.randint(2, 12), rng.randint(1, 24), rng.randint(0, 3)
        if 10 <= nn + ne + np_ <= 40:
            break
    ends = [(rng.randrange(nn), rng.randrange(nn)) for _ in range(ne)]
    ports = [rng.randrange(nn) for _ in range(np_)]
    mat = kirchhoff_matrix(nn, [(a, b, rand_impedance(rng)) for a, b in ends], ports)
    width = nn + ne + np_
    mat += [[ZERO] * width for _ in range(rng.randint(0, 2))]
    mat += [list(rng.choice(mat)) for _ in range(rng.randint(1, 3))]
    rng.shuffle(mat)
    return mat


def ladder_circuit(rng, rungs, series="R", shunt="C", two_node=False):
    """n0 -[series]- n1 - ... - nN with a shunt element from each nk to gnd,
    the series kinds cycling through ``series``, random values.  Driven from
    n0 to nN, or with ``two_node`` from (n0, gnd) to (nN, gnd)."""
    nodes = [f"n{k}" for k in range(rungs + 1)] + ["gnd"]
    edges = []
    for k in range(1, rungs + 1):
        kind = series[(k - 1) % len(series)]
        edges.append((f"n{k - 1}", f"n{k}", impedance(kind, rand_rat(rng))))
        edges.append((f"n{k}", "gnd", impedance(shunt, rand_rat(rng))))
    ends = ["gnd"] if two_node else []
    return circuit(nodes, edges, ["n0", *ends], [f"n{rungs}", *ends])


def mesh_circuit(rng, side, two_node=False, kinds="RLC"):
    """A side x side grid of random edges of the given kinds, driven corner
    to corner, or with ``two_node`` from the first column's two ends to the
    last's."""
    cell = [[f"r{i}c{j}" for j in range(side)] for i in range(side)]
    edges = []
    for i in range(side):
        for j in range(side):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < side and b < side:
                    edges.append((cell[i][j], cell[a][b],
                                  impedance(rng.choice(kinds), rand_rat(rng))))
    first, last = [cell[0][0]], [cell[-1][-1]]
    if two_node:
        first, last = [cell[0][0], cell[-1][0]], [cell[0][-1], cell[-1][-1]]
    return circuit([x for row in cell for x in row], edges, first, last)


def rand_entry(rng):
    """Zero, an impedance, or a sum or product of two (degree up to 2)."""
    pick = rng.random()
    if pick < 0.3:
        return ZERO
    if pick < 0.6:
        return rand_impedance(rng)
    if pick < 0.8:
        return rand_impedance(rng) + rand_impedance(rng)
    return rand_impedance(rng) * rand_impedance(rng)


def rand_degenerate_matrix(rng, rows, cols):
    """A random matrix over Q(s) with nonconstant entries, made rank
    deficient by extra combinations of its rows, zero rows and duplicate
    rows, in shuffled order."""
    mat = [[rand_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(mat), rng.choice(mat)
        ca, cb = rand_impedance(rng), rand_entry(rng)
        mat.append([ca * x + cb * y for x, y in zip(a, b)])
    mat += [[ZERO] * cols for _ in range(rng.randint(0, 1))]
    mat += [list(rng.choice(mat)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(mat)
    return mat


def reference_current_generators(corel):
    """The current generators of ``symplectify`` as the nullspace of the block
    constraints: in each block the currents entering from X sum to those
    leaving into Y.  The reference for the generators that ``lagrel`` builds
    directly, one per further port of a block."""
    m, n = corel.left_size, corel.right_size
    constraint = [{k: ONE if k < m else -ONE for k in block} for block in corel.blocks]
    # Port k of X+Y has its current at column m + k (X) or m + n + k (Y).
    cols = [m + k if k < m else m + n + k for k in range(m + n)]
    return [embed(vec, cols) for vec in nullspace(constraint, m + n)]


def composed_cospan_relation(lc):
    """``behavior.cospan_relation`` by its composed definition: the name of the
    cospan's decoration, composed with the symplectified boundary and then
    with twist(V_X) (x) id(V_Y), is a relation 0 -> conj(V_X) (+) V_Y, reread
    as V_X -> V_Y with no sign changed.  Both composites are taken by
    ``reference_compose``.  The reference for the composite rows and the
    twist that ``cospan_relation`` applies to them."""
    nodes = lc.nodes
    m, n = len(lc.inputs), len(lc.outputs)
    index = {lab: k for k, lab in enumerate(nodes)}
    boundary = corel_from_cospan([index[p] for p in (*lc.inputs, *lc.outputs)],
                                 list(range(len(nodes))))
    onto_ports = reference_compose(subspace_as_relation(lc.sub, port_space(len(nodes))),
                                   symplectify(dagger_corelation(boundary)))
    tw = tensor_relations(twist(port_space(m)), identity_relation(port_space(n)))
    name = reference_compose(onto_ports, tw)
    # [phi x, phi y, iota x, iota y] -> [phi x, iota x, phi y, iota y]
    cols = [*range(m), *range(2 * m, 2 * m + n), *range(m, 2 * m), *range(2 * m + n, 2 * (m + n))]
    rows = [embed(r, cols) for r in name.sub.sparse]
    return LagrangianRelation(port_space(m), port_space(n), rows)


# -- operations the law tests use as oracles; no verb needs them -------------


def evaluate(form, psi):
    """The exact field value of the form at the potential psi."""
    total = ZERO
    for (i, j), c in form.coeffs.items():
        d = psi[i] - psi[j]
        if d:
            total = total + c * d * d
    return total


def dagger_corelation(a):
    """The same partition read as a morphism Y -> X."""
    nx, ny = a.left_size, a.right_size

    def swap(k):
        return k + ny if k < nx else k - nx

    return Corelation(ny, nx, [[swap(k) for k in blk] for blk in a.blocks])


def merge_parallel_edges(graph):
    """Collapse each parallel bundle to one edge with 1/Z'' = sum of 1/Z.

    Self-loops contribute nothing to the power functional and are deleted.
    The collapsed edge runs between the sorted node pair.
    """
    bundles = {}
    for src, tgt, z in graph.edges:
        if src == tgt:
            continue
        key = (min(src, tgt), max(src, tgt))
        bundles.setdefault(key, []).append(z)
    edges = []
    for (a, b), zs in sorted(bundles.items()):
        acc = zs[0].inv()
        for z in zs[1:]:
            acc = acc + z.inv()
        edges.append((a, b, acc.inv()))
    return LabelledGraph(graph.nodes, edges)


def pushforward_lagrangian(f, domain, sub, codomain):
    """The image of a Lagrangian subspace of V_S under S(f) for f: S -> M.

    The corelation of f is that of the cospan S -> M <- M of f and the
    identity: an element of M outside the image of f is a singleton block.
    """
    domain = tuple(domain)
    index = {lab: k for k, lab in enumerate(codomain)}
    images = [index[f[n]] for n in domain]
    corel = corel_from_cospan(images, range(len(codomain)))
    name = subspace_as_relation(sub, port_space(len(domain)))
    return compose_relations(name, symplectify(corel)).sub


def compose_lagr_cospans(a, b):
    """Pushout of cospans; the decorations' direct sum is pushed forward."""
    map1, map2, nodes = pushout(a.nodes, a.outputs, b.nodes, b.inputs)
    # The disjoint union is indexed by position, so no label can collide.
    union = tensor_relations(
        subspace_as_relation(a.sub, port_space(len(a.nodes))),
        subspace_as_relation(b.sub, port_space(len(b.nodes))),
    )
    f = [map1[n] for n in a.nodes] + [map2[n] for n in b.nodes]
    pushed = pushforward_lagrangian(f, range(len(f)), union.sub, nodes)
    return LagrCospan(
        tuple(map1[p] for p in a.inputs),
        tuple(map2[p] for p in b.outputs),
        nodes,
        pushed,
    )


def reference_compose(first, second):
    """``compose_relations`` by the constraint nullspace alone: the stacked
    generators' coefficients (a, b) with a*G equal to b*H on the shared
    coordinates, each solution projected to the outer coordinates.  The
    reference for every path of ``composite_rows``: the product through the
    second relation's echelon rows, its residual solve and the graph name."""
    a2, b2 = first.source.dim, first.target.dim
    constraint = [{} for _ in range(b2)]
    outer = []
    for j, grow in enumerate(first.sub.sparse):
        outer.append({c: e for c, e in grow.items() if c < a2})
        for c, e in grow.items():
            if c >= a2:
                constraint[c - a2][j] = e
    for j, hrow in enumerate(second.sub.sparse, len(outer)):
        outer.append({a2 - b2 + c: e for c, e in hrow.items() if c >= b2})
        for c, e in hrow.items():
            if c < b2:
                constraint[c][j] = -e
    rows = []
    for vec in nullspace(constraint, len(outer)):
        row = {}
        for j, f in vec.items():
            for c, e in outer[j].items():
                row[c] = row.get(c, ZERO) + f * e
        rows.append(row)
    return LagrangianRelation(first.source, second.target, rows)


def rung_sections(g):
    """A ``ladder_circuit`` cut into its rungs: two-ports with a series edge
    a-b and a shunt edge b-g, inputs (a, g) and outputs (b, g)."""
    edges = g.graph.edges
    return [circuit(["a", "b", "g"], [("a", "b", edges[k][2]), ("b", "g", edges[k + 1][2])],
                    ["a", "g"], ["b", "g"])
            for k in range(0, len(edges), 2)]


def mesh_columns(g, side):
    """A ``mesh_circuit`` cut into columns: block j holds the edges leaving
    column j and meets its neighbours on whole columns; the first block's
    input and the last block's output are the mesh's own ports."""
    blocks = []
    for j in range(side):
        col = [f"r{i}c{j}" for i in range(side)]
        nxt = [f"r{i}c{j + 1}" for i in range(side)] if j + 1 < side else []
        mine = [e for e in g.graph.edges if e[0] in col]
        blocks.append(circuit(col + nxt, mine, g.inputs if j == 0 else col, nxt or g.outputs))
    return blocks


def _ref_primitive(a):
    c = gcd(*a)
    return tuple(x // c for x in a)


def _ref_prem(a, b):
    """lc(b)^k·a minus a multiple of b, of degree below b's."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        r = [lb * x for x in r]
        for j in range(db):
            r[k - db + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def reference_port_relation(form, inputs, outputs):
    """``behavior.port_relation`` by one nullspace of the whole form, with
    no Kron reduction: the reference for the production route, which reads
    the relation off the Kron-reduced form.

    Unknowns are one current share per port (inputs first, then outputs),
    then the potentials on the support.  Each support node b contributes the
    Kirchhoff row  sum_j 2 c_bj (phi_b - phi_j) - sum_{ports p at b} share_p
    = 0: the shares of a repeated terminal split the current dQ_b that leaves
    it, and a node without ports passes no current.  Each basis vector is
    read as [phi_in, -share_in, phi_out, share_out].
    """
    nodes = form.support
    m, n = len(inputs), len(outputs)
    col = {lab: m + n + x for x, lab in enumerate(nodes)}
    rows = {lab: {} for lab in nodes}
    for (i, j), c in form.coeffs.items():
        a, b, t = col[i], col[j], TWO * c
        rows[i][a] = rows[i].get(a, ZERO) + t
        rows[i][b] = rows[i].get(b, ZERO) - t
        rows[j][b] = rows[j].get(b, ZERO) + t
        rows[j][a] = rows[j].get(a, ZERO) - t
    for p, lab in enumerate(tuple(inputs) + tuple(outputs)):
        if lab not in rows:
            raise NodeNotInSupport(f"port {lab!r} not in the support of the form")
        rows[lab][p] = MINUS_ONE
    cols = [col[p] for p in inputs] + [col[p] for p in outputs]
    vecs = nullspace(list(rows.values()), m + n + len(nodes))
    return _port_behavior(vecs, cols, range(m + n), m)


def reference_eliminate_interior(form, boundary):
    """``dirichlet._eliminate_interior`` one ``eliminate_node`` per interior
    node: each step recounts every interior node's incident coefficients in
    the current form and takes the fewest, ties to the smaller label.  The
    reference for the kernel, which keeps one adjacency map instead.
    Returns the reduced form and, per step, the node with its incident
    coefficients."""
    interior = set(form.support) - set(boundary)
    steps = []
    while interior:
        incident = {n: {} for n in interior}
        for (i, j), c in form.coeffs.items():
            if i in incident:
                incident[i][j] = c
            if j in incident:
                incident[j][i] = c
        n = min(interior, key=lambda x: (len(incident[x]), x))
        steps.append((n, incident[n]))
        form = eliminate_node(form, n)
        interior.remove(n)
    return form, steps


def reference_gcd(a, b):
    """The primitive gcd of two int-tuple polynomials, leading coefficient
    positive, ``()`` when both are zero: the primitive pseudo-remainder
    sequence alone, the reference for ``field.poly_gcd``."""
    if len(a) < len(b):
        a, b = b, a
    if not a:
        return ()
    a = _ref_primitive(a)
    while b:
        if len(b) == 1:
            return (1,)
        b = _ref_primitive(b)
        a, b = b, _ref_prem(a, b)
    return a if a[-1] > 0 else tuple(-x for x in a)


_REF_TERM = re.compile(r"^([+-]?)(?:(\d+)\*?)?(s)?(?:\^(\d+))?\Z")


def _ref_parse_poly(text, line):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for k, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and k != len(text) - 1:
                    break
        else:
            text = text[1:-1].strip()
    if not text:
        raise ParseError(line, "empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ParseError(line, f"cannot parse polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _REF_TERM.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError(line, f"bad term {chunk!r}")
        sign, digits, svar, exp = m.groups()
        if exp is not None and svar is None:
            raise ParseError(line, f"bad term {chunk!r}")
        if max(len(digits or ""), len(exp or "")) > MAX_DIGITS:
            raise ParseError(line, f"number longer than {MAX_DIGITS} digits")
        coef = int(digits) if digits else 1
        if sign == "-":
            coef = -coef
        k = 0 if svar is None else (int(exp) if exp else 1)
        if k > MAX_EXPONENT:
            raise ParseError(line, f"exponent {k} above the cap of {MAX_EXPONENT}")
        coeffs[k] = coeffs.get(k, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def reference_parse_ratfunc(text, line=0):
    """The RatFunc written in ``text``, read by a depth scanner that splits
    at the one top-level ``/`` and strips one pair of parentheses from each
    part: the reference for ``field.parse_ratfunc``, which reads the same
    language with one pattern."""
    text = text.replace(" ", "")
    if not text:
        raise ParseError(line, "empty impedance expression")
    depth = 0
    split_at = None
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(line, "unbalanced parentheses")
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ParseError(line, "more than one top-level '/'")
            split_at = k
    if depth != 0:
        raise ParseError(line, "unbalanced parentheses")
    if split_at is None:
        num, den = _ref_parse_poly(text, line), (1,)
    else:
        num = _ref_parse_poly(text[:split_at], line)
        den = _ref_parse_poly(text[split_at + 1:], line)
    if not den:
        raise ParseError(line, "zero denominator")
    return RatFunc(num, den)
