"""The black box: from a circuit to the Lagrangian relation it imposes
between potentials and currents at its ports.

``blackbox`` is the production route: Kron-reduce the power functional onto
the terminals, then read the port relation off the reduced form with no
solve (``port_relation``).  Three references compute the same relation and
are cross-checked against it by the tests and by ``check``.  They share the
field and ``nullspace``, which ``blackbox`` never calls; ``blackbox_fast``
also shares ``cospan_relation`` with ``blackbox_categorical``, but not Kron
reduction with ``blackbox``:

* ``blackbox_categorical`` -- the categorical composite, factored through
                              cospans decorated by Dirichlet forms and
                              Lagrangian subspaces; the functor's definition.
                              ``cospan_relation`` composes a cospan's name
                              with its boundary through the k Kirchhoff
                              equations iota = dQ phi and canonicalizes the
                              rows once, in the relation it returns;
* ``blackbox_fast``        -- eliminate interior nodes first, one
                              ``eliminate_node`` each, fewest incident
                              coefficients first, recounted per step, then
                              symplectify the corestricted boundary cospan;
* ``oracle_behavior``      -- assemble the Kirchhoff/Ohm equations per edge
                              and node and solve the linear system outright.

Input ports report current flowing inward (the twist, applied to the
generators, flips their sign); output ports report current flowing outward.

``compose_dirichlet_cospans`` has no verb yet: it is kept for the
compositional fold of Dirichlet cospans that ROADMAP.md plans.  The
composition of Lagrangian cospans, which only the functoriality tests need,
lives with them in ``tests/util.py``.
"""

from __future__ import annotations

from collections import Counter

from .circuits import pushout
from .corel import Record, corel_from_cospan
from .dirichlet import (
    DirichletForm,
    eliminate_node,
    extended_power_functional,
    power_functional,
    pushforward_form,
)
from .errors import NodeNotInSupport, NotAGraph
from .field import MINUS_ONE, ONE, TWO, ZERO
from .lagrel import (
    LagrangianRelation,
    composite_rows,
    graph_of_differential,
    nullspace,
    port_space,
    subspace_as_relation,
    symplectify,
)

# -- decorated cospans -------------------------------------------------------


class DirichletCospan(Record):
    """A cospan of finite sets whose apex carries a Dirichlet form."""

    __slots__ = ("inputs", "outputs", "form")

    def __init__(self, inputs, outputs, form):
        self.inputs = inputs
        self.outputs = outputs
        self.form = form

    @property
    def nodes(self):
        return self.form.support


class LagrCospan(Record):
    """A cospan of finite sets whose apex carries a Lagrangian subspace."""

    __slots__ = ("inputs", "outputs", "nodes", "sub")

    def __init__(self, inputs, outputs, nodes, sub):
        self.inputs = inputs
        self.outputs = outputs
        self.nodes = nodes
        self.sub = sub


def to_dirichlet_cospan(g):
    """Replace the graph decoration by its extended power functional."""
    return DirichletCospan(tuple(g.inputs), tuple(g.outputs), extended_power_functional(g))


def to_lagr_cospan(dc):
    """Replace the Dirichlet form by the graph of its differential."""
    return LagrCospan(
        dc.inputs, dc.outputs, dc.form.support, graph_of_differential(dc.form)
    )


def compose_dirichlet_cospans(a, b):
    """Pushout of cospans, decorations pushed forward and summed."""
    map1, map2, nodes = pushout(a.nodes, a.outputs, b.nodes, b.inputs)
    qa = pushforward_form(map1, a.form, nodes)
    qb = pushforward_form(map2, b.form, nodes)
    form = DirichletForm(nodes, [*qa.coeffs.items(), *qb.coeffs.items()])
    return DirichletCospan(
        tuple(map1[p] for p in a.inputs),
        tuple(map2[p] for p in b.outputs),
        form,
    )


# -- the functor itself --------------------------------------------------------


def cospan_relation(lc):
    """Black-box a Lagrangian cospan: compose its name with the symplectified
    boundary, the corelation from the apex onto the ports, then reread the
    composite's rows 0 -> V_X (+) V_Y as V_X -> V_Y by ``_port_behavior``,
    which applies the twist V_X -> conj(V_X): the input currents are
    negated.  The rows are canonicalized and checked once, in the relation
    returned; the reread is a symplectomorphism, so that check is the one
    the composite would have passed.  Three ``LagrangianRelation``s are
    built: the name, the boundary and the result."""
    nodes = lc.nodes
    m, n = len(lc.inputs), len(lc.outputs)
    index = {lab: k for k, lab in enumerate(nodes)}
    boundary = corel_from_cospan(
        range(len(nodes)),
        [index[p] for p in lc.inputs] + [index[p] for p in lc.outputs],
    )
    name = subspace_as_relation(lc.sub, port_space(len(nodes)))
    rows = composite_rows(name, symplectify(boundary))
    # The composite's columns are [phi x, phi y, iota x, iota y].
    return _port_behavior(rows, range(m + n), range(m + n, 2 * (m + n)), m)


def port_relation(form, inputs, outputs):
    """The relation a Dirichlet form imposes between ports on its support.

    The form is Kron-reduced onto the port nodes, so every node left carries
    a port and the corelation from the nodes onto the ports is a function;
    the relation's m + n generators are then read off the coefficients, in
    the columns [phi in, iota in, phi out, iota out], with no solve:

    * one per port node b, the potential 1 at b: a 1 at the potential of
      every port at b, the current dQ_b = 2 sum_j c_bj on b's first port and
      dQ_j = -2 c_bj on the first port of each neighbour j;
    * one per further port k at b: current moved from b's first port to k,
      the current split of ``symplectify``.

    An input port's current entries are negated (the twist).
    """
    ports = (*inputs, *outputs)
    support = set(form.support)
    for lab in ports:
        if lab not in support:
            raise NodeNotInSupport(f"port {lab!r} not in the support of the form")
    q = power_functional(form, ports)
    m, n = len(inputs), len(outputs)
    first, rows, splits = {}, {}, []
    for p, lab in enumerate(ports):
        # Port p's potential and current columns, and whether it is an input.
        phi, cur, inward = (p, m + p, True) if p < m else (m + p, m + n + p, False)
        if lab in first:
            h, h_in = first[lab]
            rows[lab][phi] = ONE
            splits.append({cur: MINUS_ONE if inward else ONE, h: ONE if h_in else MINUS_ONE})
        else:
            first[lab] = (cur, inward)
            rows[lab] = {phi: ONE}
    for (i, j), c in q.coeffs.items():
        t = TWO * c
        signed = (t, -t)  # indexed by "is an input"
        for a, b in ((i, j), (j, i)):
            (ha, a_in), (hb, b_in) = first[a], first[b]
            rows[a][ha] = rows[a].get(ha, ZERO) + signed[a_in]
            rows[a][hb] = signed[not b_in]
    return LagrangianRelation(port_space(m), port_space(n), [*rows.values(), *splits])


def _port_behavior(vecs, phi_cols, cur_cols, m):
    """The relation V_X -> V_Y spanned by the rows
    [phi in, -current in, phi out, current out] read off sparse vectors:
    the potential of port k at ``phi_cols[k]``, its current at
    ``cur_cols[k]``, inputs (the first m) first."""
    n = len(phi_cols) - m
    src = [*phi_cols[:m], *cur_cols[:m], *phi_cols[m:], *cur_cols[m:]]
    out_rows = [{k: -vec[c] if m <= k < 2 * m else vec[c] for k, c in enumerate(src) if c in vec}
                for vec in vecs]
    return LagrangianRelation(port_space(m), port_space(n), out_rows)


def blackbox(g):
    """The external behavior of a circuit: Kron-reduce the power functional
    onto the terminals and read the port relation off the result."""
    return port_relation(extended_power_functional(g), g.inputs, g.outputs)


def blackbox_categorical(g):
    """The external behavior of a circuit, by the categorical definition."""
    return cospan_relation(to_lagr_cospan(to_dirichlet_cospan(g)))


def _eliminate_fewest_first(q, interior):
    """``q`` with every node of ``interior`` eliminated, one
    ``eliminate_node`` each, fewest incident coefficients in the current form
    first, ties to the smaller label.  The degrees are recounted over the
    current form's pairs at each step, so a fill that appears or a pair that
    cancels counts as the form holds it."""
    interior = set(interior)
    while interior:
        degree = Counter(x for pair in q.coeffs for x in pair)
        n = min(interior, key=lambda x: (degree[x], x))
        interior.remove(n)
        q = eliminate_node(q, n)
    return q


def blackbox_fast(g):
    """The behavior via interior-node elimination of the power functional:
    one ``eliminate_node`` per interior node, so that this reference shares
    no Kron reduction with ``blackbox``, fewest incident coefficients first,
    recounted per step, ties to the smaller label
    (``_eliminate_fewest_first``).  The order does not change the result,
    only the cost: a hub eliminated early, such as a ladder's interior
    ground, would fill its whole neighbourhood."""
    q = extended_power_functional(g)
    q = _eliminate_fewest_first(q, set(q.support) - set(g.boundary))
    return cospan_relation(to_lagr_cospan(DirichletCospan(g.inputs, g.outputs, q)))


def oracle_behavior(g):
    """The behavior by brute force: solve Ohm's law plus Kirchhoff's current
    law as one exact linear system and project onto the port coordinates.

    Unknowns are node potentials, edge currents, and one current share per
    port; shares at a terminal sum to the node's boundary current, matching
    the current-splitting of ideal wires.  ``nullspace`` is told to read
    only the potentials of the port nodes and the shares, so it
    back-substitutes no interior potential or edge current that they do not
    depend on.
    """
    nodes = g.graph.nodes
    edges = g.graph.edges
    ports = list(g.inputs) + list(g.outputs)
    nn, ne = len(nodes), len(edges)
    node_at = {lab: k for k, lab in enumerate(nodes)}

    ohm = []
    kcl = {lab: {} for lab in nodes}
    for k, (src, tgt, z) in enumerate(edges):
        a, b, c = node_at[src], node_at[tgt], nn + k
        row = {c: z, a: ONE}
        row[b] = row.get(b, ZERO) - ONE
        ohm.append(row)
        kcl[tgt][c] = ONE
        kcl[src][c] = kcl[src].get(c, ZERO) - ONE
    for p, lab in enumerate(ports):
        kcl[lab][nn + ne + p] = -ONE

    cols = [node_at[p] for p in ports]
    shares = range(nn + ne, nn + ne + len(ports))
    vecs = nullspace(ohm + list(kcl.values()), nn + ne + len(ports), [*cols, *shares])
    return _port_behavior(vecs, cols, shares, len(g.inputs))


def equivalent(g1, g2):
    """True iff two circuits have exactly the same external behavior."""
    return blackbox(g1) == blackbox(g2)


# -- reporting ------------------------------------------------------------------


def behavior_to_json(g, rel):
    """The JSON document of a behavior: the port labels and the canonical
    rows, each entry printed, read from the sparse rows with "0" for a
    column a row does not hold."""
    width = rel.sub.ncols
    generators = []
    for sparse in rel.sub.sparse:
        row = ["0"] * width
        for col, e in sparse.items():
            row[col] = str(e)
        generators.append(row)
    return {"inputs": list(g.inputs), "outputs": list(g.outputs), "generators": generators}


def as_impedance(rel):
    """For a 1-in/1-out behavior that is the graph of Ohm's law, the scalar Z.

    The canonical matrix of such a behavior is [[1,0,1,0],[0,1,Z,1]]; any
    other shape (short circuits, open circuits, wider interfaces) raises
    NotAGraph.  There are always two rows: a Lagrangian subspace of the
    4-dimensional space of a 1-in/1-out interface has dimension 2.
    """
    if rel.source.num_ports != 1 or rel.target.num_ports != 1:
        raise NotAGraph("behavior is not on a 1-input/1-output interface")
    rows = rel.sub.rows
    ok_first = rows[0] == (ONE, ZERO, ONE, ZERO)
    r = rows[1]
    if not ok_first or r[0] != ZERO or r[1] != ONE or r[3] != ONE:
        raise NotAGraph("behavior does not relate the ports through an impedance")
    if r[2].is_zero():
        # the ideal wire: potentials are not free, so this is no graph
        raise NotAGraph("behavior is a short circuit, not an impedance graph")
    return r[2]
