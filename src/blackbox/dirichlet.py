"""Dirichlet forms over Q(s): power functionals and exact node elimination.

A form on a finite node set S is Q(psi) = sum over stored pairs of
c_ij (psi_i - psi_j)^2, with one coefficient per unordered pair.  An edge of
impedance Z contributes 1/(2Z), so the formal gradient of the form is
exactly the boundary current, with no stray factor of two.

Three functions have no verb behind them.  ``eliminate_node``, the closed
form of one minimization written out as it reads, is the step of
``behavior.blackbox_fast``, the untimed reference of the benchmark, which
traces its fill; the acceptance suite checks ``compose_forms``, the
semicategory composition; ``pushforward_form`` glues Dirichlet cospans for
``behavior.compose_dirichlet_cospans``, kept for the fold of forms that
ROADMAP.md plans.
"""

from __future__ import annotations

from .corel import Record
from .errors import EngineError, MissingAssignment, NodeNotInSupport
from .field import TWO, ZERO, half_inverse


def _pair(i, j):
    return (i, j) if i < j else (j, i)


class DirichletForm(Record):
    """A quadratic form sum c_ij (psi_i - psi_j)^2 on an ordered support."""

    __slots__ = ("support", "coeffs")

    def __init__(self, support, coeffs=()):
        support = tuple(sorted(set(support)))
        sset = set(support)
        table = {}
        for (i, j), c in coeffs:
            if i == j:
                raise ValueError("no diagonal coefficients in a Dirichlet form")
            if i not in sset or j not in sset:
                raise ValueError(f"pair ({i}, {j}) outside support")
            key = _pair(i, j)
            c = table.get(key, ZERO) + c
            if c.is_zero():
                table.pop(key, None)
            else:
                table[key] = c
        self.support = support
        self.coeffs = table

    @classmethod
    def _trusted(cls, support, coeffs):
        """The form with a sorted ``support`` tuple and a dict ``coeffs``
        already keyed by ``_pair`` and holding no zero.  Nothing is checked
        or summed."""
        form = cls.__new__(cls)
        form.support = support
        form.coeffs = coeffs
        return form

    def coefficient(self, i, j):
        return self.coeffs.get(_pair(i, j), ZERO)

    def __hash__(self):
        return hash((self.support, tuple(sorted(self.coeffs.items()))))

    def pretty(self, name="Q"):
        if not self.coeffs:
            return f"{name} = 0"
        terms = [
            f"({c})(psi_{i} - psi_{j})^2"
            for (i, j), c in sorted(self.coeffs.items())
        ]
        return f"{name} = " + " + ".join(terms)

    __str__ = pretty

    def __repr__(self):
        return f"<DirichletForm on {self.support}: {self.pretty()}>"


def extended_power_functional(g):
    """The form on all nodes of a circuit: each edge adds 1/(2Z), built by
    ``field.half_inverse``, to its pair.  A self-loop adds nothing, and a
    pair whose parallel edges cancel is dropped, as the constructor does;
    the edges lie on the graph's sorted nodes, so nothing else is checked."""
    coeffs = {}
    for src, tgt, z in g.graph.edges:
        if src == tgt:
            continue
        key = _pair(src, tgt)
        c = half_inverse(z)
        if key in coeffs:
            c = coeffs[key] + c
            if c.is_zero():
                del coeffs[key]
                continue
        coeffs[key] = c
    return DirichletForm._trusted(g.graph.nodes, coeffs)


def gradient(form, psi):
    """The formal differential at psi as a dict: node n -> sum_j 2 c_nj (psi_n - psi_j)."""
    missing = [n for n in form.support if n not in psi]
    if missing:
        raise MissingAssignment(f"no potential assigned at {missing}")
    entries = {n: ZERO for n in form.support}
    for (i, j), c in form.coeffs.items():
        d = psi[i] - psi[j]
        if d:
            t = TWO * c * d
            entries[i] = entries[i] + t
            entries[j] = entries[j] - t
    return entries


def _massless(n, mass):
    """Refuse to eliminate ``n`` when ``mass``, the sum of its incident
    coefficients or of their inverses, is zero."""
    if mass.is_zero():
        raise EngineError(f"node {n!r} cannot be eliminated: its coefficients sum to zero")


def _inverse_mass(n, incident):
    """1 / sum_k c_kn over the nonzero coefficients incident to ``n``."""
    denom = ZERO
    for c in incident.values():
        denom = denom + c
    _massless(n, denom)
    return denom.inv()


def eliminate_node(form, n):
    """The form on S minus {n} given by formal minimization over n.

    Closed form: c'_ij = c_ij + c_in c_jn / sum_k c_kn; a node with no
    incident coefficients is simply dropped.  Nonzero ones that sum to zero
    leave the constraint sum_j c_nj phi_j = 0, which no form expresses, and
    raise ``EngineError``.  Netlist input never gets there: every R/L/C or
    vetted raw ``Z`` coefficient, fill included, is positive at s = 1.
    The form's coefficients are split in two, those incident to n, keyed by
    the neighbour, and the rest, copied as they are.  Each neighbour's
    coefficient is scaled once by 1 / sum_k c_kn, so a fill term costs one
    product; it is added to the coefficient its pair holds, if any, the sum
    is kept only if nonzero, and the form is built by
    ``DirichletForm._trusted``.
    """
    if n not in form.support:
        raise NodeNotInSupport(f"{n} not in support")
    incident = {j if i == n else i: c for (i, j), c in form.coeffs.items() if n in (i, j)}
    coeffs = {pair: c for pair, c in form.coeffs.items() if n not in pair}
    if len(incident) > 1:  # one coefficient makes no pair and cannot cancel
        neighbors = sorted(incident)
        inv_d = _inverse_mass(n, incident)
        for a, i in enumerate(neighbors[:-1]):
            ci = incident[i] * inv_d
            for j in neighbors[a + 1:]:
                c = coeffs.pop((i, j), ZERO) + ci * incident[j]
                if c:
                    coeffs[i, j] = c
    return DirichletForm._trusted(tuple(x for x in form.support if x != n), coeffs)


def _add_fill(adj, i, j, fill):
    """Add ``fill`` to the pair (i, j) of the adjacency map, dropping the
    pair if it cancels."""
    c = adj[i].get(j, ZERO) + fill
    if c.is_zero():
        del adj[i][j], adj[j][i]
    else:
        adj[i][j] = adj[j][i] = c


def _eliminate_interior(form, boundary):
    """Minimize the form over everything outside ``boundary`` (Kron
    reduction) on one adjacency map ``node -> {neighbour: coefficient}``,
    in greedy min-degree order: each step takes the interior node with the
    fewest incident coefficients in the current form, ties going to the
    smaller label.  A step pops the node's incident coefficients and adds
    each fill term c_in c_jn / sum_k c_kn to the pair it lands on, dropping
    a pair that cancels, exactly as ``eliminate_node`` would; one form is
    built at the end.  A node with two coefficients is a series pair: its
    one fill is (1/c_in + 1/c_jn)^-1, the same value, reached by one sum
    since an inverse only swaps numerator and denominator.  With nothing
    interior the input form is returned as it is.

    Returns the reduced form and, per step, the node with its incident
    coefficients at the moment of elimination, from which the tests
    compare elimination orders and back-substitute interior potentials.
    """
    support, bset = set(form.support), set(boundary)
    if not bset <= support:
        raise NodeNotInSupport(f"{sorted(bset - support)} not in support")
    interior = support - bset
    if not interior:
        return form, []
    adj = {n: {} for n in form.support}
    for (i, j), c in form.coeffs.items():
        adj[i][j] = c
        adj[j][i] = c
    steps = []
    while interior:
        n = min(interior, key=lambda x: (len(adj[x]), x))
        interior.remove(n)
        incident = adj.pop(n)
        steps.append((n, incident))
        for i in incident:
            del adj[i][n]
        if len(incident) < 2:
            continue  # no pair to fill, and one nonzero coefficient cannot cancel
        if len(incident) == 2:  # the series law: 1/fill = 1/c_i + 1/c_j
            (i, ci), (j, cj) = incident.items()
            mass = ci.inv() + cj.inv()
            _massless(n, mass)
            _add_fill(adj, i, j, mass.inv())
            continue
        inv_d = _inverse_mass(n, incident)
        neighbors = list(incident.items())
        for a, (i, ci) in enumerate(neighbors[:-1]):
            ci = ci * inv_d
            for j, cj in neighbors[a + 1:]:
                _add_fill(adj, i, j, ci * cj)
    coeffs = {(i, j): c for i, row in adj.items() for j, c in row.items() if i < j}
    return DirichletForm._trusted(tuple(x for x in form.support if x in adj), coeffs), steps


def power_functional(form, boundary):
    """Minimize the form over everything outside ``boundary`` (Kron reduction).

    Interior nodes are eliminated in greedy min-degree order, which keeps
    the fill low: on a ladder it creates at most one new pair.  The result
    is independent of the order.  The reduction runs on one adjacency map
    and builds one form at the end (``_eliminate_interior``), eliminating a
    node with two neighbours by the series law; when nothing is interior the
    input form itself is returned.
    """
    return _eliminate_interior(form, boundary)[0]


def compose_forms(q, p):
    """Semicategory composition: sum the forms, then minimize over T.

    ``q`` lives on S+T and ``p`` on T+U, where T is the intersection of the
    supports; every label of both is in S, T or U, so the boundary S+U is
    their symmetric difference.
    """
    qset, pset = set(q.support), set(p.support)
    total = DirichletForm(qset | pset, [*q.coeffs.items(), *p.coeffs.items()])
    return power_functional(total, sorted(qset ^ pset))


def pushforward_form(f, form, codomain):
    """The form psi -> Q(psi o f) on the codomain of f.

    Coefficients accumulate on image pairs; pairs collapsed by f vanish.
    """
    for n in form.support:
        if n not in f:
            raise ValueError(f"pushforward map undefined at {n}")
    coeffs = []
    for (i, j), c in form.coeffs.items():
        fi, fj = f[i], f[j]
        if fi != fj:
            coeffs.append((_pair(fi, fj), c))
    return DirichletForm(codomain, coeffs)
