"""Exact symplectic linear algebra: subspaces, Lagrangian relations, and the
symplectification of corelations.

Conventions fixed once and for all:

* The space generated by a port list has coordinates
  [phi_0 .. phi_{m-1}, iota_0 .. iota_{m-1}] and symplectic form
  omega((phi,i),(phi',i')) = sum_x sign_x (i'_x phi_x - i_x phi'_x).
  Conjugation flips the per-port sign; it is metadata, never a coordinate
  change.
* A relation V1 -> V2 stores a subspace of conj(V1) (+) V2 with columns
  [phi source, iota source, phi target, iota target]; isotropy is checked
  against -omega_1 + omega_2.
* Subspaces are kept in reduced row-echelon form, which is unique, so
  structural equality is subspace equality.
"""

from __future__ import annotations

from .corel import corel_from_function
from .dirichlet import gradient
from .errors import InterfaceMismatch
from .field import ONE, ZERO

# -- matrices over Q(s) ---------------------------------------------------------


def rref(rows, ncols):
    """Unique reduced row-echelon form; zero rows dropped."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        if not lead.is_one():
            inv = lead.inv()
            mat[rank] = [e * inv for e in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                row, prow = mat[i], mat[rank]
                mat[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        rank += 1
        if rank == len(mat):
            break
    return [tuple(r) for r in mat[:rank]]


def _pivots(rows):
    out = []
    for r in rows:
        for k, e in enumerate(r):
            if e:
                out.append(k)
                break
    return out


def nullspace(rows, ncols):
    """A canonical basis of {x : M x = 0} for the matrix with the given rows."""
    red = rref(rows, ncols)
    piv = _pivots(red)
    piv_set = set(piv)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for r, p in zip(red, piv):
            if r[free]:
                vec[p] = -r[free]
        basis.append(tuple(vec))
    return basis


class Subspace:
    """A linear subspace stored as its reduced row-echelon generator matrix."""

    __slots__ = ("ncols", "rows")

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.rows = tuple(rref(rows, ncols))

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"<Subspace dim {self.dim} in F^{self.ncols}: {body}>"


# -- symplectic spaces -----------------------------------------------------------


class SymplSpace:
    """The symplectic space generated by an ordered port list, with signs."""

    __slots__ = ("labels", "signs")

    def __init__(self, labels, signs=None):
        self.labels = tuple(labels)
        self.signs = tuple(signs) if signs is not None else (1,) * len(self.labels)
        if len(self.signs) != len(self.labels) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("need one sign of +/-1 per port")

    @property
    def num_ports(self):
        return len(self.labels)

    @property
    def dim(self):
        return 2 * len(self.labels)

    def conj(self):
        return SymplSpace(self.labels, tuple(-s for s in self.signs))

    def oplus(self, other):
        return SymplSpace(self.labels + other.labels, self.signs + other.signs)

    def same_shape(self, other):
        return self.signs == other.signs

    def __eq__(self, other):
        return (
            isinstance(other, SymplSpace)
            and self.labels == other.labels
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.labels, self.signs))

    def __repr__(self):
        marks = "".join("-" if s < 0 else "+" for s in self.signs)
        return f"SymplSpace({list(self.labels)}, {marks})"

    def omega(self, u, v):
        """The symplectic product of two coordinate vectors of this space."""
        return _omega(u, v, self.pairing())

    def pairing(self):
        """(phi column, iota column, sign) triples in space layout."""
        n = self.num_ports
        return [(x, n + x, self.signs[x]) for x in range(n)]


def _omega(u, v, pairing):
    acc = ZERO
    for phi, iota, sgn in pairing:
        t = v[iota] * u[phi] - u[iota] * v[phi]
        if t:
            acc = acc + (t if sgn > 0 else -t)
    return acc


def _relation_pairing(source, target):
    """Column pairing for [phi src, iota src, phi tgt, iota tgt] layout,
    with source signs flipped (the conjugate side of the ambient)."""
    m, n = source.num_ports, target.num_ports
    pairs = [(k, m + k, -source.signs[k]) for k in range(m)]
    pairs += [(2 * m + k, 2 * m + n + k, target.signs[k]) for k in range(n)]
    return pairs


EMPTY_SPACE = SymplSpace(())


def port_space(count, prefix="x"):
    return SymplSpace(tuple(f"{prefix}{k}" for k in range(count)))


def _isotropic_half(sub, pairing, half):
    if sub.dim != half:
        return False
    rows = sub.rows
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            if _omega(rows[a], rows[b], pairing):
                return False
    return True


def is_lagrangian(sub, space):
    """True iff the subspace is isotropic of half the ambient dimension."""
    if sub.ncols != space.dim:
        raise ValueError("subspace does not live in the given space")
    return _isotropic_half(sub, space.pairing(), space.num_ports)


# -- Lagrangian relations ---------------------------------------------------------


class LagrangianRelation:
    """A Lagrangian subspace of conj(source) (+) target, read as a morphism.

    Construction canonicalizes the generators and always verifies the
    Lagrangian property, so every relation in existence is a safe one.
    """

    __slots__ = ("source", "target", "sub")

    def __init__(self, source, target, rows, _sub=None):
        self.source = source
        self.target = target
        sub = _sub if _sub is not None else Subspace(rows, source.dim + target.dim)
        half = source.num_ports + target.num_ports
        if not _isotropic_half(sub, _relation_pairing(source, target), half):
            raise ValueError(
                f"generators do not span a Lagrangian subspace "
                f"(dim {sub.dim}, expected {half})"
            )
        self.sub = sub

    @property
    def matrix(self):
        return self.sub.rows

    def __eq__(self, other):
        return (
            isinstance(other, LagrangianRelation)
            and self.source.signs == other.source.signs
            and self.target.signs == other.target.signs
            and self.sub == other.sub
        )

    def __hash__(self):
        return hash((self.source.signs, self.target.signs, self.sub))

    def column_names(self):
        out = [f"phi({x})" for x in self.source.labels]
        out += [f"i({x})" for x in self.source.labels]
        out += [f"phi({y})" for y in self.target.labels]
        out += [f"i({y})" for y in self.target.labels]
        return out

    def pretty(self):
        lines = [
            f"relation {self.source.num_ports} -> {self.target.num_ports}",
            "columns: " + " ".join(self.column_names()),
        ]
        for r in self.sub.rows:
            lines.append("[" + ", ".join(str(e) for e in r) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return f"<LagrangianRelation {self.source.num_ports}->{self.target.num_ports}>"


def subspace_as_relation(sub, space):
    """Read a Lagrangian subspace of V as its name, a relation 0 -> V."""
    return LagrangianRelation(EMPTY_SPACE, space, sub.rows, _sub=sub)


def identity_relation(space):
    m = space.num_ports
    rows = []
    for x in range(m):
        phi = [ZERO] * (4 * m)
        phi[x] = ONE
        phi[2 * m + x] = ONE
        rows.append(phi)
        cur = [ZERO] * (4 * m)
        cur[m + x] = ONE
        cur[3 * m + x] = ONE
        rows.append(cur)
    return LagrangianRelation(space, space, rows)


def twist(space):
    """The symplectomorphism (phi, i) -> (phi, -i) as a relation V -> conj(V)."""
    m = space.num_ports
    rows = []
    for x in range(m):
        phi = [ZERO] * (4 * m)
        phi[x] = ONE
        phi[2 * m + x] = ONE
        rows.append(phi)
        cur = [ZERO] * (4 * m)
        cur[m + x] = ONE
        cur[3 * m + x] = -ONE
        rows.append(cur)
    return LagrangianRelation(space, space.conj(), rows)


def _paired_copies_rows(m):
    # Subspace {(v, v)} of a 2m-port space, whose layout is [phi(2m), iota(2m)].
    rows = []
    for x in range(m):
        phi = [ZERO] * (4 * m)
        phi[x] = ONE
        phi[m + x] = ONE
        rows.append(phi)
        cur = [ZERO] * (4 * m)
        cur[2 * m + x] = ONE
        cur[3 * m + x] = ONE
        rows.append(cur)
    return rows


def cup_relation(space):
    """The unit 0 -> conj(V) (+) V spanned by pairs (v, v)."""
    tgt = space.conj().oplus(space)
    return LagrangianRelation(EMPTY_SPACE, tgt, _paired_copies_rows(space.num_ports))


def cap_relation(space):
    """The counit V (+) conj(V) -> 0 spanned by pairs (v, v)."""
    src = space.oplus(space.conj())
    return LagrangianRelation(src, EMPTY_SPACE, _paired_copies_rows(space.num_ports))


def _lincomb(coeffs, rows, lo, hi):
    width = hi - lo
    acc = [ZERO] * width
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        for k in range(width):
            e = row[lo + k]
            if e:
                acc[k] = acc[k] + c * e
    return acc


def compose_relations(first, second):
    """The relational composite, via an exact solve on the shared coordinates.

    Generators of both relations are stacked over unknown coefficient rows
    (a, b); the constraint a*G restricted to the shared space equals b*H
    restricted to it is solved exactly, and the solutions are projected to
    the outer coordinates.
    """
    if not first.target.same_shape(second.source):
        raise InterfaceMismatch(
            f"target {first.target!r} does not match source {second.source!r}"
        )
    a2 = first.source.dim
    b2 = first.target.dim
    c2 = second.target.dim
    g = first.sub.rows
    h = second.sub.rows
    # Columns of the constraint matrix: one per stacked generator; rows: one
    # per shared coordinate.  Solve x . vstack(G|shared, -H|shared) = 0.
    constraint = []
    for k in range(b2):
        row = [grow[a2 + k] for grow in g]
        row += [-hrow[k] if hrow[k] else ZERO for hrow in h]
        constraint.append(row)
    out_rows = []
    for vec in nullspace(constraint, len(g) + len(h)):
        alpha, beta = vec[: len(g)], vec[len(g) :]
        out_rows.append(
            _lincomb(alpha, g, 0, a2) + _lincomb(beta, h, b2, b2 + c2)
        )
    return LagrangianRelation(first.source, second.target, out_rows)


def tensor_relations(first, second):
    """Direct sum under the fixed block-reorder convention."""
    s1, t1 = first.source, first.target
    s2, t2 = second.source, second.target
    src = s1.oplus(s2)
    tgt = t1.oplus(t2)
    m1, m2 = s1.num_ports, s2.num_ports
    n1, n2 = t1.num_ports, t2.num_ports
    width = 2 * (m1 + m2) + 2 * (n1 + n2)

    def embed(row, moff, mlen, noff, nlen, mtot, ntot):
        out = [ZERO] * width
        for k in range(mlen):
            out[moff + k] = row[k]
            out[mtot + moff + k] = row[mlen + k]
        for k in range(nlen):
            out[2 * mtot + noff + k] = row[2 * mlen + k]
            out[2 * mtot + ntot + noff + k] = row[2 * mlen + nlen + k]
        return out

    rows = [embed(r, 0, m1, 0, n1, m1 + m2, n1 + n2) for r in first.sub.rows]
    rows += [embed(r, m1, m2, n1, n2, m1 + m2, n1 + n2) for r in second.sub.rows]
    return LagrangianRelation(src, tgt, rows)


def dagger_relation(rel):
    """Reverse the relation: swap source and target blocks and count all
    currents from the other side.

    The current negation is the canonical symplectomorphism between each
    port space and its conjugate; without it the reversal of a behavior
    would not match the behavior of the reversed circuit.
    """
    m, n = rel.source.num_ports, rel.target.num_ports
    rows = [
        r[2 * m : 2 * m + n]
        + tuple(-e if e else e for e in r[2 * m + n :])
        + r[:m]
        + tuple(-e if e else e for e in r[m : 2 * m])
        for r in rel.sub.rows
    ]
    return LagrangianRelation(rel.target, rel.source, rows)


# -- Dirichlet forms as Lagrangian subspaces --------------------------------------


def graph_of_differential(form):
    """The subspace {(phi, dQ_phi)} of the space generated by the support."""
    nodes = form.support
    k = len(nodes)
    rows = []
    for n in nodes:
        indicator = {m: ONE if m == n else ZERO for m in nodes}
        grad = gradient(form, indicator)
        row = [indicator[m] for m in nodes] + [grad[m] for m in nodes]
        rows.append(row)
    return Subspace(rows, 2 * k)


# -- symplectification of corelations ---------------------------------------------


def _phi_generators(corel):
    m, n = corel.left_size, corel.right_size
    width = 2 * (m + n)
    rows = []
    for block in corel.blocks:
        row = [ZERO] * width
        for k in block:
            if k < m:
                row[k] = ONE
            else:
                row[2 * m + (k - m)] = ONE
        rows.append(row)
    return rows


def _current_generators(corel):
    m, n = corel.left_size, corel.right_size
    width = 2 * (m + n)
    constraint = []
    for block in corel.blocks:
        row = [ZERO] * (m + n)
        for k in block:
            row[k] = ONE if k < m else -ONE
        constraint.append(row)
    rows = []
    for vec in nullspace(constraint, m + n):
        row = [ZERO] * width
        for k in range(m):
            row[m + k] = vec[k]
        for k in range(n):
            row[2 * m + n + k] = vec[m + k]
        rows.append(row)
    return rows


def symplectify_potentials(corel):
    """Potentials constant on each block, zero currents: the Phi part."""
    m, n = corel.left_size, corel.right_size
    return Subspace(_phi_generators(corel), 2 * (m + n))


def symplectify_currents(corel):
    """Currents balancing across each block, zero potentials: the I part."""
    m, n = corel.left_size, corel.right_size
    return Subspace(_current_generators(corel), 2 * (m + n))


def symplectify(corel, source=None, target=None):
    """The Lagrangian relation copying potentials and splitting currents."""
    if source is None:
        source = port_space(corel.left_size, "x")
    if target is None:
        target = port_space(corel.right_size, "y")
    if source.num_ports != corel.left_size or target.num_ports != corel.right_size:
        raise InterfaceMismatch("space sizes do not match the corelation")
    rows = _phi_generators(corel) + _current_generators(corel)
    return LagrangianRelation(source, target, rows)


def pushforward_lagrangian(f, domain, sub, codomain=None):
    """The image of a Lagrangian subspace of V_S under S(f) for f: S -> M."""
    domain = tuple(domain)
    if codomain is None:
        codomain = tuple(sorted({f[n] for n in domain}))
    index = {lab: k for k, lab in enumerate(codomain)}
    images = [index[f[n]] for n in domain]
    corel = corel_from_function(images, len(codomain))
    sf = symplectify(corel, SymplSpace(domain), SymplSpace(codomain))
    name = subspace_as_relation(sub, SymplSpace(domain))
    return compose_relations(name, sf).sub
