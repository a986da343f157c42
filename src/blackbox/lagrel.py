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
  structural equality is subspace equality.  Its rows are stored sparse, as
  {column: entry} dicts holding only the nonzeros; ``Subspace.rows`` is the
  dense tuple view, built on first use.
"""

from __future__ import annotations

from itertools import chain, repeat

from .corel import corel_from_function
from .dirichlet import gradient
from .errors import InterfaceMismatch
from .field import ONE, ZERO

# -- matrices over Q(s) ---------------------------------------------------------
#
# Rows are sparse, {column: entry} dicts holding only the nonzeros; a row
# may also arrive as a dense sequence.


def _items(row):
    """The (column, entry) pairs of a sparse or dense row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _sparse(rows):
    """The nonzero rows of a matrix as fresh {column: entry} dicts."""
    out = []
    for r in rows:
        row = {c: e for c, e in _items(r) if e}
        if row:
            out.append(row)
    return out


def _normalized(row, col):
    """The row scaled to a 1 at ``col``, with that entry left out."""
    lead = row.pop(col)
    if lead.is_one():
        return row
    inv = lead.inv()
    return {c: e * inv for c, e in row.items()}


def _add_multiple(row, f, prow):
    """row += f * prow in place, dropping the entries that cancel; returns
    the columns where row gained or lost a nonzero."""
    changed = []
    for c, b in prow.items():
        a = row.get(c)
        if a is None:
            row[c] = f * b
            changed.append(c)
        else:
            a = a + f * b
            if a:
                row[c] = a
            else:
                del row[c]
                changed.append(c)
    return changed


def rref(rows, ncols):
    """Unique reduced row-echelon form of dense or sparse rows, as sparse
    rows in pivot order, each holding its pivot 1; zero rows dropped.

    The pivot of each column is the row whose entry there is simplest (the
    fewest stored coefficients), ties going to the row with the fewest
    nonzeros.  Any nonzero pivot gives the same result: the pivot columns
    are those where the rank of the leading columns grows, and each output
    row is the unique vector of the row space with a 1 in its own pivot
    column and 0 in the others.  The choice only decides how large the
    intermediate entries get.  It stays Gauss-Jordan: on the d x 2d
    matrices it reduces, a forward pass plus a backward pass moved end-to-end
    times by a few percent, faster on some workloads and slower on others.
    """
    todo = _sparse(rows)
    done = []
    for col in range(ncols):
        if not todo:
            break
        live = [i for i, r in enumerate(todo) if col in r]
        if not live:
            continue
        piv = min(live, key=lambda i: (todo[i][col].size(), len(todo[i])))
        prow = _normalized(todo.pop(piv), col)
        for row in chain(done, todo):
            if col in row:
                _add_multiple(row, -row.pop(col), prow)
        prow[col] = ONE
        done.append(prow)
    return done


def nullspace(rows, ncols):
    """A basis of {x : M x = 0} for the matrix with the given rows, as sparse
    {column: entry} vectors: one per free column, with a 1 there.

    Sparse forward elimination, then one backward pass.  Each step takes as
    its pivot, among all entries of the rows not yet pivoted, the one that
    minimizes (stored coefficients, Markowitz product (r - 1)(c - 1),
    column).  Here r counts the nonzeros of the entry's row and c those of
    its column in all rows, a finished row counted as it stood when it was
    pivoted; the product bounds the fill the step can create.  A step
    updates only the rows not yet pivoted and records the finished rows
    holding its column.  Once every row is pivoted, the pivots are walked
    latest first, each row being final by then, and clear their columns
    from the recorded rows.  The basis depends on the pivot choices, the
    subspace does not; every caller canonicalizes it through ``Subspace``.
    """
    mat = _sparse(rows)
    holders = [set() for _ in range(ncols)]  # the rows with a nonzero there
    for i, row in enumerate(mat):
        for c in row:
            holders[c].add(i)

    def key(row):
        r = len(row) - 1
        return min((e.size(), r * (len(holders[c]) - 1), c) for c, e in row.items())

    # One current pivot key per unpivoted nonzero row, recomputed whenever the
    # row or the count of one of its columns changes.  The dict keeps the rows
    # in ascending order, so ties on the key go to the lower row.
    keys = {i: key(row) for i, row in enumerate(mat)}
    pivots = []  # (pivot row without its 1, column, finished rows holding it)
    while keys:
        p = min(keys, key=keys.__getitem__)
        col = keys.pop(p)[2]
        prow = mat[p] = _normalized(mat[p], col)
        touched = holders[col]
        touched.discard(p)
        finished = []
        recount = set()  # columns whose count changed
        for i in touched:
            row = mat[i]
            if i not in keys:
                finished.append(row)
                continue
            for c in _add_multiple(row, -row.pop(col), prow):
                if c in row:
                    holders[c].add(i)
                else:
                    holders[c].discard(i)
                recount.add(c)
            if not row:
                del keys[i]
        pivots.append((prow, col, finished))
        for i in touched.union(*(holders[c] for c in recount)):
            if i in keys:
                keys[i] = key(mat[i])
    for prow, col, finished in reversed(pivots):
        for row in finished:
            _add_multiple(row, -row.pop(col), prow)
    basis = {f: {f: ONE} for f in range(ncols)}
    for prow, col, _ in pivots:
        del basis[col]
        for f, e in prow.items():
            basis[f][col] = -e
    return list(basis.values())


def embed(row, cols):
    """The sparse row with the nonzero entry of a sparse or dense ``row``
    at column k moved to column ``cols[k]``."""
    return {cols[c]: e for c, e in _items(row) if e}


class Subspace:
    """A linear subspace stored as its reduced row-echelon generator matrix:
    ``sparse`` holds the rows as {column: entry} dicts, ``rows`` as tuples."""

    __slots__ = ("ncols", "sparse", "_rows")

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.sparse = rref(rows, ncols)
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            n = self.ncols
            self._rows = tuple(tuple(map(r.get, range(n), repeat(ZERO, n))) for r in self.sparse)
        return self._rows

    @property
    def dim(self):
        return len(self.sparse)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ncols == other.ncols
            and self.sparse == other.sparse
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

    def pairing(self):
        """(phi column, iota column, sign) triples in space layout."""
        n = self.num_ports
        return [(x, n + x, self.signs[x]) for x in range(n)]


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
    # omega(u, v) sums sign * u[c] * v[partner of c] over the nonzeros c of u,
    # the sign being that of the port for a potential, the opposite for a
    # current.  omega(u, u) = 0 for every u, so only distinct pairs are checked.
    partner = {}
    for phi, iota, sgn in pairing:
        partner[phi] = (iota, sgn > 0)
        partner[iota] = (phi, sgn < 0)
    rows = sub.sparse
    for a, u in enumerate(rows):
        terms = [(e, *partner[c]) for c, e in u.items()]
        for v in rows[a + 1:]:
            acc = ZERO
            for e, p, plus in terms:
                f = v.get(p)
                if f is not None:
                    acc = acc + e * f if plus else acc - e * f
            if acc:
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
    return LagrangianRelation(EMPTY_SPACE, space, sub.sparse, _sub=sub)


def _matching_rows(m, other, shift, sign=ONE):
    """Rows equating port x with port ``other + x`` over 4m columns: their
    potentials at columns x and other + x, their currents ``shift`` columns
    further on, the second current times ``sign``."""
    rows = []
    for x in range(m):
        y = other + x
        rows.append({x: ONE, y: ONE})
        rows.append({shift + x: ONE, shift + y: sign})
    return rows


def identity_relation(space):
    m = space.num_ports
    return LagrangianRelation(space, space, _matching_rows(m, 2 * m, m))


def twist(space):
    """The symplectomorphism (phi, i) -> (phi, -i) as a relation V -> conj(V):
    the identity with the target current negated."""
    m = space.num_ports
    return LagrangianRelation(space, space.conj(), _matching_rows(m, 2 * m, m, -ONE))


def cup_relation(space):
    """The unit 0 -> conj(V) (+) V spanned by pairs (v, v)."""
    # A 2m-port space has the layout [phi(2m), iota(2m)].
    m = space.num_ports
    tgt = space.conj().oplus(space)
    return LagrangianRelation(EMPTY_SPACE, tgt, _matching_rows(m, m, 2 * m))


def cap_relation(space):
    """The counit V (+) conj(V) -> 0 spanned by pairs (v, v)."""
    m = space.num_ports
    src = space.oplus(space.conj())
    return LagrangianRelation(src, EMPTY_SPACE, _matching_rows(m, m, 2 * m))


def compose_relations(first, second):
    """The relational composite V1 -> V3 of ``first``: V1 -> V2 and
    ``second``: V2 -> V3.

    When ``second`` is the graph of a map V2 -> V3 (its canonical rows pivot
    on the shared V2 columns, one row each), row c is e_c + S_c with S_c in
    V3, and the composite is spanned by (x, sum_c y_c S_c) over the
    generators (x, y) of ``first``: a sparse product, the chain matrix of
    two-port theory.  When ``first`` is a graph too, these rows are already
    canonical.

    Otherwise generators of both relations are stacked over unknown
    coefficient rows (a, b); the constraint a*G restricted to the shared
    space equals b*H restricted to it is solved exactly, and the solutions
    are projected to the outer coordinates.
    """
    if not first.target.same_shape(second.source):
        raise InterfaceMismatch(
            f"target {first.target!r} does not match source {second.source!r}"
        )
    a2 = first.source.dim
    b2 = first.target.dim
    hrows = second.sub.sparse
    if len(hrows) == b2 and all(min(h) == c for c, h in enumerate(hrows)):
        # S_c moved to the composite's columns; rref left no V2 entry but the 1.
        tails = [{a2 - b2 + k: e for k, e in h.items() if k >= b2} for h in hrows]
        out_rows = []
        for grow in first.sub.sparse:
            row = {}
            for c, e in grow.items():
                if c < a2:
                    row[c] = e
                else:
                    _add_multiple(row, e, tails[c - a2])
            out_rows.append(row)
        return LagrangianRelation(first.source, second.target, out_rows)
    # Columns of the constraint matrix: one per stacked generator; rows: one
    # per shared coordinate.  Solve x . vstack(G|shared, -H|shared) = 0.
    # The rest of each generator, moved to the composite's columns, is what
    # the solutions combine.
    constraint = [{} for _ in range(b2)]
    outer = []
    for j, grow in enumerate(first.sub.sparse):
        outer.append({})
        for c, e in grow.items():
            if c < a2:
                outer[j][c] = e
            else:
                constraint[c - a2][j] = e
    for j, hrow in enumerate(hrows, len(outer)):
        outer.append({})
        for c, e in hrow.items():
            if c < b2:
                constraint[c][j] = -e
            else:
                outer[j][a2 - b2 + c] = e
    out_rows = []
    for vec in nullspace(constraint, len(outer)):
        row = {}
        for j, f in vec.items():
            _add_multiple(row, f, outer[j])
        out_rows.append(row)
    return LagrangianRelation(first.source, second.target, out_rows)


def tensor_relations(first, second):
    """Direct sum under the fixed block-reorder convention."""
    s1, t1 = first.source, first.target
    s2, t2 = second.source, second.target
    src = s1.oplus(s2)
    tgt = t1.oplus(t2)
    m1, m, n1, n = s1.num_ports, src.num_ports, t1.num_ports, tgt.num_ports

    def cols(xs, ys):
        # Where a summand's columns [phi xs, iota xs, phi ys, iota ys] land.
        return [*xs, *(m + x for x in xs), *(2 * m + y for y in ys), *(2 * m + n + y for y in ys)]

    cols1 = cols(range(m1), range(n1))
    cols2 = cols(range(m1, m), range(n1, n))
    rows = [embed(r, cols1) for r in first.sub.sparse]
    rows += [embed(r, cols2) for r in second.sub.sparse]
    return LagrangianRelation(src, tgt, rows)


def dagger_relation(rel):
    """Reverse the relation: swap source and target blocks and count all
    currents from the other side.

    The current negation is the canonical symplectomorphism between each
    port space and its conjugate; without it the reversal of a behavior
    would not match the behavior of the reversed circuit.
    """
    m, n = rel.source.num_ports, rel.target.num_ports
    # [phi src, iota src, phi tgt, iota tgt] -> [phi tgt, iota tgt, phi src, iota src]
    cols = [*range(2 * n, 2 * (n + m)), *range(2 * n)]
    currents = {*range(m, 2 * m), *range(2 * m + n, 2 * (m + n))}
    rows = [{cols[c]: -e if c in currents else e for c, e in r.items()}
            for r in rel.sub.sparse]
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
    m = corel.left_size
    # Port k of X+Y has its potential at column k (X) or m + k (Y).
    return [{k if k < m else m + k: ONE for k in block} for block in corel.blocks]


def _current_generators(corel):
    m, n = corel.left_size, corel.right_size
    # Port k of X+Y has its current at column m + k (X) or m + n + k (Y).  Each
    # further port k of a block balances against the block's first port h.
    col = [m + k if k < m else m + n + k for k in range(m + n)]
    return [{col[k]: ONE, col[h]: -ONE if (h < m) == (k < m) else ONE}
            for h, *rest in corel.blocks for k in rest]


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
