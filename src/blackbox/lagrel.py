"""Exact symplectic linear algebra: subspaces, Lagrangian relations, and the
symplectification of corelations.

Conventions fixed once and for all:

* A space of m ports is its tuple of m signs, nothing more: coordinates
  [phi_0 .. phi_{m-1}, iota_0 .. iota_{m-1}] and symplectic form
  omega((phi,i),(phi',i')) = sum_x sign_x (i'_x phi_x - i_x phi'_x).
  Conjugation flips the per-port sign; it is metadata, never a coordinate
  change.  Ports are named by position: source port k is x<k>, target
  port k is y<k>.
* A relation V1 -> V2 stores a subspace of conj(V1) (+) V2 with columns
  [phi source, iota source, phi target, iota target]; isotropy is checked
  against -omega_1 + omega_2.
* Subspaces are kept in reduced row-echelon form, which is unique, so
  structural equality is subspace equality.  Its rows are stored sparse, as
  {column: entry} dicts holding only the nonzeros; ``Subspace.rows`` is the
  dense tuple view, built on each access.  The rows come from ``rref``, or are
  written down reduced by one of four closed forms: ``symplectify``,
  ``graph_of_differential``, ``tensor_relations``, and ``compose_relations``
  of two graphs of maps (the sparse product through the second factor's
  echelon rows, which solves nothing); a closed form hands its rows to
  ``LagrangianRelation`` with ``_reduced=True``.  Every other composite is
  canonicalized by ``rref``.  Either way every ``LagrangianRelation``
  checks the Lagrangian property of its rows when it is built.

The verbs reach relations through ``symplectify``, ``graph_of_differential``
and ``composite_rows``; the benchmark also folds them with
``compose_relations``, ``tensor_relations`` and ``dagger_relation``.
``identity_relation``, ``twist``, ``cup_relation`` and ``cap_relation`` stay
for the acceptance suite: the identity laws (criteria 7 and 11) and the
snake identities (criterion 12), where the symplectified cap equals the
twisted cap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat

from .corel import Record
from .dirichlet import gradient
from .errors import InterfaceMismatch
from .field import MINUS_ONE, ONE, ZERO, _add_product

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


def _negated_normalized(row, col):
    """The row scaled to a -1 at ``col``, with that entry left out."""
    lead = -row.pop(col)
    if lead.is_one():
        return row
    if lead is MINUS_ONE:
        return {c: -e for c, e in row.items()}
    inv = lead.inv()
    return {c: e * inv for c, e in row.items()}


def _add_multiple(row, f, prow):
    """row += f * prow in place, dropping the entries that cancel; returns
    the columns where row gained or lost a nonzero.  Each updated entry is
    formed as one RatFunc (``_add_product``)."""
    changed = []
    get = row.get
    for c, b in prow.items():
        a = get(c)
        if a is None:
            row[c] = f * b
            changed.append(c)
        else:
            a = _add_product(a, f, b)
            if a.n:
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


def nullspace(rows, ncols, read=None):
    """A basis of {x : M x = 0} for the matrix with the given rows, as sparse
    {column: entry} vectors: one per free column, with a 1 there, each
    holding only its entries in the columns ``read`` (every column when
    ``read`` is None).

    Sparse forward elimination, then one backward pass.  Each step takes as
    its pivot, among all entries of the rows not yet pivoted, the one that
    minimizes (stored coefficients, Markowitz product (r - 1)(c - 1),
    column).  Here r counts the nonzeros of the entry's row and c those of
    its column in all rows, a finished row counted as it stood when it was
    pivoted; the product bounds the fill the step can create.  A pivot row
    is stored scaled to -1 at its pivot, so an update adds the row's entry
    times it and the basis reads its entries as they are.  A step
    updates only the rows not yet pivoted and records the finished rows
    holding its column.  A finished row holds free columns and the pivot
    columns of later steps only, and the backward pass turns it into its
    pivot's value in the free columns.  Only the rows the basis reads need
    that: the row of a read pivot column, and, closed transitively in pivot
    order, the row of each later pivot column such a row holds.  Once every
    row is pivoted, those pivots are walked latest first, each row being
    final by then, and clear their columns from the recorded rows that are
    needed; the others are left as they stand.  The basis depends on the
    pivot choices, the subspace does not; every caller canonicalizes it
    through ``Subspace``.
    """
    mat = _sparse(rows)
    holders = [set() for _ in range(ncols)]  # the rows with a nonzero there
    for i, row in enumerate(mat):
        for c in row:
            holders[c].add(i)

    def key(row):
        r = len(row) - 1
        return min((len(e.n) + len(e.d), r * (len(holders[c]) - 1), c) for c, e in row.items())

    # One current pivot key per unpivoted nonzero row, recomputed whenever the
    # row or the count of one of its columns changes.  The dict keeps the rows
    # in ascending order, so ties on the key go to the lower row.
    keys = {i: key(row) for i, row in enumerate(mat)}
    pivots = []  # (pivot row without its 1, column, finished rows holding it)
    pivot_of = {}  # row -> its pivot column
    while keys:
        p = min(keys, key=keys.__getitem__)
        col = pivot_of[p] = keys.pop(p)[2]
        prow = mat[p] = _negated_normalized(mat[p], col)
        touched = holders[col]
        touched.discard(p)
        finished = []
        recount = set()  # columns whose count changed
        for i in touched:
            row = mat[i]
            if i not in keys:
                finished.append(i)
                continue
            for c in _add_multiple(row, row.pop(col), prow):
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
    read = range(ncols) if read is None else set(read)
    need = set(read)  # the read columns and every column a needed row holds
    for prow, col, _ in pivots:
        if col in need:
            need.update(prow)
    for prow, col, finished in reversed(pivots):
        if col in need:
            for i in finished:
                if pivot_of[i] in need:
                    row = mat[i]
                    _add_multiple(row, row.pop(col), prow)
    basis = {f: {f: ONE} if f in read else {} for f in range(ncols)}
    for prow, col, _ in pivots:
        del basis[col]
        if col in read:
            for f, e in prow.items():
                basis[f][col] = e
    return list(basis.values())


def embed(row, cols):
    """The sparse row with the nonzero entry of a sparse or dense ``row``
    at column k moved to column ``cols[k]``."""
    return {cols[c]: e for c, e in _items(row) if e}


class Subspace(Record):
    """A linear subspace stored as its reduced row-echelon generator matrix:
    ``sparse`` holds the rows as {column: entry} dicts, ``rows`` as tuples.

    The constructor reduces any generators by ``rref``; ``_reduced`` takes
    rows that a closed form already wrote reduced.
    """

    __slots__ = ("ncols", "sparse")

    def __init__(self, rows, ncols):
        self.ncols = ncols
        self.sparse = rref(rows, ncols)

    @classmethod
    def _reduced(cls, rows, ncols):
        """The subspace of ``rows`` that are already its reduced row-echelon
        form: sparse, in pivot order, each holding its pivot 1 and no entry
        in another row's pivot column.  Nothing is checked or reduced."""
        sub = cls.__new__(cls)
        sub.ncols = ncols
        sub.sparse = rows
        return sub

    @property
    def rows(self):
        n = self.ncols
        return tuple(tuple(map(r.get, range(n), repeat(ZERO, n))) for r in self.sparse)

    @property
    def dim(self):
        return len(self.sparse)

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)
        return f"<Subspace dim {self.dim} in F^{self.ncols}: {body}>"


# -- symplectic spaces -----------------------------------------------------------


class SymplSpace(Record):
    """The symplectic space F^{2n} of n ports, given by their n signs."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        self.signs = tuple(signs)
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("need one sign of +/-1 per port")

    @property
    def num_ports(self):
        return len(self.signs)

    @property
    def dim(self):
        return 2 * len(self.signs)

    def conj(self):
        return SymplSpace(-s for s in self.signs)

    def oplus(self, other):
        return SymplSpace(self.signs + other.signs)

    def __repr__(self):
        marks = "".join("-" if s < 0 else "+" for s in self.signs)
        return f"SymplSpace({marks})"


@lru_cache(maxsize=128)
def _partners(source_signs, target_signs):
    """For the layout [phi src, iota src, phi tgt, iota tgt], with the source
    signs flipped (the conjugate side of the ambient): column -> (its
    partner column, whether omega adds their product).  A port's potential
    pairs with its current under the port's sign, the current with the
    potential under the opposite one."""
    m, n = len(source_signs), len(target_signs)
    ports = [(k, m + k, -s) for k, s in enumerate(source_signs)]
    ports += [(2 * m + k, 2 * m + n + k, s) for k, s in enumerate(target_signs)]
    partner = {}
    for phi, iota, sgn in ports:
        partner[phi] = (iota, sgn > 0)
        partner[iota] = (phi, sgn < 0)
    return partner


EMPTY_SPACE = SymplSpace(())


@lru_cache(maxsize=128)
def port_space(count):
    return SymplSpace((1,) * count)


def _isotropic_half(sub, partner, half):
    if sub.dim != half:
        return False
    # omega(u, v) sums sign * u[c] * v[partner of c] over the nonzeros c of u,
    # the sign being that of the port for a potential, the opposite for a
    # current.  omega(u, u) = 0 for every u, so only distinct pairs are checked.
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


# -- Lagrangian relations ---------------------------------------------------------


class LagrangianRelation(Record):
    """A Lagrangian subspace of conj(source) (+) target, read as a morphism.

    Construction canonicalizes the generators by ``rref``, unless a closed
    form passes ``_reduced=True`` for rows it wrote already reduced
    (``Subspace._reduced``); it always verifies the Lagrangian property, so
    every relation in existence is a safe one.
    """

    __slots__ = ("source", "target", "sub")

    def __init__(self, source, target, rows, _reduced=False):
        self.source = source
        self.target = target
        ncols = source.dim + target.dim
        sub = Subspace._reduced(rows, ncols) if _reduced else Subspace(rows, ncols)
        half = source.num_ports + target.num_ports
        if not _isotropic_half(sub, _partners(source.signs, target.signs), half):
            raise ValueError(
                f"generators do not span a Lagrangian subspace "
                f"(dim {sub.dim}, expected {half})"
            )
        self.sub = sub

    def column_names(self):
        xs = [f"x{k}" for k in range(self.source.num_ports)]
        ys = [f"y{k}" for k in range(self.target.num_ports)]
        return [f"{q}({p})" for ports in (xs, ys) for q in ("phi", "i") for p in ports]

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
    return LagrangianRelation(EMPTY_SPACE, space, sub.sparse, _reduced=True)


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


def _is_graph(rel, k):
    """True iff the canonical rows of ``rel`` pivot on its first k columns,
    one row each: over the source columns, it is the graph of a map out of
    the source."""
    rows = rel.sub.sparse
    return len(rows) == k and all(min(r) == c for c, r in enumerate(rows))


def composite_rows(first, second):
    """Rows spanning the relational composite V1 -> V3 of ``first``: V1 -> V2
    and ``second``: V2 -> V3, over its columns [V1, V3]; canonical only when
    both factors are graphs of maps.

    The echelon path reads ``second`` through its canonical rows.  A row
    pivoting on a shared column p is e_p + N_p + S_p, with N_p on the free
    shared columns (those that are no row's pivot) and S_p in V3; every
    other row lies in V3 alone.  A generator (x, y) of ``first`` lies over
    ``second`` exactly when its residual y|free - sum_p y_p N_p vanishes,
    and then it composes to (x, sum_p y_p S_p): a sparse product, the chain
    matrix of two-port theory.  The rows in V3 alone are added as they
    are.  So ``nullspace`` solves only the residual, one equation per free
    column and one unknown per generator, and the products are formed for
    its solutions alone.  When every shared column is a pivot nothing is
    solved; when ``second`` is moreover a graph (no row in V3 alone) and
    ``first`` is one too, row c of the product holds its pivot 1 at c < dim
    V1 and nothing else in V1, so the rows are already canonical.

    When ``first`` is a name whose k canonical rows pivot on the k potential
    columns of V2 and ``second`` is not a graph, the graph-name path runs
    instead: ``first`` is the graph of iota = A phi, row j holding column j
    of A at the currents.  A combination sum_t b_t h_t of the rows of
    ``second`` lies over it when its currents equal A times its potentials:
    k equations in the b_t, whose solutions are projected onto V3.
    ``cospan_relation`` takes this path whenever its boundary is no graph.
    On either path ``nullspace`` reads only the unknowns whose outer row
    (the generator's part in V1 and the pivots, or the row's part in V3)
    is nonempty, the only ones the product uses.
    """
    if first.target != second.source:
        raise InterfaceMismatch(
            f"target {first.target!r} does not match source {second.source!r}"
        )
    a2 = first.source.dim
    b2 = first.target.dim
    grows = first.sub.sparse
    hrows = second.sub.sparse
    # rref puts the rows pivoting in V2 first; the others have no V2 entry.
    pivots = []
    for h in hrows:
        p = min(h)
        if p >= b2:
            break
        pivots.append(p)
    second_is_graph = len(pivots) == b2 == len(hrows)
    k = b2 // 2
    if not a2 and not second_is_graph and _is_graph(first, k):
        # One row per current of V2: sum_t b_t (h_t|iota - A h_t|phi) = 0.
        constraint = [{} for _ in range(k)]
        outer = []
        for t, hrow in enumerate(hrows):
            outer.append({})
            for c, e in hrow.items():
                if c >= b2:
                    outer[t][c - b2] = e
                elif c >= k:
                    constraint[c - k][t] = constraint[c - k].get(t, ZERO) + e
                else:
                    for i, a in grows[c].items():
                        if i >= k:
                            constraint[i - k][t] = constraint[i - k].get(t, ZERO) - a * e
        return _combined(nullspace(constraint, len(outer), _nonempty(outer)), outer)
    shift = a2 - b2  # from a column of ``second`` to the composite's
    # S_p in the composite's columns, keyed by p's column in ``first``.
    tails = {a2 + p: {shift + c: e for c, e in h.items() if c >= b2}
             for p, h in zip(pivots, hrows)}
    if len(pivots) < b2:
        # Each generator cut to V1 and the pivots, and its residual, one entry
        # per free column's equation; y_p adds y_p times -N_p to it.
        free = {a2 + c: f for f, c in enumerate(sorted(set(range(b2)) - set(pivots)))}
        heads = {a2 + p: {free[a2 + c]: -e for c, e in h.items() if p < c < b2}
                 for p, h in zip(pivots, hrows)}
        constraint = [{} for _ in free]
        outer = []
        for j, grow in enumerate(grows):
            row, res = {}, {}
            for c, e in grow.items():
                if c in free:
                    f = free[c]
                    res[f] = res[f] + e if f in res else e
                else:
                    row[c] = e
                    if c >= a2:
                        _add_multiple(res, e, heads[c])
            for f, e in res.items():
                if e:
                    constraint[f][j] = e
            outer.append(row)
        grows = _combined(nullspace(constraint, len(outer), _nonempty(outer)), outer)
    out_rows = []
    for grow in grows:
        row = {}
        for c, e in grow.items():
            if c < a2:
                row[c] = e
            else:
                _add_multiple(row, e, tails[c])
        out_rows.append(row)
    return out_rows + [{shift + c: e for c, e in h.items()} for h in hrows[len(pivots):]]


def _nonempty(outer):
    """The unknowns whose outer row is nonempty: the only ones
    ``_combined`` reads."""
    return [j for j, row in enumerate(outer) if row]


def _combined(vecs, outer):
    """The rows sum_j vec_j outer_j, one per vector of ``vecs``."""
    out_rows = []
    for vec in vecs:
        row = {}
        for j, f in vec.items():
            _add_multiple(row, f, outer[j])
        out_rows.append(row)
    return out_rows


def compose_relations(first, second):
    """The relational composite V1 -> V3 of ``first``: V1 -> V2 and
    ``second``: V2 -> V3, spanned by ``composite_rows``.  Its rows are taken
    as reduced when both factors are graphs of maps, and canonicalized by
    ``rref`` otherwise; the Lagrangian check runs on every result."""
    rows = composite_rows(first, second)
    graphs = _is_graph(second, second.source.dim) and _is_graph(first, first.source.dim)
    return LagrangianRelation(first.source, second.target, rows, _reduced=graphs)


def tensor_relations(first, second):
    """Direct sum under the fixed block-reorder convention.

    Both summands' columns land in increasing order on disjoint columns, so
    their canonical rows, merged by pivot, are the canonical rows of the sum.
    """
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
    rows.sort(key=min)
    return LagrangianRelation(src, tgt, rows, _reduced=True)


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
    """The subspace {(phi, dQ_phi)} of the space generated by the support.

    Its rows [I | dQ], the differential at each node's indicator, are
    already reduced."""
    nodes = form.support
    k = len(nodes)
    rows = []
    for x, n in enumerate(nodes):
        grad = gradient(form, {m: ONE if m == n else ZERO for m in nodes})
        row = {x: ONE}
        for y, m in enumerate(nodes):
            if grad[m]:
                row[k + y] = grad[m]
        rows.append(row)
    return Subspace._reduced(rows, 2 * k)


# -- symplectification of corelations ---------------------------------------------


def symplectify(corel):
    """The Lagrangian relation copying potentials and splitting currents.

    Its reduced rows are written down with no solve.  Per block of ports,
    with s = +1 on X and -1 on Y:

    * one potential row, a 1 at the potential of every port of the block;
    * for each port k but the block's last port l, a current row with a 1
      at k's current and -s_k s_l at l's, so that sum_k s_k iota_k = 0.

    The potential rows pivot on each block's first potential, the current
    rows on each current but a block's last; blocks are disjoint, so no
    row has an entry in another's pivot column.
    """
    m, n = corel.left_size, corel.right_size
    # Port k of X+Y has its potential at column k (X) or m + k (Y), its
    # current at column m + k (X) or m + n + k (Y).
    rows = []
    for block in corel.blocks:
        rows.append({k if k < m else m + k: ONE for k in block})
        *rest, last = block
        at = m + last if last < m else m + n + last
        for k in rest:
            rows.append({m + k if k < m else m + n + k: ONE,
                         at: MINUS_ONE if (k < m) == (last < m) else ONE})
    rows.sort(key=min)
    return LagrangianRelation(port_space(m), port_space(n), rows, _reduced=True)
