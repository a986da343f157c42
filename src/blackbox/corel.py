"""Corelations: partitions of X+Y, the algebra of ideal-wire interconnection;
``merge_map``, the one union-find that every quotient in the package uses;
and ``Record``, the one value base of the engine's immutable values.

Ports are positional, so a corelation is stored over the integer index set
{0 .. |X|+|Y|-1}, with the first ``left_size`` indices belonging to X.
Blocks are canonical: each block sorted ascending, blocks sorted by their
smallest member.

The verbs reach corelations through ``corel_from_cospan`` alone.  The
category's operations (identity, composition, tensor, cup and cap) stay for
the acceptance suite: criterion 11, the functoriality of ``symplectify``
over composition and identities, and criterion 12, the snake identities.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import InterfaceMismatch


class Record:
    """The base of every immutable engine value: a class whose fields are its
    ``__slots__``.  Equality, hashing and repr compare and show those fields,
    in order, and values of different classes never compare equal.  Records
    are immutable by convention; nothing assigns to a field after the value
    is built.  A subclass with an unhashable field (a dict, a list) defines
    its own ``__hash__``.  ``_fields``, an ``attrgetter`` of the slots, is
    built once per class."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


def merge_map(nodes, pairs):
    """Quotient map for the equivalence generated by ``pairs``.

    Each class is named by its smallest member.
    """
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    return {n: find(n) for n in nodes}


def _canonical(blocks):
    out = [tuple(sorted(b)) for b in blocks if b]
    out.sort(key=lambda b: b[0])
    return tuple(out)


class Corelation(Record):
    """A partition of X+Y regarded as a morphism X -> Y."""

    __slots__ = ("left_size", "right_size", "blocks")

    def __init__(self, left_size, right_size, blocks):
        blocks = _canonical(blocks)
        total = left_size + right_size
        seen = [False] * total
        for b in blocks:
            for k in b:
                if not 0 <= k < total or seen[k]:
                    raise ValueError(f"blocks do not partition 0..{total - 1}")
                seen[k] = True
        if not all(seen):
            raise ValueError("blocks do not cover the index set")
        self.left_size = left_size
        self.right_size = right_size
        self.blocks = blocks

    def _name(self, k):
        if k < self.left_size:
            return f"x{k}"
        return f"y{k - self.left_size}"

    def __str__(self):
        body = " ".join(
            "{" + " ".join(self._name(k) for k in b) + "}" for b in self.blocks
        )
        return f"corel {self.left_size} -> {self.right_size} : {body}"

    __repr__ = __str__


def corel_from_cospan(i_images, o_images):
    """The corelation of a cospan X -> N <- Y given by its leg images.

    Two ports are identified iff they map to the same element of the apex;
    apex elements outside the joint image are forgotten.
    """
    groups = {}
    for k, img in enumerate(list(i_images) + list(o_images)):
        groups.setdefault(img, []).append(k)
    return Corelation(len(i_images), len(o_images), groups.values())


def identity_corelation(n):
    return Corelation(n, n, [(k, n + k) for k in range(n)])


def compose_corelations(a, b):
    """Merge X+Y+Z by both partitions, then restrict to X+Z."""
    if a.right_size != b.left_size:
        raise InterfaceMismatch(
            f"cannot compose: {a.right_size} right ports vs {b.left_size} left ports"
        )
    nx, ny, nz = a.left_size, a.right_size, b.right_size
    pairs = [(block[0], k) for block in a.blocks for k in block[1:]]
    pairs += [(block[0] + nx, k + nx) for block in b.blocks for k in block[1:]]
    j = merge_map(range(nx + ny + nz), pairs)
    blocks = {}
    for k in [*range(nx), *range(nx + ny, nx + ny + nz)]:
        blocks.setdefault(j[k], []).append(k if k < nx else k - ny)
    return Corelation(nx, nz, blocks.values())


def tensor_corelations(a, b):
    """Index-shifted disjoint union of the two partitions."""
    nx, ny = a.left_size, a.right_size
    mx, my = b.left_size, b.right_size

    def shift_a(k):
        return k if k < nx else k + mx

    def shift_b(k):
        return k + nx if k < mx else k + nx + ny

    blocks = [[shift_a(k) for k in blk] for blk in a.blocks]
    blocks += [[shift_b(k) for k in blk] for blk in b.blocks]
    return Corelation(nx + mx, ny + my, blocks)


def cup_corelation(n):
    """The corelation 0 -> X+X pairing the two copies of X."""
    return Corelation(0, 2 * n, [(k, n + k) for k in range(n)])


def cap_corelation(n):
    """The corelation X+X -> 0 pairing the two copies of X."""
    return Corelation(2 * n, 0, [(k, n + k) for k in range(n)])
