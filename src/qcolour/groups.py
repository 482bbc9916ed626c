"""Finite abelian groups with generating characters and the Fourier transform.

A group is a product of cyclic factors with componentwise ring structure,
or the table-driven field of order 4.  All group arithmetic is table-driven
so that every downstream evaluator works uniformly for both flavours.

Functions on Q^d are stored densely in numpy's C order, the first
coordinate most significant: (a_1, ..., a_d) -> sum a_i * q^(d-i), so the
values reshape to a (q,)*d tensor indexed by the tuple itself.  Elements of
a product of cyclic groups are numbered the same way from their digits.

A change of basis of weight functions (the Fourier transform, or an
orthogonal U tensored with itself) is one array function, ``transform``:
it applies a q x q matrix to each of a table's last ``arity`` axes.  Any
axes before those are a batch, one table per entry, as every model sum in
``models`` and ``duality`` reads them: a table with one leading axis more
than its arity carries the batch.  A stack of matrices broadcasts against
that batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "Group",
    "QFunction",
    "cyclic_group",
    "gf4",
    "group_from_name",
    "fourier",
    "negate",
    "convolve",
    "pointwise",
    "transform",
    "transform_by",
    "monochrome_indicator",
    "zero_sum_indicator",
    "orthogonal_submodule",
    "random_orthogonal",
]


@dataclass(frozen=True)
class Group:
    """Finite abelian group of order q with a commutative unital ring structure.

    ``add``, ``mul`` are (q, q) index tables, ``neg`` a length-q table and
    ``chi`` the values of a generating character, so that a -> chi(a*.) runs
    over all characters exactly once.
    """

    name: str
    factors: tuple[int, ...]
    flavour: str  # "cyclic" | "f4"
    q: int
    add: np.ndarray
    neg: np.ndarray
    mul: np.ndarray
    chi: np.ndarray
    sub: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sub", self.add[:, self.neg])

    def fourier_matrix(self) -> np.ndarray:
        return self.chi[self.mul] / math.sqrt(self.q)

    def __str__(self):
        return self.name


def cyclic_group(*factors: int) -> Group:
    """Product of cyclic groups Z_n1 x ... x Z_nr with componentwise ring."""
    if not factors:
        raise ValueError("need at least one cyclic factor")
    if any(n < 1 for n in factors):
        raise ValueError("cyclic factor orders must be positive")
    q = math.prod(factors)
    digits = np.unravel_index(np.arange(q), factors)

    def table(op):
        digit_tables = [op.outer(x, x) % n for x, n in zip(digits, factors)]
        return np.ravel_multi_index(digit_tables, factors)

    add, mul = table(np.add), table(np.multiply)
    neg = np.ravel_multi_index([-x % n for x, n in zip(digits, factors)], factors)
    # element by element over Python ints: a vectorised exp or divide can
    # move the last bits of the character values
    chi = np.array(
        [
            np.prod([np.exp(2j * np.pi * x / n) for x, n in zip(a, factors)])
            for a in zip(*(x.tolist() for x in digits))
        ]
    )
    name = "x".join(str(n) for n in factors)
    return Group(name, tuple(factors), "cyclic", q, add, neg, mul, chi)


def gf4() -> Group:
    """The field with four elements {0, 1, w, wb}; chi(x) = (-1)^(x + x^2)."""
    # indices 0,1,2,3 <-> 0,1,w,wb; addition is xor of indices, negation trivial
    add = np.array([[a ^ b for b in range(4)] for a in range(4)], dtype=np.int64)
    neg = np.arange(4, dtype=np.int64)
    mul = np.array(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int64
    )
    chi = np.array([1.0, 1.0, -1.0, -1.0], dtype=np.complex128)
    return Group("f4", (2, 2), "f4", 4, add, neg, mul, chi)


def group_from_name(spec: str) -> Group:
    """Parse a group description: "3", "2x2", "4", or "f4"."""
    spec = spec.strip().lower()
    if spec == "f4":
        return gf4()
    try:
        factors = tuple(int(part) for part in spec.split("x"))
    except ValueError:
        raise ValueError(f"cannot parse group spec {spec!r}") from None
    return cyclic_group(*factors)


@dataclass(frozen=True)
class QFunction:
    """Dense complex-valued function on Q^d (d = arity).  Axes of
    ``values`` before its q^d entries are a batch, one function per entry,
    as in ``transform``."""

    group: Group
    arity: int
    values: np.ndarray

    def __post_init__(self):
        expected = self.group.q**self.arity
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape[-1:] != (expected,):
            raise ValueError(f"expected {expected} values, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def indicator(cls, group: Group, arity: int, members) -> "QFunction":
        """Indicator of a set of tuples of element indices."""
        vals = np.zeros((group.q,) * arity, dtype=np.complex128)
        for t in members:
            vals[tuple(t)] = 1.0
        return cls(group, arity, vals.reshape(-1))

    @classmethod
    def from_function(cls, group: Group, arity: int, fn) -> "QFunction":
        vals = np.array(
            [fn(t) for t in itertools.product(range(group.q), repeat=arity)],
            dtype=np.complex128,
        )
        return cls(group, arity, vals)

    def as_tensor(self) -> np.ndarray:
        return self.values.reshape(self.values.shape[:-1] + (self.group.q,) * self.arity)

    def support(self) -> list[tuple[int, ...]]:
        nonzero = np.argwhere(np.abs(self.as_tensor()) > 1e-12)
        return [tuple(t) for t in nonzero.tolist()]


def _check_same(f: QFunction, g: QFunction):
    if f.group is not g.group and f.group.name != g.group.name:
        raise ValueError("group mismatch")
    if f.arity != g.arity:
        raise ValueError("arity mismatch")


def transform(M: np.ndarray, table: np.ndarray, arity: int) -> np.ndarray:
    """M applied to each of the last ``arity`` axes of ``table``:
    out[..., i_1, ..., i_d] = sum_j prod_k M[i_k, j_k] table[..., j_1, ..., j_d],
    that is (M tensor ... tensor M) on each table of the batch.

    M may be a stack of (q, q) matrices on its leading axes, which
    broadcast against the table's leading batch axes as in ``np.matmul``;
    a table of arity 0 is a constant, which every matrix fixes."""
    if arity == 1:
        # a weight vector or a stack of them, the common case: one product
        return np.matmul(M, table[..., None])[..., 0]
    if arity == 0:
        return table * np.ones(M.shape[:-2])
    q = M.shape[-1]
    rows = (q ** (arity - 1), q)
    x = table.reshape(table.shape[: table.ndim - arity] + rows)
    for _ in range(arity):
        # M on the last axis, which then leads the others: after arity
        # steps every axis is transformed and back in its place
        x = np.matmul(M, x.swapaxes(-1, -2))
        x = x.reshape(x.shape[:-2] + rows)
    return x.reshape(x.shape[:-2] + (q,) * arity)


def transform_by(f: QFunction, U: np.ndarray) -> QFunction:
    """Apply U tensored with itself arity-many times to f."""
    q = f.group.q
    U = np.asarray(U)
    if U.shape != (q, q):
        raise ValueError(f"matrix must be {q}x{q}, got {U.shape}")
    values = transform(U, f.as_tensor(), f.arity).reshape(f.values.shape)
    return QFunction(f.group, f.arity, values)


def fourier(f: QFunction) -> QFunction:
    return transform_by(f, f.group.fourier_matrix())


def negate(f: QFunction) -> QFunction:
    """f^N(a) = f(-a), componentwise on tuples."""
    arr = f.as_tensor()
    for ax in range(1, f.arity + 1):
        arr = np.take(arr, f.group.neg, axis=-ax)
    return QFunction(f.group, f.arity, arr.reshape(f.values.shape))


def pointwise(f: QFunction, g: QFunction) -> QFunction:
    _check_same(f, g)
    return QFunction(f.group, f.arity, f.values * g.values)


def convolve(f: QFunction, g: QFunction) -> QFunction:
    """(f * g)(a) = sum_b f(a - b) g(b): f gathered at the index of every
    difference a - b, then summed against g.  Batched functions give one
    convolution per entry of their broadcast batch, in one gather."""
    _check_same(f, g)
    q, d = f.group.q, f.arity
    diff = np.zeros((1, 1), dtype=np.int64)
    for _ in range(d):
        # the index of (a, a') - (b, b') from that of a - b and a' - b'
        diff = diff[:, None, :, None] * q + f.group.sub[None, :, None, :]
        diff = diff.reshape(diff.shape[0] * q, -1)
    fv, gv = np.broadcast_arrays(f.values, g.values)
    # multiplied in place, so the terms keep the gather's layout and each
    # entry of a batch adds them in the order that its own convolution does
    terms = fv[..., diff]
    terms *= gv[..., None, :]
    return QFunction(f.group, d, terms.sum(axis=-1))


def monochrome_indicator(group: Group, arity: int) -> QFunction:
    members = [(a,) * arity for a in range(group.q)]
    return QFunction.indicator(group, arity, members)


def zero_sum_indicator(group: Group, arity: int) -> QFunction:
    coords = np.indices((group.q,) * arity, sparse=True)
    total = reduce(lambda s, x: group.add[s, x], coords, 0)
    return QFunction(group, arity, np.ravel(total == 0))


def orthogonal_submodule(C: QFunction) -> QFunction:
    """Indicator of C-perp = {a : a . c = 0 for all c in C} (ring dot
    product): |C| scans of the q^d entries, which its callers price, as
    they price ``transform``."""
    group, d = C.group, C.arity
    a = np.indices((group.q,) * d, sparse=True)
    perp = np.ones((group.q,) * d, dtype=bool)
    for c in C.support():
        # a . c for every a at once: mul[a_i, c_i] summed over i
        perp &= reduce(lambda s, xy: group.add[s, group.mul[xy]], zip(a, c), 0) == 0
    return QFunction(group, d, perp.reshape(-1))


def random_orthogonal(q: int, seed: int) -> np.ndarray:
    """Deterministic random q x q real orthogonal matrix.

    Composes q Householder reflections built from seeded Gaussian vectors,
    so U @ U.T = I holds to machine precision for any seed.
    """
    rng = np.random.default_rng(seed)
    U = np.eye(q)
    for _ in range(q):
        v = rng.standard_normal(q)
        nrm = v @ v
        if nrm < 1e-12:
            continue
        U = U - np.outer(2.0 / nrm * (U @ v), v)
    return U
