"""Finite abelian groups with generating characters and the Fourier transform.

A group is a product of cyclic factors with componentwise ring structure,
or the table-driven field of order 4.  All group arithmetic is table-driven
so that every downstream evaluator works uniformly for both flavours.

Functions on Q^d are stored densely with the mixed-radix index convention
"first coordinate most significant": (a_1, ..., a_d) -> sum a_i * q^(d-i).

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
    "inverse_fourier",
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
    labels: tuple[str, ...]
    sub: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sub", self.add[:, self.neg])

    def dot(self, a, b) -> int:
        """Ring dot product of two tuples of element indices."""
        acc = 0
        for x, y in zip(a, b):
            acc = self.add[acc, self.mul[x, y]]
        return int(acc)

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
    tuples = list(itertools.product(*[range(n) for n in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    neg = np.empty(q, dtype=np.int64)
    chi = np.empty(q, dtype=np.complex128)
    for i, a in enumerate(tuples):
        neg[i] = index[tuple((-x) % n for x, n in zip(a, factors))]
        chi[i] = np.prod([np.exp(2j * np.pi * x / n) for x, n in zip(a, factors)])
        for j, b in enumerate(tuples):
            add[i, j] = index[tuple((x + y) % n for x, y, n in zip(a, b, factors))]
            mul[i, j] = index[tuple((x * y) % n for x, y, n in zip(a, b, factors))]
    name = "x".join(str(n) for n in factors)
    labels = tuple(str(t[0]) if len(factors) == 1 else str(t) for t in tuples)
    return Group(name, tuple(factors), "cyclic", q, add, neg, mul, chi, labels)


def gf4() -> Group:
    """The field with four elements {0, 1, w, wb}; chi(x) = (-1)^(x + x^2)."""
    # indices 0,1,2,3 <-> 0,1,w,wb; addition is xor of indices, negation trivial
    add = np.array([[a ^ b for b in range(4)] for a in range(4)], dtype=np.int64)
    neg = np.arange(4, dtype=np.int64)
    mul = np.array(
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.int64
    )
    chi = np.array([1.0, 1.0, -1.0, -1.0], dtype=np.complex128)
    return Group("f4", (2, 2), "f4", 4, add, neg, mul, chi, ("0", "1", "w", "wb"))


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
    """Dense complex-valued function on Q^d (d = arity)."""

    group: Group
    arity: int
    values: np.ndarray

    def __post_init__(self):
        expected = self.group.q**self.arity
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (expected,):
            raise ValueError(f"expected {expected} values, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, group: Group, arity: int) -> "QFunction":
        return cls(group, arity, np.zeros(group.q**arity, dtype=np.complex128))

    @classmethod
    def ones(cls, group: Group, arity: int) -> "QFunction":
        return cls(group, arity, np.ones(group.q**arity, dtype=np.complex128))

    @classmethod
    def delta_zero(cls, group: Group, arity: int = 1) -> "QFunction":
        vals = np.zeros(group.q**arity, dtype=np.complex128)
        vals[0] = 1.0
        return cls(group, arity, vals)

    @classmethod
    def from_table(cls, group: Group, table) -> "QFunction":
        """Build an arity-1 function from a length-q weight table."""
        vals = np.asarray(list(table), dtype=np.complex128)
        return cls(group, 1, vals)

    @classmethod
    def indicator(cls, group: Group, arity: int, members) -> "QFunction":
        """Indicator of a set of tuples of element indices."""
        vals = np.zeros(group.q**arity, dtype=np.complex128)
        for t in members:
            vals[tuple_index(group.q, t)] = 1.0
        return cls(group, arity, vals)

    @classmethod
    def from_function(cls, group: Group, arity: int, fn) -> "QFunction":
        vals = np.array(
            [fn(t) for t in itertools.product(range(group.q), repeat=arity)],
            dtype=np.complex128,
        )
        return cls(group, arity, vals)

    def as_tensor(self) -> np.ndarray:
        return self.values.reshape((self.group.q,) * self.arity)

    def value_at(self, t) -> complex:
        return complex(self.values[tuple_index(self.group.q, t)])

    def support(self) -> list[tuple[int, ...]]:
        q, d = self.group.q, self.arity
        return [
            tuple(index_tuple(q, d, i))
            for i in np.nonzero(np.abs(self.values) > 1e-12)[0]
        ]


def tuple_index(q: int, t) -> int:
    idx = 0
    for a in t:
        idx = idx * q + a
    return idx


def index_tuple(q: int, d: int, idx: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(idx % q)
        idx //= q
    return tuple(reversed(out))


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
    values = transform(U, f.as_tensor(), f.arity).reshape(-1)
    return QFunction(f.group, f.arity, values)


def fourier(f: QFunction) -> QFunction:
    return transform_by(f, f.group.fourier_matrix())


def inverse_fourier(f: QFunction) -> QFunction:
    return transform_by(f, f.group.fourier_matrix().conj())


def negate(f: QFunction) -> QFunction:
    """f^N(a) = f(-a), componentwise on tuples."""
    arr = f.as_tensor()
    for ax in range(f.arity):
        arr = np.take(arr, f.group.neg, axis=ax)
    return QFunction(f.group, f.arity, arr.reshape(-1))


def pointwise(f: QFunction, g: QFunction) -> QFunction:
    _check_same(f, g)
    return QFunction(f.group, f.arity, f.values * g.values)


def convolve(f: QFunction, g: QFunction) -> QFunction:
    """(f * g)(a) = sum_b f(a - b) g(b): f gathered at the index of every
    difference a - b, then summed against g."""
    _check_same(f, g)
    q, d = f.group.q, f.arity
    diff = np.zeros((1, 1), dtype=np.int64)
    for _ in range(d):
        # the index of (a, a') - (b, b') from that of a - b and a' - b'
        diff = diff[:, None, :, None] * q + f.group.sub[None, :, None, :]
        diff = diff.reshape(diff.shape[0] * q, -1)
    return QFunction(f.group, d, (f.values[diff] * g.values).sum(axis=1))


def monochrome_indicator(group: Group, arity: int) -> QFunction:
    members = [(a,) * arity for a in range(group.q)]
    return QFunction.indicator(group, arity, members)


def zero_sum_indicator(group: Group, arity: int) -> QFunction:
    members = []
    for t in itertools.product(range(group.q), repeat=arity):
        if reduce(lambda s, a: group.add[s, a], t, 0) == 0:
            members.append(t)
    return QFunction.indicator(group, arity, members)


def orthogonal_submodule(C: QFunction, max_scan: int = 1 << 20) -> QFunction:
    """Indicator of C-perp = {a : a . c = 0 for all c in C} (ring dot product)."""
    group, d = C.group, C.arity
    if group.q**d > max_scan:
        raise ValueError(f"scan size {group.q**d} exceeds cap {max_scan}")
    members = C.support()
    perp = []
    for a in itertools.product(range(group.q), repeat=d):
        if all(group.dot(a, c) == 0 for c in members):
            perp.append(a)
    return QFunction.indicator(group, d, perp)


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
