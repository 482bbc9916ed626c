import resource
import zlib

import hypothesis.strategies as st
import pytest

from qcolour.corpus import CORPUS
from qcolour.graphs import Multigraph


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture
def address_space_cap():
    """Hold the process to 2 GiB of address space past what it maps now,
    so that a table allocated before its cap fires raises MemoryError."""
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + 2**31
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def graph_of(name):
    return CORPUS[name].graph


def rotation_of(name):
    return CORPUS[name].rotation


def complex_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def assert_close(a, b, tol=1e-9, msg=""):
    a, b = complex(a), complex(b)
    scale = max(1.0, abs(a), abs(b))
    assert abs(a - b) <= tol * scale, f"{msg} {a} != {b} (tol {tol})"


def stable_seed(*key):
    """A seed fixed by the key alone: hash() of a str changes per process."""
    return zlib.crc32(repr(key).encode())


@st.composite
def multigraphs(draw):
    """At most 4 vertices and 5 edges; loops, parallel edges, isolated
    vertices and several components all occur."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    return Multigraph(n, tuple(edges))
