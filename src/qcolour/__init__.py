"""Graph invariants as partition functions of colouring models over finite
abelian groups, with brute-force oracles cross-checking every identity."""

from .graphs import (
    Multigraph,
    Orientation,
    RotationSystem,
    boundary,
    coboundary,
    components,
    default_orientation,
    default_rotation,
    line_graph,
    rank,
    two_stretch,
)
from .groups import (
    Group,
    QFunction,
    convolve,
    cyclic_group,
    fourier,
    gf4,
    group_from_name,
    inverse_fourier,
    negate,
    orthogonal_submodule,
    random_orthogonal,
    transform,
    transform_by,
)
from .models import (
    EdgeModel,
    ModelValue,
    VertexModel,
    VertexWeights,
    edge_partition,
    halfedge_inner,
    orthogonal_invariance_check,
    vertex_partition,
)
from .enumeration import TermCapExceeded

__version__ = "0.1.0"
