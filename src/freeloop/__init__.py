"""freeloop: free-groupoid retracts of graph pushouts, with loop certificates.

The package builds, from a pushout of groupoids presented over a common
object set, an explicit free retract of computable rank, and applies it to
finite 1-complex models: two-piece decompositions yield pushout instances,
separation-property failures yield decompositions, and both yield concrete
noncontractible loops whose nontriviality is checkable by free reduction
alone.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .errors import DomainError, SchemaError
from .graphs import (
    DirectedGraph,
    Forest,
    VertexPartition,
    components,
    graph_pushout_with_origins,
    spanning_forest,
)
from .retract import (
    GLetter,
    GWord,
    PushoutInstance,
    RetractReport,
    build_retract,
    include_f,
    rho,
    witness,
)
from .vankampen import (
    Decomposition,
    PbpScenario,
    ZRetractCertificate,
    decomposition_to_instance,
    detect_z_retract,
    pbi_fails,
    pbp_to_decomposition,
)
from .words import (
    Letter,
    Word,
    compose,
    identity,
    invert,
    reduce,
    tree_path,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "DomainError",
    "SchemaError",
    "DirectedGraph",
    "Forest",
    "VertexPartition",
    "components",
    "graph_pushout_with_origins",
    "spanning_forest",
    "GLetter",
    "GWord",
    "PushoutInstance",
    "RetractReport",
    "build_retract",
    "include_f",
    "rho",
    "witness",
    "Decomposition",
    "PbpScenario",
    "ZRetractCertificate",
    "decomposition_to_instance",
    "detect_z_retract",
    "pbi_fails",
    "pbp_to_decomposition",
    "Letter",
    "Word",
    "compose",
    "identity",
    "invert",
    "reduce",
    "tree_path",
]
