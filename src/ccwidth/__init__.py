"""Clique cover width toolkit: ordered clique covers, exact desk-scale
oracles, factor decompositions into unit incomparability graphs, the greedy
layered two-approximation on incomparability graphs, and Ramsey bounds on
induced-star size."""

from .covers import (
    OrderedCliqueCover,
    cover_width,
    make_cover,
    ordering_width,
    quotient_graph,
    trivial_cover,
    validate_cover,
)
from .decompose import (
    Decomposition,
    Factor,
    block_cover,
    decompose,
    verify_decomposition,
)
from .errors import CCWidthError
from .graphs import (
    Graph,
    build_graph,
    complement,
    components,
    induced_subgraph,
    parse_graph,
    serialize_graph,
)
from .incomparability import (
    ApproxResult,
    LayeredCover,
    approximate_ccw,
    extract_star_certificate,
    greedy_layered_cover,
    random_poset_graph,
)
from .limits import SearchLimits
from .oracles import (
    Orientation,
    StarCertificate,
    bandwidth_exact,
    clique_cover_width_exact,
    enumerate_ordered_covers,
    find_transitive_orientation,
    is_unit_incomparability,
    largest_induced_star,
    unit_intersection_dimension,
    validate_star,
    verify_transitive,
)
from .ramsey import (
    RamseyAnswer,
    check_intersection_bound,
    ramsey_lookup,
    star_bound_from_width,
    verify_ramsey_tiny,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
