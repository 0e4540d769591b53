"""Approximately uniform sampling and approximate counting of labeled
simple graphs whose node degrees lie in prescribed intervals."""

from .graphs import (
    BoundExceeded,
    DegreeInterval,
    Graph,
    Infeasible,
    NearRegularParams,
    NotGraphical,
    ParseError,
    intervals_from_observation,
    is_graphical,
    read_edge_list,
    read_intervals,
    read_missing_counts,
    realize,
    realize_in_interval,
    write_edge_list,
    write_intervals,
)
from .chains import (
    DegreeIntervalKernel,
    SwitchHingeFlipKernel,
    SwitchKernel,
    make_rng,
    spawn_rngs,
)

__all__ = [
    "BoundExceeded",
    "DegreeInterval",
    "DegreeIntervalKernel",
    "Graph",
    "Infeasible",
    "NearRegularParams",
    "NotGraphical",
    "ParseError",
    "SwitchHingeFlipKernel",
    "SwitchKernel",
    "intervals_from_observation",
    "is_graphical",
    "make_rng",
    "read_edge_list",
    "read_intervals",
    "read_missing_counts",
    "realize",
    "realize_in_interval",
    "spawn_rngs",
    "write_edge_list",
    "write_intervals",
]
