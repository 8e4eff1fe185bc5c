"""Exact counting of hereditary cohesive subgraphs.

Counts s-defective cliques, s-plexes, and cliques in undirected graphs,
globally, per size range, and per vertex or edge, via a listing engine and
a pivot engine that credits most results combinatorially.
"""

from .graph import (DegeneracyOrder, Graph, ParseError, build_root_neighborhood,
                    collect_candidates, complete_graph, cycle_graph, degeneracy_order,
                    from_edges, load_edge_list, random_gnp)
from .listing import count_by_listing, enumerate_by_listing
from .motifs import (DcliqueState, MotifSpec, PlexState, SpecError, is_hcs, missing_edges,
                     vertex_deficiency)
from .oracle import (OracleInfeasibleError, brute_force_count, brute_force_pivot_check,
                     sweep)
from .pivot import (binom, count_by_pivot, knapsack_counts, select_pivot_dclique,
                    select_pivot_plex)
from .runner import CounterOverflowError, RunStats

__version__ = "0.1.0"

__all__ = [
    "CounterOverflowError", "DcliqueState", "DegeneracyOrder", "Graph", "MotifSpec",
    "OracleInfeasibleError", "ParseError", "PlexState", "RunStats", "SpecError",
    "binom", "brute_force_count", "brute_force_pivot_check",
    "build_root_neighborhood", "collect_candidates", "complete_graph",
    "count_by_listing", "count_by_pivot", "cycle_graph",
    "degeneracy_order", "enumerate_by_listing", "from_edges", "is_hcs",
    "knapsack_counts", "load_edge_list", "missing_edges",
    "random_gnp", "select_pivot_dclique", "select_pivot_plex", "sweep",
    "vertex_deficiency",
]
