"""Minimum PMU sets and placement for complete network observability.

The library turns a power-system case file into (a) the provably
minimum number of monitors needed to observe every bus, using either
the physical branch structure or an electrical-distance structure, and
(b) concrete bus locations for those monitors derived from the
coupling (singular-vector) structure of the network matrices.
"""

from .cases import (Bus, Branch, PowerCase, dumps_csv_fallback,
                    load_bundled_case, load_case, parse_cdf,
                    parse_csv_fallback)
from .cover import (CoverInstance, Optima, PlacementSolution,
                    enumerate_optima, optimal_count, solve_cover)
from .distance import (ResistanceDistance, electrical_adjacency,
                       grounded_inverse, resistance_matrix)
from .network import BinaryAdjacency, build_ybus, topological_adjacency
from .pipeline import (RunConfig, RunResult, StructureResult, run,
                       run_batch, run_structure)
from .powerflow import (OperatingPoint, flat_point, p_theta_jacobian,
                        solve_power_flow)
from .report import (AverageDistanceProfile, RunArtifacts, average_profile,
                     emit_report, report_dict, report_files)
from .spectral import (Assignment, CouplingRanking, SingularDecomposition,
                       assign_buses, compute_svd, rank_vectors)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
