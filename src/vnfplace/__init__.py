"""Power-aware placement of service function chains on substrate networks."""

from .topology import (CPU, FunctionType, Link, NetworkGraph, NodeSpec,
                       PmSpec, PowerParams, ServiceType, TopologyError,
                       default_catalogs, link_delay_from_length,
                       nobel_germany, parse_topology, to_kbps)
from .netstate import (Allocation, AllocationError, FunctionAssignment,
                       NetworkState, Route, StateOverlay, VnfInstance)
from .bih import BIGraph, BIHierarchy, BlockingIsland, build_bih
from .power import (incremental_cost, network_power, pm_power,
                    pm_power_total, switch_power, total_power)
from .placement import (Candidate, DemandOutcome, SolutionSet,
                        bc_place_all, betweenness, place_all)
from .workload import Demand, WorkloadError, generate_demands
from .exact import (ExactLimitError, ExactLimits, ExactSolution, MilpModel,
                    build_model, export_lp, extract_assignment,
                    solve_exact_small, validate_solution)
from .harness import (ALGORITHMS, AggregateRow, ExperimentConfig,
                      HarnessError, MetricsReport, RunResult, emit_csv,
                      load_topology, run_experiment)

__version__ = "0.1.0"
