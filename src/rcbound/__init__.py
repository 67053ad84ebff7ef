"""Rainbow connection toolkit: checker, exact solver, and a budgeted
constructive colorer for 3-connected graphs."""

from .connectivity import check_fan, find_fan, vertex_connectivity
from .construct import (ConstructionError, ConstructionResult, ExtensionPlan,
                        GrowState, PreconditionError, StepRecord,
                        apply_extension, classify_extension, color_bound,
                        cycle_color_sequence, ear_color_sequence, final_absorb,
                        repair_step, run_constructive, seed_subgraph)
from .graphs import (Graph, GraphFormatError, gen_family, make_graph, norm_edge,
                     parse_graph, serialize_graph, shortest_cycle)
from .rainbow import (BudgetExhaustedError, EdgeColoring, NoColoringError,
                      find_rainbow_witness, parse_coloring, rc_exact, serialize_coloring)

__version__ = "0.1.0"
