"""Solver toolkit for the vertex-deletion problems MDD(min) and MDD(max):
make a distinguished vertex p the unique minimum (resp. maximum) degree
vertex of the remaining induced subgraph, at minimum weight.
"""

from .errors import (BudgetError, InfeasibleError, InputError, MDDError,
                     PreconditionError, VerificationError)
from .graph import (DeletionSet, Graph, Instance, Objective, UNDELETABLE,
                    is_feasible)
from .exact import (OracleConfig, WeightMode, brute_force_optimum, dualize,
                    kregular_min_exact)
from .subroutines import (FDepProblem, dissociation_delete,
                          dominating_set_approx, f_dependent_delete,
                          is_dominating)
from .approx import build_L, mdd_max_logn, mdd_max_logn_trace
from .cubic import (DominationGadget, build_domination_gadget, build_gstar,
                    mdd_max_cubic, mdd_max_cubic_trace,
                    normalize_dominating_set)
from .reductions import (ReductionArtifact, SetSystem, cubic_gadget,
                         lift_solution, mindom_cubic_to_mddmax_cubic,
                         mindom_to_mddmin, project_solution,
                         setcover_to_mddmax_bip, setcover_to_mddmin_bip)
from .generators import (generate_gnp, generate_random_cubic,
                         generate_random_regular, generate_random_setsystem)
from .fileio import (parse_graph, parse_instance, parse_setsystem,
                     parse_solution, serialize_graph, serialize_instance,
                     serialize_setsystem, serialize_solution)
from .bench import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"
