"""AllSAT enumeration engines: blocking, non-blocking, and formula-BDD
caching, plus a brute-force oracle and a benchmark harness."""

from .formula import (Clause, CnfFormula, DimacsError, apply_order,
                      from_clause_lists, parse_dimacs, render_dimacs)
from .kernel import Budget, Kernel, LimitExceeded, SolverStats
from .oracle import ModelSet, entails, enumerate_all, subinstance_models
from .blocking import BlockingSolver, replay_decisions, simplify_assignment
from .nonblocking import NonBlockingSolver
from .obdd import ObddStore, count_models, dump, extend_obdd, load
from .bddcache import (BddBlockingSolver, BddSolver, RefreshPolicy,
                       compute_cuts, make_formula)

__all__ = [
    "Clause", "CnfFormula", "DimacsError", "apply_order",
    "from_clause_lists", "parse_dimacs", "render_dimacs",
    "Budget", "Kernel", "LimitExceeded", "SolverStats",
    "ModelSet", "entails", "enumerate_all", "subinstance_models",
    "BlockingSolver", "replay_decisions", "simplify_assignment",
    "NonBlockingSolver",
    "ObddStore", "count_models", "dump", "extend_obdd", "load",
    "BddBlockingSolver", "BddSolver", "RefreshPolicy", "compute_cuts",
    "make_formula",
]

__version__ = "0.1.0"
