"""refold: compress definite logic programs by inventing support
predicates via constraint optimization."""

from .logic import (
    Atom,
    Clause,
    Compound,
    Const,
    LogicError,
    ParseError,
    PredicateRegistry,
    Program,
    Var,
    parse_program,
    render_program,
    variant_equal,
)
from .transform import (
    fold_clause,
    syntactic_equiv,
    unfold,
)
from .candidates import build_search_space, extract_candidates
from .copmodel import encode, decode
from .solver import SolverBudget, solve
from .pipeline import (
    RefactorConfig,
    RefactorReport,
    hypothesis_space_size,
    refactor,
    remove_redundancy_baseline,
)
from .bench import (
    SynthesisLimits,
    SynthesisTask,
    accumulate_background,
    run_benchmark,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Clause",
    "Compound",
    "Const",
    "LogicError",
    "ParseError",
    "PredicateRegistry",
    "Program",
    "RefactorConfig",
    "RefactorReport",
    "SolverBudget",
    "SynthesisLimits",
    "SynthesisTask",
    "Var",
    "accumulate_background",
    "build_search_space",
    "decode",
    "encode",
    "extract_candidates",
    "fold_clause",
    "hypothesis_space_size",
    "parse_program",
    "refactor",
    "remove_redundancy_baseline",
    "render_program",
    "run_benchmark",
    "solve",
    "syntactic_equiv",
    "synthesize",
    "unfold",
    "variant_equal",
]
