"""A workbench for classical propositional natural deduction proof terms:
parsing, type checking, reduction, metatheory oracles, and operational
behavior probes for the three classical laws."""

from .terms import (
    Abs, App, Arrow, BOT, Bottom, Case, Conj, Disj, Formula, Inj1, Inj2,
    Mu, Named, PROJ1, PROJ2, Pair, PropVar, Proj1, Proj2, Term, Var,
    apply_sequence, close, free_variables, is_closed, mu_substitute,
    substitute,
)
from .syntax import (
    ParseError, alpha_key, canonical_form, parse_formula, parse_term,
    print_formula, print_term,
)
from .typecheck import (
    Derivation, Judgment, MissingAnnotationError, Mismatch, TypeCheckError,
    UnboundVariableError, check, derivation_to_json, infer,
    validate_derivation,
)
from .reduction import (
    FuelExhausted, ReductTooDeep, ReductionGraph, ReductionStep, Trace,
    normalize, redexes, reduction_graph,
)
from .metatheory import (
    Corpus, PropertyReport, check_confluence, check_strong_normalization,
    check_subject_reduction, curated_corpus, enumerate_typed_terms, run_suite,
    typed_entries,
)
from .behavior import (
    BehaviorReport, Leaf, canonical_terms, probe_exfalso, probe_peirce,
    probe_tertium, search_spine_reduct,
)
