"""Co-safe temporal logic: formulas, progression, and automaton compilation."""

from .alphabet import (
    EMPTY_LETTER,
    AlphabetError,
    Letter,
    ObservationSet,
    encode_letter,
    letter,
    letter_key,
)
from .compiler import StateLimitError, compile_dfa
from .dfa import (
    INFINITE,
    DfaError,
    PrunedDistances,
    TotalDfa,
    delta_phi,
    pruned_distances,
)
from .formula import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Eventually,
    Formula,
    FormulaError,
    NegObs,
    Obs,
    Or,
    Top,
    Until,
    atoms,
    canonical,
    conj,
    disj,
    is_good_prefix,
    progress,
)
from .parser import ParseError, parse_formula
