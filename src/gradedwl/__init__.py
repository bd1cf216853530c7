"""Graded multimodal logic over finite Kripke models, counting multichannel
message-passing automata, Weisfeiler-Leman color refinement, and the
fixed-point pair-relation oracle, with effective translations between them.
"""

from .errors import (
    FormulaSyntaxError,
    GradedWLError,
    GridCapError,
    InputFormatError,
    ModelDomainError,
    NotFullTypeError,
    RenderSizeError,
    TransitionError,
    VocabularyError,
)
from .kripke import (
    KripkeModel,
    Multiset,
    PointedModel,
    Vocabulary,
    disjoint_union,
)
from .formulas import (
    And,
    Diamond,
    Disjunction,
    Formula,
    Not,
    Prop,
    Top,
    TOP,
    check,
    check_disjunction,
    conjoin_disjunctions,
    equivalent_on,
    modal_depth,
    parse,
    print_formula,
    width,
)
from .typedesc import (
    InternTable,
    TypeDescriptor,
    enumerate_full_types,
    full_type,
    render_type,
    serialize_type,
    tree_model_of_type,
    type_epsilon,
    type_of_width,
)
from .automaton import (
    AutomatonSpec,
    Configuration,
    RunResult,
    Verdict,
    initial_configuration,
    run,
    step,
    type_automaton,
)
from .wl import (
    Coloring,
    classic_wl,
    distinguish,
    distinguishing_formula,
    initial_coloring,
    refine_round,
    refine_to_stable,
)
from .gfp import (
    PairRelation,
    phi_wl_fixpoint,
    phi_wl_step,
    stagewise_agreement,
    wl_equivalent_via_gfp,
)
from .translate import (
    BudgetedEnumerator,
    Budgets,
    automaton_to_disjunction,
    disjunction_to_automaton,
    formula_to_type_disjunction,
    roundtrip_check,
)
from .grid import GridSpec, gen_grid

__version__ = "0.1.0"
