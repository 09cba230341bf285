"""Complex event processing with cost-based evaluation plans.

Patterns over event streams (sequences, conjunctions, disjunctions,
negation, Kleene closure) are compiled to evaluation plans, event
processing orders or binary join trees, chosen by plan-generation
algorithms working against a statistics catalog.  Two runtimes execute
the plans: a lazy chain automaton for orders and an instance-propagating
tree evaluator; an exhaustive matcher provides ground truth.
"""
from .model import (
    AND,
    ANY_MATCH,
    AttrRef,
    ContractError,
    DataError,
    Event,
    KLEENE,
    Leaf,
    Literal,
    MatchReport,
    MissingStatisticsError,
    NEXT_MATCH,
    NOT,
    OR,
    OperatorNode,
    OrderPlan,
    PARTITION_CONTIGUITY,
    Pattern,
    PatternStructureError,
    Predicate,
    ResourceLimitError,
    SEQ,
    STRICT_CONTIGUITY,
    SelectionStrategy,
    StatisticsCatalog,
    StreamCepError,
    TreeNode,
    TreePlan,
    UnsupportedPatternError,
    join,
    leaf,
    left_deep_tree,
    validate_pattern,
)
from .parser import ParseError, parse_pattern, render_pattern
from .transform import NormalizedConjunct, NormalizedPattern, normalize_pattern
from .plangen import (
    ALGORITHM_NAMES,
    ORDER_ALGORITHMS,
    TREE_ALGORITHMS,
    PlanBundle,
    bundle_from_json,
    bundle_to_json,
    generate_plan,
    plan_cost,
)
from .matching import DEFAULT_KL_CAP
from .nfa import NfaEngine
from .tree_engine import TreeEngine
from .runner import PatternRunner, RunResult
from .oracle import oracle_match
from .stream import (
    StreamSource,
    SyntheticConfig,
    estimate_statistics,
    from_events,
    generate_synthetic,
    ingest_csv,
)
from .corpus import FAMILIES, builtin_corpus, corpus_stream, verify_pattern

__version__ = "0.1.0"
