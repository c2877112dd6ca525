"""The paper's primary contribution: human-readable rule learning.

Feature extraction (Table XV), C4.5 partial decision trees, the PART
rule learner (Frank & Witten 1998), the conflict-rejecting rule-based
classifier, and the month-over-month evaluation harness behind Tables
XVI and XVII.
"""

from .classifier import (
    ConflictPolicy,
    Decision,
    EvaluationResult,
    RuleBasedClassifier,
    record_decision_metrics,
)
from .columnar import ColumnarRuleEvaluator, FeatureCodec
from .dataset import (
    BENIGN_CLASS,
    CLASSES,
    MALICIOUS_CLASS,
    TABLE_XV_SCHEMA,
    Instance,
    TrainingSet,
    unknown_vectors,
)
from .decision_tree import (
    DecisionTree,
    Leaf,
    InnerNode,
    Split,
    SplitSelector,
    entropy,
    make_leaf,
    pessimistic_added_errors,
    subtree_errors,
)
from .evaluation import (
    DEFAULT_TAUS,
    EvaluationRow,
    FullEvaluation,
    MonthlyEvaluation,
    RuleExtractionRow,
    clear_rule_cache,
    evaluate_month_pair,
    full_evaluation,
    learn_rules,
    validate_against_latent,
)
from .features import (
    ALEXA_BINS,
    FEATURE_NAMES,
    NO_CA,
    UNPACKED,
    UNSIGNED,
    FeatureExtractor,
    FeatureVector,
    alexa_bin,
)
from .drift import DriftReport, drift_series, persistent_rules, rule_drift
from .evasion import resign_fresh, resign_stolen, strip_signatures
from .online import OnlineRuleClassifier
from .part import PartLearner
from .rule_text import (
    RuleParseError,
    explain_decision,
    parse_rule,
    parse_rules,
)
from .rules import Condition, Rule, RuleSet

__all__ = [
    "ALEXA_BINS",
    "BENIGN_CLASS",
    "CLASSES",
    "DEFAULT_TAUS",
    "FEATURE_NAMES",
    "MALICIOUS_CLASS",
    "NO_CA",
    "TABLE_XV_SCHEMA",
    "UNPACKED",
    "UNSIGNED",
    "ColumnarRuleEvaluator",
    "Condition",
    "ConflictPolicy",
    "Decision",
    "DecisionTree",
    "DriftReport",
    "EvaluationResult",
    "EvaluationRow",
    "FeatureCodec",
    "FeatureExtractor",
    "FeatureVector",
    "FullEvaluation",
    "InnerNode",
    "Instance",
    "Leaf",
    "MonthlyEvaluation",
    "OnlineRuleClassifier",
    "PartLearner",
    "Rule",
    "RuleBasedClassifier",
    "RuleExtractionRow",
    "RuleParseError",
    "RuleSet",
    "Split",
    "SplitSelector",
    "TrainingSet",
    "alexa_bin",
    "clear_rule_cache",
    "drift_series",
    "entropy",
    "evaluate_month_pair",
    "explain_decision",
    "persistent_rules",
    "rule_drift",
    "full_evaluation",
    "learn_rules",
    "make_leaf",
    "parse_rule",
    "parse_rules",
    "pessimistic_added_errors",
    "record_decision_metrics",
    "resign_fresh",
    "resign_stolen",
    "strip_signatures",
    "subtree_errors",
    "unknown_vectors",
    "validate_against_latent",
]
