"""The code-matrix PART learner against the object reference.

:class:`repro.core.part.PartLearner` must return the rule list of
:class:`tests.core.part_reference.PartLearner` exactly: the same
conditions in the same order, with the same prediction, coverage and
errors.  Gain ratios decide rules, so a float that rounds differently
can show up here as a different rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import WorldConfig, build_session
from repro.core.dataset import CLASSES, Instance, TrainingSet
from repro.core.part import PartLearner
from repro.telemetry.events import NUM_MONTHS

from . import part_reference
from .test_part import FIXTURES, SCHEMA


def _rule_list(rules):
    return [
        (rule.conditions, rule.prediction, rule.coverage, rule.errors)
        for rule in rules
    ]


def _assert_same_rules(schema, instances):
    product = _rule_list(PartLearner(schema).fit(instances))
    reference = _rule_list(part_reference.PartLearner(schema).fit(instances))
    assert product == reference


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures(name):
    _assert_same_rules(SCHEMA, FIXTURES[name])


#: 50 rows over four attributes, one per token: the four values, then
#: ``b``enign or ``m``alicious.  Some nodes meet their values in
#: another order than the full set does, and a learner that sums a
#: node's branches in code order (first-seen order in the full set)
#: instead of the node's own first-seen order learns other rules here.
ORDER_SENSITIVE = """
1124b 0301m 1320b 1112b 1503b 1500m 0112b 0123b 2603b 2103b
1504b 1202b 0015b 0114b 2116m 2423b 0601m 0426m 2323b 1203b
1505b 2314m 1013m 2510m 1003m 0524m 0410b 0411b 2602m 0204b
0023m 1402b 0502m 1404b 1026b 0120b 0514m 1321b 0111b 1016b
0506b 0203m 2313m 0101b 0226b 2202m 0410m 0504b 0015b 1211m
"""


def test_branch_sums_in_first_seen_order():
    instances = [
        Instance(
            values=tuple(token[:-1]),
            label="malicious" if token[-1] == "m" else "benign",
        )
        for token in ORDER_SENSITIVE.split()
    ]
    _assert_same_rules(("f0", "f1", "f2", "f3"), instances)


@st.composite
def tie_heavy_datasets(draw):
    """Small vocabularies where ``1`` and ``"1"`` are one value, and
    half the time a duplicated column, so gain ratios tie exactly."""
    width = draw(st.integers(min_value=1, max_value=5))
    vocabularies = [
        draw(
            st.lists(
                st.sampled_from([1, "1", "a", "b", "c"]),
                min_size=2, max_size=4, unique=True,
            )
        )
        for _ in range(width)
    ]
    duplicate = None
    if width > 1 and draw(st.booleans()):
        duplicate = draw(
            st.tuples(
                st.integers(min_value=0, max_value=width - 1),
                st.integers(min_value=0, max_value=width - 1),
            ).filter(lambda pair: pair[0] != pair[1])
        )
    count = draw(st.integers(min_value=0, max_value=80))
    instances = []
    for _ in range(count):
        values = [draw(st.sampled_from(vocab)) for vocab in vocabularies]
        if duplicate is not None:
            source, target = duplicate
            values[target] = values[source]
        instances.append(
            Instance(values=tuple(values), label=draw(st.sampled_from(CLASSES)))
        )
    return tuple(f"f{index}" for index in range(width)), instances


@given(tie_heavy_datasets())
@settings(max_examples=300, deadline=None)
def test_tie_heavy_datasets(dataset):
    schema, instances = dataset
    _assert_same_rules(schema, instances)


@pytest.mark.parametrize("month", range(NUM_MONTHS - 1))
def test_medium_session_months(medium_session, month):
    training = TrainingSet.from_labeled(
        medium_session.labeled.month_slice(month), medium_session.alexa
    )
    assert len(training) > 100
    _assert_same_rules(training.schema, training.instances)


def test_month_sensitive_to_split_information_rounding():
    """April of seed 1 at scale 0.012: a learner that computes gain
    ratios and branch entropies with ``np.log2``/``np.sum`` learns
    another rule list here, while it agrees on every month of
    ``medium_session``."""
    session = build_session(WorldConfig(seed=1, scale=0.012), cache=False)
    training = TrainingSet.from_labeled(
        session.labeled.month_slice(3), session.alexa
    )
    _assert_same_rules(training.schema, training.instances)


class TestReferenceLeaf:
    def test_undeveloped_flag(self):
        leaf = part_reference.make_leaf(
            [Instance(values=("a", "x"), label="benign")], developed=False
        )
        assert not leaf.developed
        assert leaf.prediction == "benign"
