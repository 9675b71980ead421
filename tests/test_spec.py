"""Spec strings: the shared registry and parsers (`repro.spec`) and every
axis built on them.

Properties: rebuilding any object from its ``.spec`` yields the same
``.spec`` (codec and compute specs ride in payloads and handshakes, so
they must be canonical); every registry words an unknown name the same
way; and each ``*_KINDS`` constant is derived from its registry rather
than copied by hand.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregate import (
    AGGREGATOR_KINDS,
    ClipAggregator,
    EdgeAggregator,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
    aggregator_specs,
    make_aggregator,
)
from repro.fl.codec import codec_specs, make_codec
from repro.fl.compute import (
    COMPUTE_KINDS,
    compute_specs,
    make_compute,
    resolve_compute,
)
from repro.fl.executor import (
    _EXECUTORS,
    EXECUTOR_KINDS,
    make_executor,
    resolve_executor,
)
from repro.fl.faults import (
    AdaptiveDeadline,
    FixedDeadline,
    make_deadline_policy,
    make_fault_plan,
)
from repro.fl.transport import (
    TRANSPORT_KINDS,
    make_transport,
    resolve_transport,
    transport_specs,
)
from repro.nn.objective import (
    CompositeObjective,
    make_term,
    objective_term_specs,
)
from repro.spec import (
    Registry,
    parse_head,
    parse_number,
    parse_pairs,
    parse_pipeline,
)

# -- the shared pieces ---------------------------------------------------------


class TestRegistry:
    def test_register_make_and_names(self):
        registry = Registry("widget")
        registry.register("b", lambda x=1: ("b", x))
        registry.register("a", lambda: "a")
        assert registry.names() == ("a", "b")
        assert registry.make("b", 2) == ("b", 2)

    def test_duplicate_rejected(self):
        registry = Registry("widget")
        registry.register("a", object)
        with pytest.raises(ValueError, match="widget 'a' is already registered"):
            registry.register("a", object)

    def test_unknown_lists_extra_then_usage_forms(self):
        registry = Registry("widget", extra=("auto",))
        registry.register("plain", object)
        registry.register("tuned", object, usage="tuned[:knob]")
        with pytest.raises(
            ValueError,
            match=re.escape(
                "unknown widget 'nope'; expected one of "
                "('auto', 'plain', 'tuned[:knob]')"
            ),
        ):
            registry.make("nope")


class TestParsers:
    def test_pipeline(self):
        assert parse_pipeline("edge(2)+clip( 5 )+mean", "x") == [
            ("edge", ("2",)),
            ("clip", ("5",)),
            ("mean", ()),
        ]
        assert parse_pipeline("multi-krum(3, 1)", "x") == [
            ("multi-krum", ("3", "1"))
        ]
        with pytest.raises(ValueError, match="bad x spec item"):
            parse_pipeline("mean((1))", "x")
        with pytest.raises(ValueError, match="bad x spec item"):
            parse_pipeline("fp16+", "x")

    def test_head(self):
        assert parse_head("tcp:host:80") == ("tcp", "host:80")
        assert parse_head("tcp:") == ("tcp", "")
        assert parse_head("pipe") == ("pipe", None)

    def test_pairs(self):
        assert parse_pairs(" a = 1 ,, b=x:y ", "k") == {"a": "1", "b": "x:y"}
        with pytest.raises(ValueError, match="duplicate k key 'a'"):
            parse_pairs("a=1,b=2,a=3", "k")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_pairs("a", "k")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_pairs("=1", "k")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "x", ""])
    def test_number_rejects_non_finite_and_garbage(self, text):
        with pytest.raises(ValueError, match="bad weight"):
            parse_number(text, "weight")

    def test_number_kinds(self):
        assert parse_number(" 2.5", "w") == 2.5
        assert parse_number("3", "n", int) == 3
        with pytest.raises(ValueError, match="expected an integer"):
            parse_number("1.5", "n", int)


# -- one error format, derived constants ---------------------------------------


@pytest.mark.parametrize(
    "build, spec, kind",
    [
        (make_codec, "nope", "codec"),
        (make_codec, "fp16+nope", "codec filter"),
        (make_aggregator, "nope", "aggregator"),
        (make_aggregator, "nope+mean", "aggregator prefix"),
        (make_transport, "nope", "transport"),
        (resolve_transport, "nope:1", "transport"),
        (make_compute, "nope", "compute backend"),
        (resolve_compute, "nope", "compute backend"),
        (make_executor, "nope", "executor kind"),
        (resolve_executor, "nope", "executor kind"),
        (make_term, "nope", "objective term"),
        (make_fault_plan, "nope=1", "fault spec key"),
        (make_deadline_policy, "nope:1", "deadline policy"),
    ],
)
def test_unknown_name_format(build, spec, kind):
    with pytest.raises(
        ValueError, match=rf"^unknown {kind} 'nope'; expected one of \("
    ):
        build(spec)


def test_kinds_constants_are_the_registries():
    assert AGGREGATOR_KINDS == aggregator_specs()
    assert TRANSPORT_KINDS == ("auto",) + transport_specs()
    assert COMPUTE_KINDS == ("auto",) + compute_specs()
    assert EXECUTOR_KINDS == ("auto",) + _EXECUTORS.names()
    assert set(EXECUTOR_KINDS) == {"auto", "serial", "parallel"}


# -- round trips ---------------------------------------------------------------

codec_spec = st.builds(
    lambda base, filters: "+".join([base] + ["deflate"] * filters),
    st.sampled_from(codec_specs()),
    st.integers(0, 2),
)

small = st.integers(0, 6)
base_rule = st.one_of(
    st.builds(MeanAggregator),
    st.builds(MedianAggregator),
    st.builds(TrimmedMeanAggregator, small),
    st.builds(KrumAggregator, st.integers(1, 6), st.none() | small),
)
finite_positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def aggregator(draw):
    rule = draw(base_rule)
    if draw(st.booleans()):
        rule = ClipAggregator(draw(finite_positive), rule)
    if rule.streaming and draw(st.booleans()):
        rule = EdgeAggregator(draw(st.integers(1, 8)), rule)
    return rule


transport_spec = st.one_of(
    st.sampled_from(transport_specs()),
    st.builds(
        "tcp:{}:{}".format,
        st.sampled_from(["127.0.0.1", "0.0.0.0", "localhost"]),
        st.integers(0, 65535),
    ),
)

deadline = st.one_of(
    st.builds(FixedDeadline, finite_positive),
    st.builds(AdaptiveDeadline, st.floats(0.01, 100.0)),
)

objective = st.lists(
    st.tuples(st.sampled_from(objective_term_specs()), st.floats(0.0, 1e3)),
    min_size=1,
    unique_by=lambda entry: entry[0],
).map(CompositeObjective)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(codec_spec)
    def test_codec(self, spec):
        assert make_codec(spec).spec == spec

    @settings(max_examples=80, deadline=None)
    @given(aggregator())
    def test_aggregator(self, rule):
        assert make_aggregator(rule.spec).spec == rule.spec

    @settings(max_examples=40, deadline=None)
    @given(transport_spec)
    def test_transport(self, spec):
        transport = make_transport(spec)
        try:
            assert transport.spec == spec
            assert make_transport(transport.spec).spec == spec
        finally:
            transport.close()

    @pytest.mark.parametrize("spec", compute_specs())
    def test_compute(self, spec):
        assert make_compute(spec).spec == spec
        assert resolve_compute(spec) == spec

    @settings(max_examples=60, deadline=None)
    @given(deadline)
    def test_deadline(self, policy):
        assert make_deadline_policy(policy.spec).spec == policy.spec
        if isinstance(policy.spec, float):  # the CLI's string form
            assert make_deadline_policy(repr(policy.spec)) == policy

    @settings(max_examples=60, deadline=None)
    @given(objective)
    def test_objective(self, composite):
        assert composite.with_overrides(composite.spec).spec == composite.spec


@pytest.mark.parametrize(
    "build, spec, canonical",
    [
        (make_codec, "fp16+deflate", "fp16+deflate"),
        (make_aggregator, "edge(2)+clip(5.0)+mean", "edge(2)+clip(5)+mean"),
        (make_transport, "tcp:127.0.0.1:0", "tcp:127.0.0.1:0"),
        (make_compute, "strict", "strict"),
        (make_deadline_policy, "percentile:p95", "percentile:p95"),
        (
            lambda spec: CompositeObjective(
                [("ce", 1.0), ("proto_nce", 1.0)]
            ).with_overrides(spec),
            "ce=1,proto_nce=0.7",
            "ce=1,proto_nce=0.7",
        ),
    ],
)
def test_readme_spec_table(build, spec, canonical):
    """The README's "Spec strings" table: example -> canonical ``.spec``."""
    built = build(spec)
    assert built.spec == canonical
    if hasattr(built, "close"):
        built.close()
