"""Bitmask search states agree with a frozenset reference.

The synthesizer keeps each state's live properties and communicated refs as
Python ints over bit tables sorted by ``(ref, kind, dim)`` / name.  These
property tests walk random applicable-rule sequences through the tiny
registry models' theories and check every mask operation — post-union,
liveness drop, precondition and subset checks, communicated-disjointness —
against the same operations on frozensets, decoding the masks through the
bit table.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autodiff import build_training_graph
from repro.core import ProgramSynthesizer, SynthesisConfig
from repro.core.synthesizer import _bit_indexes
from repro.models import MODEL_NAMES, build_tiny_model

from .conftest import make_cluster

MAX_STEPS = 300


@lru_cache(maxsize=None)
def _synthesizer(model: str) -> ProgramSynthesizer:
    graph = build_training_graph(build_tiny_model(model)).graph
    config = SynthesisConfig(beam_width=8)
    return ProgramSynthesizer(graph, make_cluster(), config)


def _decode_props(synth, mask):
    return frozenset(synth._bit_props[i] for i in _bit_indexes(mask))


def _decode_comm(synth, mask):
    return frozenset(synth._bit_refs[i] for i in _bit_indexes(mask))


def _reference_applicable(rule, props, comm, completed):
    """Frozenset version of the applicability test of ``_applicable_rules``."""
    if rule.completes:
        if rule.completes & completed:
            return False
    elif rule.post <= props:
        return False
    if rule.communicates & comm:
        return False
    return rule.pre <= props


def _reference_apply(synth, rule, props, comm, completed):
    """Frozenset version of the state update of ``_apply``."""
    completed = completed | rule.completes
    props = props | rule.post
    comm = comm | rule.communicates
    dying = set()
    for name in rule.completes:
        dying.update(synth.graph[name].inputs)
        dying.add(name)
    for ref in dying:
        consumers = synth._consumers.get(ref, [])
        if all(c in completed for c in consumers) and (consumers or ref in synth._outputs):
            props = frozenset(p for p in props if p.ref != ref)
    return props, comm, completed


@pytest.mark.parametrize("model", MODEL_NAMES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_masks_match_frozenset_reference(model, data):
    synth = _synthesizer(model)
    ratios = tuple(synth.cluster.proportional_ratios())
    rules = synth.theory.rules
    node = synth._root()
    props, comm, completed = frozenset(), frozenset(), frozenset()
    for _ in range(MAX_STEPS):
        # Subset / disjointness checks on arbitrary rules, applicable or not.
        for index in data.draw(st.lists(st.integers(0, len(rules) - 1), max_size=4)):
            probe = rules[index]
            pre, post, comm_mask = synth._rule_bits(probe)
            assert ((node.properties & pre) == pre) == (probe.pre <= props)
            assert ((node.properties & post) == post) == (probe.post <= props)
            assert (not comm_mask & node.communicated) == probe.communicates.isdisjoint(comm)
        candidates = synth._topological_candidates(node)
        expected = [
            r for r in candidates if _reference_applicable(r, props, comm, completed)
        ]
        applicable = synth._applicable_rules(node)
        assert [id(r) for r in applicable] == [id(r) for r in expected]
        if not applicable:
            break
        rule = applicable[data.draw(st.integers(0, len(applicable) - 1))]
        node = synth._apply(node, rule, ratios)
        props, comm, completed = _reference_apply(synth, rule, props, comm, completed)
        assert _decode_props(synth, node.properties) == props
        assert _decode_comm(synth, node.communicated) == comm
        assert node.completed == sum(1 << synth._node_index[n] for n in completed)
        assert synth._decode_state(synth._encode_state(node)).properties == node.properties


def test_bit_tables_are_sorted_and_ref_masks_contiguous():
    synth = _synthesizer("bert_base")
    keys = [p.sort_key() for p in synth._bit_props]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert list(synth._bit_refs) == sorted(synth._bit_refs)
    for ref, mask in synth._ref_props.items():
        bits = list(_bit_indexes(mask))
        assert bits == list(range(bits[0], bits[-1] + 1))
        assert all(synth._bit_props[i].ref == ref for i in bits)
