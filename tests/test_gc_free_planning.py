"""Planning without the cyclic garbage collector.

``hap()`` and ``hap_pipeline()`` run with CPython's cyclic collector paused
(:func:`repro.core.workerpool.collector_paused`).  That is only safe while
planning leaves no reference cycles behind: everything it allocates must be
freed by refcounting alone, or a paused collector turns the cycles into a
leak.  These tests guard both halves: a finished plan leaves zero cyclic
garbage, and the collector's state is restored after every call.  They also
pin the enabling-collective walk that replaced the one cycle-building closure
to ``itertools.product`` order.
"""

import collections
import gc
import itertools
import multiprocessing
import sys
import threading

import pytest

from repro.autodiff import build_training_graph
from repro.core import (
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    InMemoryPlanCache,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
    workerpool,
)
from repro.core.workerpool import collector_paused
from repro.hap import hap, hap_pipeline
from repro.models import MODEL_NAMES, build_tiny_model

from .conftest import make_cluster


def small_planner(strategy="beam"):
    config = PlannerConfig(max_rounds=1)
    config.synthesis = SynthesisConfig(search_strategy=strategy, beam_width=8)
    return config


def pipeline_config():
    return HierarchicalConfig(planner=small_planner(), plan_cache=InMemoryPlanCache())


def _cyclic_garbage(plan_fn):
    """Objects that only the cyclic collector would free after ``plan_fn()``.

    Returns the count and, when non-zero, a type histogram of the garbage.
    """
    gc.collect()
    gc.disable()
    try:
        plan = plan_fn()
        assert plan is not None
        del plan
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            count = gc.collect()
            histogram = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    return count, histogram.most_common(8)


@pytest.fixture(scope="module")
def two_machines():
    return make_cluster(("A100", "P100"))


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("strategy", ["beam", "astar"])
    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_flat_plan_leaves_no_cycles(self, model, strategy, four_device_cluster):
        forward = build_tiny_model(model)
        count, histogram = _cyclic_garbage(
            lambda: hap(forward, four_device_cluster, small_planner(strategy))
        )
        assert count == 0, f"{model}/{strategy} left cyclic garbage: {histogram}"

    def test_pipeline_plan_leaves_no_cycles(self, two_machines):
        forward = build_tiny_model("bert_base")
        count, histogram = _cyclic_garbage(
            lambda: hap_pipeline(forward, two_machines, pipeline_config())
        )
        assert count == 0, f"hap_pipeline left cyclic garbage: {histogram}"


class TestCollectorState:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def entry_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.fixture
    def seen(self, monkeypatch):
        """gc.isenabled() as observed at every synthesis call."""
        observed = []
        original = ProgramSynthesizer.synthesize

        def recording(self, *args, **kwargs):
            observed.append(gc.isenabled())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProgramSynthesizer, "synthesize", recording)
        return observed

    def test_hap_pauses_and_restores(self, entry_state, seen, four_device_cluster):
        hap(build_tiny_model("vgg19"), four_device_cluster, small_planner())
        assert seen and not any(seen)
        assert gc.isenabled() is entry_state

    def test_hap_pipeline_pauses_and_restores(self, entry_state, seen, two_machines):
        hap_pipeline(build_tiny_model("vgg19"), two_machines, pipeline_config())
        assert seen and not any(seen)
        assert gc.isenabled() is entry_state

    def test_restored_when_planning_raises(self, entry_state, monkeypatch, two_machines):
        def failing(self, *args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("planning failed")

        monkeypatch.setattr(HAPPlanner, "plan", failing)
        monkeypatch.setattr(HierarchicalPlanner, "plan", failing)
        forward = build_tiny_model("vgg19")
        with pytest.raises(RuntimeError, match="planning failed"):
            hap(forward, two_machines)
        assert gc.isenabled() is entry_state
        with pytest.raises(RuntimeError, match="planning failed"):
            hap_pipeline(forward, two_machines)
        assert gc.isenabled() is entry_state

    def test_nested_pause_leaves_reenabling_to_the_outermost(self, entry_state):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is entry_state

    def test_overlapping_threads_restore_entry_state(self, entry_state):
        def pause_repeatedly():
            for _ in range(2000):
                with collector_paused():
                    with collector_paused():
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pause_repeatedly) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled() is entry_state

    def test_pause_overlapping_an_ending_pause_restores(self, entry_state, monkeypatch):
        """Force the losing interleaving of two threads: X starts a pause
        while Y's pause is open, and Y's pause ends before X's begins to
        take effect.  X must not leave the collector disabled for good."""
        y_inside, x_entering, y_done = (threading.Event() for _ in range(3))

        class StallingGc:
            """gc whose disable() by thread X waits until Y's pause ended."""

            isenabled = staticmethod(gc.isenabled)
            enable = staticmethod(gc.enable)

            @staticmethod
            def disable():
                if threading.current_thread().name == "X":
                    x_entering.set()
                    y_done.wait(timeout=1)
                gc.disable()

        monkeypatch.setattr(workerpool, "gc", StallingGc)

        def y():
            with collector_paused():
                y_inside.set()
                x_entering.wait(timeout=1)
            y_done.set()

        def x():
            y_inside.wait(timeout=1)
            with collector_paused():
                x_entering.set()

        threads = [threading.Thread(target=y, name="Y"), threading.Thread(target=x, name="X")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled() is entry_state

    @pytest.mark.skipif(not workerpool.fork_available(), reason="needs fork")
    def test_pool_workers_run_tasks_paused(self, entry_state):
        with workerpool.WorkerPool(1) as pool:
            assert pool.run_tasks(_collector_enabled, None, [(), ()]) == [False, False]
        assert gc.isenabled() is entry_state

    def test_worker_loop_collects_between_tasks_wherever_forked(self, entry_state):
        # Drive the worker loop in-process: whatever collector state it starts
        # from (a fork inherits the parent's), tasks run paused and the loop
        # leaves the collector enabled between and after them.
        parent_end, worker_end = multiprocessing.Pipe()
        for _ in range(2):
            parent_end.send((_collector_enabled, None, ()))
        parent_end.send(None)
        workerpool._worker_main(worker_end)
        assert [parent_end.recv() for _ in range(2)] == [("ok", False)] * 2
        assert gc.isenabled()
        parent_end.close()
        worker_end.close()


def _collector_enabled(_payload, _args):
    return gc.isenabled()


def _rule_chain(child, state):
    chain = []
    while child is not state:
        chain.append(child.rule)
        child = child.parent
    return chain[::-1]


@pytest.mark.parametrize("sets", ["one", "several"])
def test_collective_prefix_walk_keeps_product_order(sets, four_device_cluster):
    """Children of a rule missing preconditions come in product() order,
    whether one or several preconditions need an enabling collective."""
    graph = build_training_graph(build_tiny_model("bert_moe")).graph
    synth = ProgramSynthesizer(graph, four_device_cluster, SynthesisConfig(beam_width=8))
    cases = []
    walk = synth._expand_prefixes

    def recording(current, rule, ratios, option_sets, level, results):
        wanted = (len(option_sets) == 1) == (sets == "one")
        if (
            level == 0
            and not cases
            and wanted
            and max(len(options) for options in option_sets) > 1
        ):
            cases.append((current, rule, ratios, [list(options) for options in option_sets]))
        walk(current, rule, ratios, option_sets, level, results)

    synth._expand_prefixes = recording
    synth.synthesize()
    del synth._expand_prefixes
    assert cases, f"no multi-option expansion with {sets} missing precondition(s)"
    state, rule, ratios, option_sets = cases[0]

    children = synth._expand_with_rule(state, rule, ratios)
    combos = list(itertools.product(*option_sets))
    assert len(children) == len(combos)
    for child, combo in zip(children, combos):
        reference = state
        for comm in combo:
            reference = synth._apply(reference, comm, ratios)
        reference = synth._apply(reference, rule, ratios)
        assert _rule_chain(child, state) == [*combo, rule]
        assert child.closed_cost == reference.closed_cost
        assert child.stage_comp == reference.stage_comp
