"""Parallel planning engine: multiprocess fan-out parity and cache safety.

The contract of ``HierarchicalConfig.planner_workers`` and
``SynthesisConfig.synthesis_workers`` is *bit-identical results*: the shared
worker pool (:mod:`repro.core.workerpool`) only relocates where the expensive
work runs — grid cells for the former, beam-level shards for the latter —
never what it computes: same ``describe()``, same programs and costs, same
search counters, same candidate and combo times, same reuse counters.  The
shared :class:`DiskPlanCache` directory is the coordination channel between
grid workers, so its concurrent-writer guarantee (atomic publish,
last-writer-wins on a raced key, torn reads impossible) is load-bearing and
stress-tested here.
"""

import multiprocessing
import os
import pickle
import sys

import pytest

from repro.cluster import heterogeneous_testbed
from repro.core import (
    CachedPlan,
    DiskPlanCache,
    HierarchicalConfig,
    HierarchicalPlanner,
    InMemoryPlanCache,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
    SynthesisError,
)
from repro.core import workerpool
from repro.core.costmodel import CostModel, beam_rank_order
from repro.graph import ComputationGraph
from repro.simulator import simulate_hierarchical

from .conftest import build_mlp, make_cluster


def small_planner_config():
    return PlannerConfig(
        max_rounds=1,
        synthesis=SynthesisConfig(search_strategy="beam", beam_width=4),
    )


def hier_config(**kwargs):
    return HierarchicalConfig(planner=small_planner_config(), **kwargs)


def rename_graph(forward: ComputationGraph) -> ComputationGraph:
    renamed = ComputationGraph("renamed")
    new_name = {name: f"r_{name}" for name in forward.node_names}
    for node in forward:
        renamed.add_node(
            new_name[node.name],
            node.op,
            tuple(new_name[i] for i in node.inputs),
            dict(node.attrs),
        )
    for out in forward.outputs:
        renamed.mark_output(new_name[out])
    renamed.mark_loss(new_name[forward.loss])
    return renamed


def assert_plans_identical(a, b):
    assert a.describe() == b.describe()
    assert a.estimated_time == b.estimated_time
    assert a.candidate_times == b.candidate_times
    assert a.schedule_candidate_times == b.schedule_candidate_times
    assert a.reuse_stats == b.reuse_stats
    assert a.schedule_name == b.schedule_name
    assert a.num_microbatches == b.num_microbatches
    for sa, sb in zip(a.stages, b.stages):
        for ca, cb in zip(sa.chunks, sb.chunks):
            assert ca.ratios == cb.ratios
            assert ca.plan.estimated_time.total == cb.plan.estimated_time.total
            assert ca.content_key == cb.content_key


@pytest.fixture(scope="module")
def forward():
    return build_mlp()


@pytest.fixture(scope="module")
def hetero_cluster():
    """Two heterogeneous machines: a 3-cell (stage, chunk-variant) grid."""
    return make_cluster(("A100", "P100"), group=True)


class TestParallelDeterminism:
    def test_workers_bit_identical_to_serial(self, forward, hetero_cluster):
        serial = HierarchicalPlanner(forward, hetero_cluster, hier_config()).plan()
        parallel = HierarchicalPlanner(
            forward, hetero_cluster, hier_config(planner_workers=4)
        ).plan()
        assert_plans_identical(serial, parallel)

    def test_workers_bit_identical_on_hetero_testbed(self, forward):
        cluster = heterogeneous_testbed(num_gpus=16, gpus_per_machine=8)
        serial = HierarchicalPlanner(forward, cluster, hier_config()).plan()
        parallel = HierarchicalPlanner(
            forward, cluster, hier_config(planner_workers=4)
        ).plan()
        assert_plans_identical(serial, parallel)

    def test_workers_share_cold_disk_cache(self, forward, hetero_cluster, tmp_path):
        serial = HierarchicalPlanner(
            forward,
            hetero_cluster,
            hier_config(plan_cache=DiskPlanCache(str(tmp_path / "serial"))),
        ).plan()
        cache = DiskPlanCache(str(tmp_path / "parallel"))
        parallel = HierarchicalPlanner(
            forward, hetero_cluster, hier_config(planner_workers=4, plan_cache=cache)
        ).plan()
        assert_plans_identical(serial, parallel)
        # Workers wrote through the shared directory: chunk plans and the
        # whole plan are on disk for future runs.
        assert len(cache.keys()) > 0

    def test_worker_count_excluded_from_cache_keys(self, forward, hetero_cluster, tmp_path):
        """A parallel run's cache entries serve a later serial run whole."""
        cache_dir = str(tmp_path / "shared")
        HierarchicalPlanner(
            forward,
            hetero_cluster,
            hier_config(planner_workers=4, plan_cache=DiskPlanCache(cache_dir)),
        ).plan()
        warm = HierarchicalPlanner(
            forward,
            hetero_cluster,
            hier_config(planner_workers=1, plan_cache=DiskPlanCache(cache_dir)),
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1

    def test_renamed_model_parallel_cache_hits(self, forward, hetero_cluster, tmp_path):
        """Parallel workers hit name-independent chunk entries like serial."""
        renamed = rename_graph(forward)
        dirs = {}
        for mode in ("serial", "parallel"):
            cache_dir = str(tmp_path / mode)
            # Prime each directory identically with a serial cold plan.
            HierarchicalPlanner(
                forward,
                hetero_cluster,
                hier_config(plan_cache=DiskPlanCache(cache_dir)),
            ).plan()
            dirs[mode] = cache_dir
        warm_serial = HierarchicalPlanner(
            renamed,
            hetero_cluster,
            hier_config(plan_cache=DiskPlanCache(dirs["serial"])),
        ).plan()
        warm_parallel = HierarchicalPlanner(
            renamed,
            hetero_cluster,
            hier_config(planner_workers=4, plan_cache=DiskPlanCache(dirs["parallel"])),
        ).plan()
        # Names differ, so the whole-plan entry must not replay; every chunk
        # comes from the content-addressed cache — in both modes.
        assert warm_parallel.reuse_stats["whole_plan_hit"] == 0
        assert warm_parallel.reuse_stats["subplans_planned"] == 0
        assert warm_parallel.reuse_stats["cache_hits"] > 0
        assert_plans_identical(warm_serial, warm_parallel)

    def test_in_memory_cache_snapshot_seeds_workers(self, forward, hetero_cluster):
        cache = InMemoryPlanCache()
        cold = HierarchicalPlanner(
            forward, hetero_cluster, hier_config(plan_cache=cache)
        ).plan()
        renamed = rename_graph(forward)
        warm = HierarchicalPlanner(
            renamed, hetero_cluster, hier_config(planner_workers=4, plan_cache=cache)
        ).plan()
        assert warm.reuse_stats["subplans_planned"] == 0
        assert warm.reuse_stats["cache_hits"] > 0
        assert warm.estimated_time == cold.estimated_time

    def test_candidate_grid_matches_serial_enumeration(self, forward, hetero_cluster):
        planner = HierarchicalPlanner(forward, hetero_cluster, hier_config())
        grid = planner.candidate_grid()
        assert grid == [
            (s, c)
            for s in planner._candidates()
            for c in planner._candidate_variants(s)
        ]
        assert (1, 1) in grid  # flat HAP is always a cell
        assert len(grid) > 1

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="planner_workers"):
            HierarchicalConfig(planner_workers=0)


# -- DiskPlanCache same-key multi-writer stress -------------------------------------
def _hammer_cache(directory: str, key: str, worker_id: int, iterations: int) -> None:
    """Write and read one key as fast as possible; exit non-zero on any tear."""
    cache = DiskPlanCache(directory)
    for i in range(iterations):
        cache.put(
            CachedPlan(key=key, node_names=[f"n{worker_id}"], plan=["payload", worker_id, i])
        )
        # Bypass the in-memory layer: read the raced file like another process.
        fresh = DiskPlanCache(directory)
        entry = fresh.get(key)
        if entry is None:
            continue  # a racing replace may briefly leave no file visible
        if entry.key != key or entry.plan[0] != "payload":
            sys.exit(1)  # torn or aliased read
    sys.exit(0)


class TestDiskCacheConcurrency:
    def test_same_key_raced_writers_never_tear(self, tmp_path):
        directory = str(tmp_path)
        key = "a" * 64
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_cache, args=(directory, key, w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Last writer wins: the published entry is one worker's complete write.
        final = DiskPlanCache(directory).get(key)
        assert final is not None and final.key == key
        assert final.plan[0] == "payload"
        # No temp-file litter beyond the published entry.
        leftovers = [f for f in os.listdir(directory) if f.endswith(".tmp")]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        key = "b" * 64
        cache.put(CachedPlan(key=key, node_names=[], plan=["payload"]))
        path = cache._path(key)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(["not a CachedPlan"])[:-3])  # truncated pickle
        assert DiskPlanCache(str(tmp_path)).get(key) is None
        cache2 = DiskPlanCache(str(tmp_path))
        cache2.put(CachedPlan(key=key, node_names=[], plan=["payload2"]))
        assert DiskPlanCache(str(tmp_path)).get(key).plan == ["payload2"]


# -- profile-once regression --------------------------------------------------------
class TestProfileOnce:
    def test_phase_profile_called_once_per_content_key(
        self, forward, hetero_cluster, monkeypatch
    ):
        calls = []
        orig = CostModel.phase_profile

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "phase_profile", counting)
        planner = HierarchicalPlanner(forward, hetero_cluster, hier_config())
        plan = planner.plan()
        # Every chunk of every grid cell carries a content key, and each
        # distinct key is profiled exactly once per plan() call.
        assert len(calls) == len(planner._profile_memo)
        before = len(calls)
        # Re-deriving stage times for already-profiled chunks is free.
        planner._stage_times(plan.stages)
        assert len(calls) == before

    def test_profile_memo_result_identical(self, forward, hetero_cluster):
        with_memo = HierarchicalPlanner(forward, hetero_cluster, hier_config()).plan()
        # Disabling reuse drops content keys, so nothing is memoized.
        no_keys = HierarchicalPlanner(
            forward, hetero_cluster, hier_config(dedupe_subplans=False)
        ).plan()
        assert with_memo.estimated_time == no_keys.estimated_time
        assert with_memo.schedule_candidate_times == no_keys.schedule_candidate_times

    def test_simulator_profiles_once_per_key_and_identically(
        self, forward, hetero_cluster, monkeypatch
    ):
        plan = HierarchicalPlanner(forward, hetero_cluster, hier_config()).plan()
        baseline = simulate_hierarchical(plan, iterations=2)

        import repro.simulator.engine as engine

        calls = []
        orig = engine.ExecutionSimulator.profile_program

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(engine.ExecutionSimulator, "profile_program", counting)
        memoized = simulate_hierarchical(plan, iterations=2)
        distinct = {
            c.content_key for s in plan.stages for c in s.chunks if c.content_key
        }
        assert len(calls) == len(distinct)
        assert memoized.total == baseline.total
        assert memoized.schedule.total == baseline.schedule.total

        # Stripping the keys disables the memo but not the numbers.
        for stage in plan.stages:
            for chunk in stage.chunks:
                chunk.content_key = None
        calls.clear()
        plain = simulate_hierarchical(plan, iterations=2)
        assert len(calls) == sum(len(s.chunks) for s in plan.stages)
        assert plain.total == baseline.total


# -- parallel beam expansion (SynthesisConfig.synthesis_workers) ---------------------
def _poisoned_shard_task(synthesizer, args):
    """Stand-in shard handler that crashes inside the worker process.

    Module-level so it pickles by qualified name: monkeypatching the real
    handler with it poisons the dispatch without rebuilding the pool.
    """
    raise RuntimeError("poisoned shard")


def synth_config(workers: int, reuse: bool = False, **kwargs) -> SynthesisConfig:
    return SynthesisConfig(
        search_strategy="beam",
        beam_width=6,
        synthesis_workers=workers,
        enable_block_reuse=reuse,
        **kwargs,
    )


def assert_synthesis_identical(a, b):
    """Bit-identical program, cost, counters, and describe() output."""
    assert a.cost == b.cost
    assert a.expanded_states == b.expanded_states
    assert a.generated_states == b.generated_states
    assert a.program.describe() == b.program.describe()
    assert [str(i) for i in a.program.instructions] == [
        str(i) for i in b.program.instructions
    ]


@pytest.fixture(scope="module")
def registry_models():
    """Every registry model at test scale, on a 4-device heterogeneous cluster."""
    from repro.models import MODEL_NAMES, BenchmarkScale, build_model

    scale = BenchmarkScale("test", layer_fraction=0.1, batch_per_device=8)
    return {name: build_model(name, num_gpus=4, scale=scale) for name in MODEL_NAMES}


@pytest.fixture(scope="module")
def four_hetero_cluster():
    return make_cluster(("A100", "A100", "P100", "P100"), group=True)


class TestParallelSynthesis:
    """synthesis_workers relocates beam-level expansion, never the result."""

    @pytest.mark.parametrize("model_name", ["vgg19", "vit", "bert_base", "bert_moe"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["plain", "block-reuse"])
    def test_worker_counts_bit_identical_across_registry_models(
        self, registry_models, four_hetero_cluster, model_name, reuse
    ):
        graph = registry_models[model_name]
        serial = ProgramSynthesizer(
            graph, four_hetero_cluster, synth_config(1, reuse)
        ).synthesize()
        for workers in (2, 4):
            parallel = ProgramSynthesizer(
                graph, four_hetero_cluster, synth_config(workers, reuse)
            ).synthesize()
            assert_synthesis_identical(serial, parallel)

    def test_parallel_composes_with_planner_workers(self, forward, hetero_cluster):
        """Nested pools: grid cells budget their own beam workers."""
        serial = HierarchicalPlanner(forward, hetero_cluster, hier_config()).plan()
        config = hier_config(planner_workers=2)
        config.planner.synthesis.synthesis_workers = 2
        nested = HierarchicalPlanner(forward, hetero_cluster, config).plan()
        assert_plans_identical(serial, nested)

    def test_parallel_levels_actually_run(self, forward, hetero_cluster):
        """The parity above must not pass vacuously: the pool really forks."""
        workerpool.close_shared_pool()
        before = workerpool.pool_spawn_count()
        result = ProgramSynthesizer(
            forward, hetero_cluster, synth_config(2)
        ).synthesize()
        assert result.program.instructions
        assert workerpool.pool_spawn_count() == before + 1

    def test_crashed_worker_raises_synthesis_error(
        self, forward, hetero_cluster, monkeypatch
    ):
        """A poisoned shard surfaces as SynthesisError — never a hang."""
        import repro.core.synthesizer as synthesizer_module

        monkeypatch.setattr(
            synthesizer_module, "_expand_shard_task", _poisoned_shard_task
        )
        synth = ProgramSynthesizer(forward, hetero_cluster, synth_config(2))
        with pytest.raises(SynthesisError, match="parallel beam expansion failed"):
            synth.synthesize()
        # The broken pool re-forks lazily: the next search works again.
        monkeypatch.undo()
        result = ProgramSynthesizer(
            forward, hetero_cluster, synth_config(2)
        ).synthesize()
        serial = ProgramSynthesizer(
            forward, hetero_cluster, synth_config(1)
        ).synthesize()
        assert_synthesis_identical(serial, result)

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="synthesis_workers"):
            SynthesisConfig(synthesis_workers=0)

    def test_worker_count_excluded_from_plan_cache_keys(self, forward, hetero_cluster):
        from repro.core.plancache import plan_key

        serial = hier_config()
        parallel = hier_config()
        parallel.planner.synthesis.synthesis_workers = 4
        assert plan_key("k", hetero_cluster, serial) == plan_key(
            "k", hetero_cluster, parallel
        )


def _reference_rank(vectors, stages):
    """The ranking spelled out: (cost so far, total work), stable sort."""
    keys = [(max(v), sum(s)) for v, s in zip(vectors, stages)]
    return sorted(range(len(keys)), key=keys.__getitem__)


class TestBeamRankOrderTieBreak:
    """The documented tie-break contract of costmodel.beam_rank_order."""

    def test_matches_sorted_reference(self):
        vectors = [(3.0, 1.0), (2.0, 3.0), (3.0, 1.0), (1.0, 2.0)]
        stages = [(1.0, 0.5), (0.5, 1.0), (0.25, 0.25), (2.0, 0.0)]
        assert beam_rank_order(vectors, stages) == _reference_rank(vectors, stages)

    def test_equal_keys_keep_input_order(self):
        """Stability: exact ties survive in generation order."""
        vectors = [(2.0, 1.0)] * 4
        stages = [(0.5, 0.5)] * 4
        assert beam_rank_order(vectors, stages) == [0, 1, 2, 3]

    def test_tie_resolution_depends_on_input_order(self):
        """Reassembling children out of generation order would drift ties.

        This is exactly why sharded expansion concatenates worker results in
        shard (= serial generation) order before ranking.
        """
        tied_a = (2.0, 1.0)
        tied_b = (1.0, 2.0)  # same max, same sum — a pure tie
        stages = [(0.5, 0.5), (0.5, 0.5)]
        forward_order = beam_rank_order([tied_a, tied_b], stages)
        swapped_order = beam_rank_order([tied_b, tied_a], stages)
        assert forward_order == [0, 1] and swapped_order == [0, 1]
        # The *identity* of the winner changed with the input order: position
        # 0 wins each time, but it holds a different candidate.

    def test_primary_key_then_work_tie_break(self):
        vectors = [(4.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
        stages = [(1.0, 1.0), (3.0, 1.0), (0.5, 0.5)]
        # finals: 4.0, 3.0, 3.0; works: 2.0, 4.0, 1.0
        # -> order: 2 (3.0/1.0), 1 (3.0/4.0), 0 (4.0)
        assert beam_rank_order(vectors, stages) == [2, 1, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_inputs_match_reference(self, seed):
        """Tuple and ndarray inputs both rank like the sorted() reference."""
        import random

        import numpy as np

        rng = random.Random(seed)
        count = 17
        vectors = []
        stages = []
        for _ in range(count):
            stage = tuple(rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in range(4))
            closed = rng.choice([0.0, 1.0, 1.5])
            vectors.append(tuple(closed + s for s in stage))
            stages.append(stage)
        expected = _reference_rank(vectors, stages)
        assert beam_rank_order(vectors, stages) == expected
        assert beam_rank_order(np.array(vectors), np.array(stages)) == expected


class TestSharedWorkerPool:
    """core/workerpool.py: lifecycle, dispatch, and plan()-to-plan() reuse."""

    def test_two_plans_reuse_one_pool(self, forward, hetero_cluster):
        """Regression: plan() used to fork a fresh executor per call."""
        workerpool.close_shared_pool()
        before = workerpool.pool_spawn_count()
        planner = HierarchicalPlanner(
            forward, hetero_cluster, hier_config(planner_workers=2)
        )
        first = planner.plan()
        after_first = workerpool.pool_spawn_count()
        assert after_first == before + 1  # exactly one fork, lazily
        second = planner.plan()
        assert workerpool.pool_spawn_count() == after_first  # no re-fork
        assert_plans_identical(first, second)
        planner.close()
        assert not workerpool.shared_pool(2).alive

    def test_run_sharded_preserves_task_order(self):
        with workerpool.WorkerPool(3) as pool:
            results = pool.run_tasks(_echo_task, None, [(i,) for i in range(7)])
            assert results == [(i,) for i in range(7)]
            sharded = pool.run_sharded(_echo_task, None, [("a",), ("b",)])
            assert sharded == [("a",), ("b",)]

    def test_crash_marks_pool_broken_and_recovers(self):
        with workerpool.WorkerPool(2) as pool:
            with pytest.raises(workerpool.WorkerCrash, match="boom"):
                pool.run_sharded(_crash_task, None, [(1,), (2,)])
            assert not pool.alive
            assert pool.run_sharded(_echo_task, None, [("ok",)]) == [("ok",)]

    def test_context_manager_and_validation(self):
        pool = workerpool.WorkerPool(2)
        with pool:
            with pytest.raises(ValueError, match="tasks"):
                pool.run_sharded(_echo_task, None, [(1,), (2,), (3,)])
        assert not pool.alive

    def test_explicit_budget_clamps_requests(self):
        import repro.core.workerpool as wp

        original = wp._budget
        try:
            assert wp.effective_workers(64) == 64  # top-level: honored as-is
            wp.set_process_budget(2)
            assert wp.effective_workers(64) == 2  # nested: clamped
            assert wp.effective_workers(1) == 1
        finally:
            wp._budget = original


def _echo_task(_payload, args):
    return args


def _crash_task(_payload, args):
    raise ValueError("boom")
