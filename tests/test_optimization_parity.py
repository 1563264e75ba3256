"""Parity of the planner's result-identical reuse mechanisms.

Each mechanism must leave the synthesized instruction sequence and the
estimated cost unchanged to the last bit:

* block reuse (``enable_block_reuse``, on by default) against a search that
  expands every block;
* sub-plan dedupe (``dedupe_subplans``) against planning every chunk;
* batched plan pricing (``CostModel.evaluate_many``) against scalar
  ``evaluate`` calls;
* per-rule cost plans cached across ``synthesize()`` calls against a fresh
  synthesizer per ratio vector.

The hot path itself has one implementation, pinned by the golden plan
digests of ``tests/test_plan_goldens.py``.
"""

import dataclasses

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import NetworkSpec
from repro.core import (
    CostModel,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    LoadBalancerConfig,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.core.synthesizer import _BlockRecord
from repro.graph import DType, GraphBuilder

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

#: 8 GPUs of four kinds, the mixed cluster of the production-settings rows.
MIXED_8 = ("A100", "V100", "A100", "V100", "A10", "P100", "A10", "P100")

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
}


def _synthesize(graph, cluster, strategy, **options):
    options.setdefault("enable_block_reuse", False)
    config = SynthesisConfig(search_strategy=strategy, beam_width=8, **options)
    return ProgramSynthesizer(graph, cluster, config).synthesize()


def _assert_identical(reference, candidate, label):
    assert candidate.cost == reference.cost, f"{label}: cost differs"
    assert list(candidate.program.instructions) == list(
        reference.program.instructions
    ), f"{label}: instruction sequence differs"


@pytest.fixture(scope="module")
def parity_cluster():
    return make_cluster(("A100", "A100", "P100", "P100"))


@pytest.fixture(scope="module")
def training_graphs():
    return {
        name: build_training_graph(builder()).graph
        for name, builder in MODEL_BUILDERS.items()
    }


def build_deep_transformer(layers, batch=8, seq=4, hidden=16, heads=2):
    """Multi-layer transformer: the repeated layers are what block reuse and
    sub-plan dedupe exploit (the single-layer registry models never repeat)."""
    b = GraphBuilder("deep")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((50, hidden), name="embed_table")
    x = b.embedding(ids, table)
    for i in range(layers):
        x = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 2, prefix=f"layer{i}")
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, 7)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    b.loss(b.cross_entropy(logits, labels))
    return b.build()


class TestBlockReuseParity:
    """``enable_block_reuse`` replays recorded rule chains across repeated
    layer blocks; the replay must be bit-identical to searching each block."""

    @pytest.fixture(scope="class")
    def deep_training(self):
        return build_training_graph(build_deep_transformer(layers=3)).graph

    def test_block_reuse_is_result_identical(self, deep_training, parity_cluster):
        reference = _synthesize(deep_training, parity_cluster, "beam")
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reused = synthesizer.synthesize()
        _assert_identical(reference, reused, "deep/beam/block-reuse")
        # The flag must actually replay — a silent no-op would pass parity.
        assert synthesizer.reuse_stats["replayed"] > 0
        assert synthesizer.reuse_stats["fallbacks"] == 0

    @pytest.mark.parametrize("model,full_layers", [("vit", 8), ("bert_moe", 12)])
    def test_block_reuse_registry_models(self, model, full_layers, parity_cluster):
        """Replay keeps the template's survivors without re-ranking them, so
        identity is an empirical property: check it on 2-layer registry
        training graphs (ViT, MoE) besides the toy transformer."""
        from repro.models import BenchmarkScale, build_model

        scale = BenchmarkScale("L2", layer_fraction=2 / full_layers)
        graph = build_training_graph(
            build_model(model, num_gpus=parity_cluster.num_devices, scale=scale)
        ).graph
        reference = _synthesize(graph, parity_cluster, "beam")
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(graph, parity_cluster, config)
        _assert_identical(reference, synthesizer.synthesize(), f"{model}/beam/block-reuse")
        assert synthesizer.reuse_stats["replayed"] > 0

    def test_block_reuse_across_ratio_changes(self, deep_training, parity_cluster):
        """Replayed rule costs are recomputed when the shard ratios change."""
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reference = ProgramSynthesizer(
            deep_training,
            parity_cluster,
            SynthesisConfig(search_strategy="beam", beam_width=8, enable_block_reuse=False),
        )
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            _assert_identical(
                reference.synthesize(ratios),
                synthesizer.synthesize(ratios),
                f"deep/beam/block-reuse/ratios={ratios}",
            )

    @pytest.mark.parametrize(
        "model,full_layers,gpus",
        [
            ("vit", 8, MIXED_8),
            ("bert_base", 12, MIXED_8),
            # 4-layer MoE blocks replay on few clusters: most occurrences
            # enter with a beam still warming up.
            ("bert_moe", 12, ("A100", "P100") * 4),
        ],
    )
    def test_block_reuse_at_production_settings(self, model, full_layers, gpus):
        """Default beam width, 8 mixed GPUs, 4-layer registry training graphs."""
        from repro.models import BenchmarkScale, build_model

        cluster = make_cluster(gpus, network=NetworkSpec())
        scale = BenchmarkScale("L4", layer_fraction=4 / full_layers)
        graph = build_training_graph(
            build_model(model, num_gpus=cluster.num_devices, scale=scale)
        ).graph
        reference = ProgramSynthesizer(
            graph, cluster, SynthesisConfig(enable_block_reuse=False)
        ).synthesize()
        synthesizer = ProgramSynthesizer(graph, cluster, SynthesisConfig())
        assert synthesizer.config.beam_width == 32
        _assert_identical(reference, synthesizer.synthesize(), f"{model}/beam32/block-reuse")
        assert synthesizer.reuse_stats["replayed"] > 0
        assert synthesizer.reuse_stats["fallbacks"] == 0

    def test_default_config_replays(self, deep_training, parity_cluster):
        """Block reuse is the default: it must not silently go inert."""
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, SynthesisConfig())
        synthesizer.synthesize()
        assert synthesizer.reuse_stats["replayed"] >= 1

    def test_out_of_order_template_falls_back(self, deep_training, parity_cluster, monkeypatch):
        """A template whose survivors are not in ranking order cannot be
        replayed: the rank-order guard falls back to full expansion."""

        class ReversedExitRecord(_BlockRecord):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                # Reverse the exit beam: the final level is needed in full
                # and its parents stay needed, so the record stays
                # structurally valid and only the survivor order is wrong.
                self.levels[-1].reverse()
                self.exit_rel.reverse()

        reference = _synthesize(deep_training, parity_cluster, "beam")
        monkeypatch.setattr("repro.core.synthesizer._BlockRecord", ReversedExitRecord)
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        _assert_identical(reference, synthesizer.synthesize(), "deep/beam/reversed-template")
        assert synthesizer.reuse_stats["fallbacks"] > 0
        assert synthesizer.reuse_stats["replayed"] == 0


class TestSubplanDedupeParity:
    """``dedupe_subplans`` plans one flat HAP problem per distinct (chunk
    content, group) pair and renames the plan onto isomorphic chunks; the
    resulting hierarchical plan must be identical to planning every chunk."""

    def test_dedupe_is_result_identical(self):
        forward = build_deep_transformer(layers=8)
        # Two *identical* machine groups: isomorphic chunks then share a
        # (fingerprint, group-signature) key across stages and dedupe.
        cluster = make_cluster(("A100", "A100", "A100", "A100"), group=True)
        base = HierarchicalConfig(
            planner=PlannerConfig(
                max_rounds=1,
                synthesis=SynthesisConfig(search_strategy="beam", beam_width=4),
            ),
            max_stages=2,
            schedules=["interleaved-1f1b"],
            num_model_chunks=2,
        )
        deduped = HierarchicalPlanner(forward, cluster, base).plan()
        replanned = HierarchicalPlanner(
            forward, cluster, dataclasses.replace(base, dedupe_subplans=False)
        ).plan()

        assert deduped.reuse_stats["subplans_deduped"] > 0
        assert replanned.reuse_stats["subplans_deduped"] == 0
        assert deduped.estimated_time == replanned.estimated_time
        assert deduped.schedule_name == replanned.schedule_name
        assert deduped.num_stages == replanned.num_stages
        chunks_a = [c for s in deduped.stages for c in s.chunks]
        chunks_b = [c for s in replanned.stages for c in s.chunks]
        assert len(chunks_a) == len(chunks_b)
        for a, b in zip(chunks_a, chunks_b):
            assert a.virtual_index == b.virtual_index
            assert list(a.plan.program.instructions) == list(b.plan.program.instructions)
            assert a.plan.estimated_time.total == b.plan.estimated_time.total


class TestBatchedCostParity:
    """``evaluate_many`` stacks the per-stage coefficients into arrays but
    must agree with K scalar ``evaluate`` calls bit for bit."""

    RATIO_SETS = [
        ([0.25, 0.25, 0.25, 0.25], None),
        ([0.4, 0.3, 0.2, 0.1], None),
        ([0.1, 0.2, 0.3, 0.4], {0: [0.7, 0.1, 0.1, 0.1]}),
    ]

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_evaluate_many_matches_scalar(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        batched = cost_model.evaluate_many(program, self.RATIO_SETS)
        for (base, per_segment), b in zip(self.RATIO_SETS, batched):
            scalar = cost_model.evaluate(
                program, base, ratios_per_segment=per_segment
            )
            assert b.total == scalar.total
            assert b.communication == scalar.communication
            assert b.computation == scalar.computation
            assert b.exposed_communication == scalar.exposed_communication
            assert b.hidden_communication == scalar.hidden_communication
            assert list(b.stage_times) == list(scalar.stage_times)

    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_evaluate_many_honours_overlap_override(
        self, overlap, training_graphs, parity_cluster
    ):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        batched = cost_model.evaluate_many(program, self.RATIO_SETS, overlap=overlap)
        for (base, per_segment), b in zip(self.RATIO_SETS, batched):
            scalar = cost_model.evaluate(
                program, base, ratios_per_segment=per_segment, overlap=overlap
            )
            assert b.total == scalar.total
            assert b.exposed_communication == scalar.exposed_communication
            assert list(b.stage_times) == list(scalar.stage_times)

    @pytest.mark.parametrize("segments", [1, 2])
    def test_planner_pricing_matches_scalar_evaluate(self, segments, parity_cluster):
        """End to end: the batched pair pricing of ``HAPPlanner.plan`` reports
        the same estimate as one scalar ``evaluate`` of the chosen (Q, B)."""
        graph = build_training_graph(build_mlp()).graph
        config = PlannerConfig(
            max_rounds=2,
            synthesis=SynthesisConfig(search_strategy="beam", beam_width=8),
            load_balancer=LoadBalancerConfig(num_segments=segments),
        )
        plan = HAPPlanner(graph, parity_cluster, config).plan()
        assert (plan.segment_of is None) == (segments == 1)
        scalar = CostModel(graph, parity_cluster).evaluate(
            plan.program,
            plan.ratios[0],
            ratios_per_segment=dict(enumerate(plan.ratios)),
            segment_of=plan.segment_of,
        )
        assert plan.estimated_time.total == scalar.total
        assert list(plan.estimated_time.stage_times) == list(scalar.stage_times)
        assert plan.estimated_time.total in [r.cost_after_balancing for r in plan.rounds]

    def test_coefficient_arrays_are_memoized(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        # The arrays are reused across calls, not rebuilt.
        assert cost_model.coefficient_arrays(program) is cost_model.coefficient_arrays(program)


class TestParityAcrossRatios:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_reused_synthesizer_matches_fresh_ones(
        self, model, training_graphs, parity_cluster
    ):
        """Per-rule cost plans are invalidated when the ratios change: one
        synthesizer re-run across a ratio sequence must match a fresh
        synthesizer per ratio vector, costs and search counters included."""
        graph = training_graphs[model]
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        reused = ProgramSynthesizer(graph, parity_cluster, config)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            fresh = ProgramSynthesizer(graph, parity_cluster, config).synthesize(ratios)
            again = reused.synthesize(ratios)
            _assert_identical(fresh, again, f"{model}/beam/ratios={ratios}")
            assert again.expanded_states == fresh.expanded_states
            assert again.generated_states == fresh.generated_states
