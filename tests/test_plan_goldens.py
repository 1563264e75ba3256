"""Golden digests of synthesized plans.

Each case plans a small model under one fixed configuration and hashes what
the search produced: every instruction's ``describe()`` line, the cost as
``float.hex()`` (so a one-ulp drift fails), and the ``expanded_states`` /
``generated_states`` counters (so a search that reaches the same program by
exploring differently fails too).  The digests were recorded while the
synthesizer still carried an unoptimized reference implementation of every
hot path (scan-all candidate rules, flat-list dominance tables, unmemoized
costs, ``sorted()`` beam ranking, scalar plan pricing), and that reference
produced the same digest on every case.  They pin the one remaining
implementation to those plans, and must not depend on ``PYTHONHASHSEED``.
The ``hap/*`` cases plan each tiny registry model through ``hap()`` with
the default configuration, the path every caller takes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.autodiff import build_training_graph
from repro.core import HAPPlanner, PlannerConfig, ProgramSynthesizer, SynthesisConfig
from repro.graph import DType, GraphBuilder
from repro.hap import hap
from repro.models import MODEL_NAMES, build_tiny_model

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster
from .test_optimization_parity import build_deep_transformer

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
}

#: The ratio sequence one synthesizer is re-run with (uniform, skewed, back):
#: each change must invalidate the per-rule cost plans of the previous one.
RATIO_SEQUENCE = ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4)

GOLDENS = {
    "astar-unrestricted/tiny": "7634bbf96b11d4b5a5ae60400d8a0b2136d021684d849c8948ec6f6e509d2c94",
    "astar/mlp": "873345c78c1b40fd18ca8d4188f8b7aac703b22d5cbb795c9fa8b19fbeddab12",
    "astar/tiny_transformer": "7c8d508856395f3c69c957ab3bc3f4f1b3ef723205a92b646b836945500d0632",
    "beam-block-reuse/deep3": "82ca3edc06c17454c4d6d85c2a8358dd4b0787cd0861474a35c2799fb6a4e797",
    "beam-ratio-sequence/mlp": "8ec55dd6208f660575ba892813e49429c3f8f0f8ba086ee70a697678140095cc",
    "beam/mlp": "e3ac6f819585d7536a4ed55dc1e5d0943f456ba0f6dfc3cf1c006630aca77e84",
    "beam/tiny_moe": "d51360cfd5c56bcb4a96972a2036ebc9e39aa5c1c353685a9dff35ae2746889f",
    "beam/tiny_transformer": "87e69b896e0fdcdb152c2f64c805e5f9a3f418306ea36ef1a1c45f12d44ae597",
    "hap/bert_base": "045cb72d2ad9e97fb3765b34009c481aaa2f4c2c01311beab30c9759c597005b",
    "hap/bert_moe": "0819af5ba9c6d1e6db41cbfbbd72b6ddb52681688c9825986bb040e3071fd60a",
    "hap/vgg19": "8c1c8ee476a559de5979555f3562808227ce07953f2f1091bd4464460c8bedca",
    "hap/vit": "3392527fd4405678a9083862ef764a6c4437b3af3aba21b57d4a21707c0ab903",
    "planner-2-rounds/mlp": "9dd5e5853ac76978ea9238535197e6257420f81b9bacf83168ec526524a09d6b",
}


def _cluster():
    return make_cluster(("A100", "A100", "P100", "P100"))


def _digest_update(digest, instructions, cost, expanded, generated):
    for instr in instructions:
        digest.update(instr.describe().encode())
        digest.update(b"\n")
    digest.update(f"{cost.hex()} {expanded} {generated}\n".encode())


def _digest_results(results):
    digest = hashlib.sha256()
    for result in results:
        _digest_update(
            digest,
            result.program.instructions,
            result.cost,
            result.expanded_states,
            result.generated_states,
        )
    return digest.hexdigest()


def _training(builder):
    return build_training_graph(builder()).graph


def _tiny_classifier():
    """Single-matmul classifier: the unrestricted search is only tractable
    on graphs this small with an untrimmed open list."""
    b = GraphBuilder("tiny")
    x = b.placeholder((16, 8), name="x")
    w = b.parameter((8, 4), name="w")
    y = b.matmul(x, w)
    labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
    b.loss(b.cross_entropy(y, labels))
    return b.build()


def _search(graph, strategy, **config):
    config.setdefault("beam_width", 8)
    config.setdefault("enable_block_reuse", False)
    synthesizer = ProgramSynthesizer(
        graph, _cluster(), SynthesisConfig(search_strategy=strategy, **config)
    )
    return _digest_results([synthesizer.synthesize()])


def _ratio_sequence():
    synthesizer = ProgramSynthesizer(
        _training(build_mlp), _cluster(), SynthesisConfig(search_strategy="beam", beam_width=8)
    )
    return _digest_results([synthesizer.synthesize(r) for r in RATIO_SEQUENCE])


def _plan_digest(plan):
    """Digest of a planner result: final program and cost, the final
    search's counters, and every round's costs and ratios."""
    digest = hashlib.sha256()
    _digest_update(
        digest,
        plan.program.instructions,
        plan.estimated_time.total,
        plan.synthesis.expanded_states,
        plan.synthesis.generated_states,
    )
    for round_ in plan.rounds:
        ratios = " ".join(r.hex() for segment in round_.ratios for r in segment)
        digest.update(
            f"{round_.cost_after_synthesis.hex()} {round_.cost_after_balancing.hex()} "
            f"{ratios}\n".encode()
        )
    return digest.hexdigest()


def _planner():
    config = PlannerConfig(
        max_rounds=2, synthesis=SynthesisConfig(search_strategy="beam", beam_width=8)
    )
    return _plan_digest(HAPPlanner(_training(build_mlp), _cluster(), config).plan())


CASES = {
    **{
        f"beam/{name}": (lambda b=builder: _search(_training(b), "beam"))
        for name, builder in MODEL_BUILDERS.items()
    },
    **{
        f"astar/{name}": (lambda b=MODEL_BUILDERS[name]: _search(_training(b), "astar"))
        for name in ("mlp", "tiny_transformer")
    },
    "astar-unrestricted/tiny": lambda: _search(
        build_training_graph(_tiny_classifier()).graph,
        "astar",
        beam_width=None,
        follow_topological_order=False,
    ),
    "beam-ratio-sequence/mlp": _ratio_sequence,
    "beam-block-reuse/deep3": lambda: _search(
        build_training_graph(build_deep_transformer(layers=3)).graph,
        "beam",
        enable_block_reuse=True,
    ),
    "planner-2-rounds/mlp": _planner,
    **{
        f"hap/{name}": (lambda n=name: _plan_digest(hap(build_tiny_model(n), _cluster())))
        for name in MODEL_NAMES
    },
}

#: Recomputes every digest in a fresh interpreter (run with a fixed seed).
DIGEST_SCRIPT = """
import json
from tests.test_plan_goldens import CASES
print(json.dumps({case: CASES[case]() for case in sorted(CASES)}))
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_matches_golden(case):
    assert CASES[case]() == GOLDENS[case]


@pytest.mark.parametrize("hash_seed", [1, 2])
def test_goldens_do_not_depend_on_string_hashing(hash_seed):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), REPRO_VERIFY="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(root), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == GOLDENS
