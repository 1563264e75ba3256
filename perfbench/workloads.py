"""Seeded request generator of the planning benchmark.

A workload is a *cycle*: a fixed design of planning requests whose free
choices are drawn from the seed.  The design is stratified so that every cycle
covers the same strata, and only choices that leave the run-level aggregates
(median plan time, geometric mean of simulated throughput, peak memory)
comparable from seed to seed are left to the seed:

* flat-deep: request order and machine order;
* flat-small: GPU pair, network and machine order of every request (each
  model sees every device count, pair and network, and each device count
  every network), and request order;
* pipeline-replan: the order of problems, repeats and near-repeats.

Another seed therefore gives other inputs on which a claim made on one seed
can be rechecked.  The planner only ever receives the generated forward
graphs, clusters and user-level configuration choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("flat-deep", "flat-small", "pipeline-replan")

DEFAULT_SEED = 1

#: Wall seconds one cycle of each workload's requests takes on a 2-core x86
#: host (plan time only).  ``--seconds`` is turned into a whole number of
#: cycles with these, so every run with the same seed and length plans the
#: same requests: counts and digests then repeat exactly across runs.
NOMINAL_CYCLE_SECONDS = {"flat-deep": 33.0, "flat-small": 10.0, "pipeline-replan": 19.0}

#: GPU pairs whose summed sustained throughput lies within 5% of each other
#: (A10+T4 18.5, A10+P100 19.2, A100+V100 19.4 TFLOPS), so the choice of pair
#: changes the sharding-ratio problem but hardly the cluster's capacity.
BALANCED_PAIRS = (("A10", "T4"), ("A10", "P100"), ("A100", "V100"))

#: flat-small networks, assigned by a seeded Latin square over (family,
#: device count): each family and each device count meets each network once.
SMALL_NETWORK_GBPS = (10.4, 25.0, 50.0, 100.0)

#: flat-deep: every Table 1 transformer at paper depth, each with its own GPU
#: pair and on the network class it is usually trained over (MoE all-to-alls
#: want the fast fabric).  With three requests per cycle there is nothing to
#: average a model x cluster interaction over (it moves bert_moe's simulated
#: throughput by 4x across networks and bert_base's plan time by 1.5x across
#: pairs), so the seed only orders the requests and the machines.
DEEP_MODELS = (
    ("vit", 8, ("A100", "V100"), 10.4),
    ("bert_base", 12, ("A10", "P100"), 25.0),
    ("bert_moe", 12, ("A10", "T4"), 100.0),
)

FULL_LAYERS = {"vit": 8, "bert_base": 12, "bert_moe": 12, "vgg19": 16}

#: flat-small device counts.  Every family is planned once on each, its
#: transformers at one layer: nothing repeats inside a model, and the fixed
#: per-plan work (autodiff, theory build, the LP, cost evaluation) is a large
#: share of each request.  All requests take 0.4-1 s, so the median request
#: comes from one group of similar plans rather than from the gap between a
#: fast and a slow group, where host noise and the model mix move it most.
SMALL_DEVICE_COUNTS = (4, 8, 12, 16)
SMALL_LAYERS = 1

#: pipeline-replan problems: (model, GPU kind per machine, near-repeat
#: variant).  A near-repeat changes a user-level choice, and with it the
#: whole-plan cache key but not the chunk-level one.  Simulated throughput
#: moves 5x between models, 2x with the machine count and 1.6x between
#: balanced pairs on two machines, and three problems are too few to average
#: that over, so the problems are fixed and the seed orders the requests.
PIPELINE_PROBLEMS = (
    ("bert_moe", ("A100", "V100"), {"schedules": ("gpipe",)}),
    ("bert_base", ("A10", "P100", "A10"), {"schedules": ("1f1b",)}),
    ("vit", ("A10", "T4", "A10", "T4"), {"recompute": "never"}),
)

INTER_MACHINE_GBPS = 10.4
INTRA_GROUP_GBPS = 100.0


@dataclass(frozen=True)
class RequestSpec:
    """One planning request, as plain data.

    Attributes:
        index: position in the run's request sequence.
        api: ``"hap"`` (flat SPMD) or ``"hap_pipeline"``.
        model: registry model name.
        layers: transformer layers (the full VGG19 for ``vgg19``).
        gpus: GPU kind of every machine, in machine order.
        gpus_per_machine: GPUs on each machine.
        network_gbps: inter-machine network bandwidth.
        role: ``"fresh"``, ``"exact"`` (repeat of an earlier request) or
            ``"near"`` (same model and cluster, other user-level choice).
        variant: user-level ``HierarchicalConfig`` overrides.
    """

    index: int
    api: str
    model: str
    layers: int
    gpus: Tuple[str, ...]
    gpus_per_machine: int
    network_gbps: float
    role: str = "fresh"
    variant: Tuple[Tuple[str, object], ...] = ()

    @property
    def num_gpus(self) -> int:
        return len(self.gpus) * self.gpus_per_machine

    def label(self) -> str:
        kinds = "+".join(sorted(set(self.gpus)))
        extra = "".join(f" {k}={v}" for k, v in self.variant)
        return (
            f"{self.api} {self.model}-L{self.layers} {self.num_gpus}gpu {kinds} "
            f"{self.network_gbps:g}Gbps {self.role}{extra}"
        )


def num_cycles(workload: str, seconds: float) -> int:
    """Whole request cycles that fill ``seconds`` on the reference host."""
    return max(1, round(seconds / NOMINAL_CYCLE_SECONDS[workload]))


def _mixed(rng: random.Random, pair: Tuple[str, str], count: int) -> Tuple[str, ...]:
    """``count`` single-GPU machines, half of each kind, in seeded order."""
    kinds = [pair[0]] * (count // 2) + [pair[1]] * (count - count // 2)
    rng.shuffle(kinds)
    return tuple(kinds)


def _flat_deep_cycle(rng: random.Random) -> List[Dict]:
    cycle = [
        dict(api="hap", model=model, layers=layers, gpus=_mixed(rng, pair, 8),
             gpus_per_machine=1, network_gbps=gbps)
        for model, layers, pair, gbps in DEEP_MODELS
    ]
    rng.shuffle(cycle)
    return cycle


def _latin_square(rng: random.Random, size: int) -> List[List[int]]:
    """A seeded ``size`` x ``size`` Latin square: rows, columns, symbols permuted."""
    rows, cols, symbols = (rng.sample(range(size), size) for _ in range(3))
    return [[symbols[(rows[i] + cols[j]) % size] for j in range(size)] for i in range(size)]


def _flat_small_cycle(rng: random.Random) -> List[Dict]:
    families = ("vgg19", "bert_base", "vit", "bert_moe")
    networks = _latin_square(rng, len(SMALL_NETWORK_GBPS))
    cycle = []
    for f, model in enumerate(families):
        # Every family uses each balanced pair once plus one pair of its own.
        pairs = list(BALANCED_PAIRS) + [BALANCED_PAIRS[f % len(BALANCED_PAIRS)]]
        rng.shuffle(pairs)
        layers = FULL_LAYERS[model] if model == "vgg19" else SMALL_LAYERS
        for d, (count, pair) in enumerate(zip(SMALL_DEVICE_COUNTS, pairs)):
            cycle.append(
                dict(api="hap", model=model, layers=layers, gpus=_mixed(rng, pair, count),
                     gpus_per_machine=1, network_gbps=SMALL_NETWORK_GBPS[networks[f][d]])
            )
    rng.shuffle(cycle)
    return cycle


def _pipeline_cycle(rng: random.Random) -> List[Dict]:
    problems = []
    for model, gpus, variant in PIPELINE_PROBLEMS:
        base = dict(api="hap_pipeline", model=model, layers=2, gpus=gpus, gpus_per_machine=4,
                    network_gbps=INTER_MACHINE_GBPS)
        problems.append((base, dict(base, variant=tuple(sorted(variant.items())))))
    rng.shuffle(problems)
    cycle = []
    # Fresh miss, whole-plan hit, chunk-level near-repeat, and its whole-plan
    # hit; then one more round of whole-plan hits.  Exact repeats are two
    # thirds of the requests, so the median request is a cache hit.
    for base, near in problems:
        cycle += [dict(base, role="fresh"), dict(base, role="exact"),
                  dict(near, role="near"), dict(near, role="exact")]
    for base, near in rng.sample(problems, len(problems)):
        cycle += [dict(base, role="exact"), dict(near, role="exact")]
    return cycle


def generate(workload: str, seed: int, cycles: int) -> List[RequestSpec]:
    """The run's request sequence: ``cycles`` seeded cycles of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    raw: List[Dict] = []
    cycle = {"flat-deep": _flat_deep_cycle, "flat-small": _flat_small_cycle,
             "pipeline-replan": _pipeline_cycle}[workload]
    for _ in range(cycles):
        raw += cycle(rng)
    return [RequestSpec(index=i, **fields) for i, fields in enumerate(raw)]


def build_request(spec: RequestSpec):
    """Materialise a request: (forward graph, cluster, config overrides).

    Every request gets its own freshly built graph and cluster objects, as a
    separate client call would, even when it repeats an earlier request.
    """
    from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
    from repro.models import BenchmarkScale, build_model

    nvlink = {"V100", "A100"}
    machines = [
        Machine(
            f"m{i}", device_type(kind), num_gpus=spec.gpus_per_machine,
            intra_bandwidth=130e9 if kind in nvlink else 28e9,
        )
        for i, kind in enumerate(spec.gpus)
    ]
    pipeline = spec.api == "hap_pipeline"
    cluster = ClusterSpec(
        machines,
        network=NetworkSpec(bandwidth=spec.network_gbps * 1e9 / 8),
        group_by_machine=pipeline,
        name=f"req{spec.index}",
    )
    scale = BenchmarkScale(
        f"L{spec.layers}", layer_fraction=spec.layers / FULL_LAYERS[spec.model]
    )
    forward = build_model(spec.model, num_gpus=cluster.num_gpus, scale=scale)
    overrides: Optional[Dict[str, object]] = None
    if pipeline:
        overrides = dict(spec.variant)
        if "schedules" in overrides:
            overrides["schedules"] = list(overrides["schedules"])
        overrides["intra_group_network"] = NetworkSpec(bandwidth=INTRA_GROUP_GBPS * 1e9 / 8)
    return forward, cluster, overrides
