"""End-to-end planning benchmark: forward graph -> verified plan.

A single-process closed loop with one client: each seeded request calls the
public API (``repro.hap.hap`` / ``repro.hap.hap_pipeline``) with library
defaults plus the request's own user-level choices, and the next request is
sent when the previous plan returns.  Only that call is timed.  After it, and
outside the timed region, every plan is verified from outside the planner
(``verify_program`` / ``verify_plan``), simulated at a fixed simulator seed and
digested.  Once per run the four tiny registry models are planned and executed
with the SPMD runtime against single-device execution.

Usage, from the repository root::

    python3 perfbench/run.py --workload flat-small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` plans every
request twice in a row, untraced and with every layer's entry point wrapped by
:mod:`spans`, and prints the per-layer metrics, a self-time table and the
tracing overhead; the spans are written as Chrome-trace JSON (loadable in
Perfetto) under ``perfbench/results/``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any plan fails, fails verification, fails the
runtime equivalence check, or differs from the digest an earlier run with the
same seed and length recorded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

import workloads  # noqa: E402  (sibling module; the benchmark runs as a script)

#: Simulator seed for ``sim_samples_per_s_geo``: fixed so the metric is a
#: deterministic function of the plans.
SIM_SEED = 0
SIM_ITERATIONS = 3
#: Cold-process set-ups timed before the requests and after them;
#: ``setup_s`` is the median of all, which spreads the samples over the run
#: instead of one moment of a noisy shared host.
SETUP_SAMPLES = (1, 2)
#: Loss and parameter tolerance of the runtime equivalence check, as in
#: examples/quickstart.py.
EQUIVALENCE_TOLERANCE = 1e-2

#: Per-layer seconds that read 0 on every run of a workload whose requests
#: never reach the layer (e.g. the plan cache on the flat workloads, the
#: graph check at today's defaults).  They are printed with the self-time
#: table and saved with the run record, but left out of the result line.
PRINTED_ONLY = frozenset(
    {"graph_check.s", "canonical.s", "hier.self_s", "schedule_sim.s", "cache.get_s", "cache.put_s",
     "planner_verify.s"}
)

END_TO_END_UNITS = {
    "plan_s_p50": "s",
    "plans_per_min": "1/min",
    "sim_samples_per_s_geo": "samples/s",
    "plan_fail_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: plan_fail_frac is 0 on a healthy run; it is printed and carried by the
#: result line's ``attempted`` / ``failed`` instead of being a metric.
REPORTED_END_TO_END = (
    "plan_s_p50", "plans_per_min", "sim_samples_per_s_geo", "peak_rss_mb", "setup_s"
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length on the reference host; sets the number of request cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print 'ready' and exit (set-up timing)")
    return parser.parse_args(argv)


# -- set-up ----------------------------------------------------------------------------

def import_planner():
    """Import the planner from this checkout's ``src/``."""
    if not (ROOT / "src" / "repro" / "hap.py").is_file():
        raise SystemExit(f"error: no planner sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro.hap

    return repro.hap


def time_setup(args: argparse.Namespace, samples: int) -> List[float]:
    """Seconds from process start to inputs ready, in fresh processes."""
    command = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    seconds = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                seconds.append(time.perf_counter() - start)
                proc.stdout.read()
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return seconds


def environment() -> Dict[str, object]:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):  # fixed pure-Python loop: host speed, not a metric
        total += i & 7
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "machine": platform.machine(),
        "calibration_loop_s": round(time.perf_counter() - start, 4),
        "REPRO_VERIFY": os.environ.get("REPRO_VERIFY"),
    }


# -- requests --------------------------------------------------------------------------

def batch_size(forward) -> int:
    leading = {p.spec.shape[0] for p in forward.placeholders() if p.spec.rank > 0}
    if len(leading) != 1:
        raise ValueError(f"ambiguous global batch {sorted(leading)}")
    return leading.pop()


def plan_digests(plan, flat: bool) -> Tuple[str, str]:
    """(content digest, instruction-order digest) of a plan.

    Both hash ``describe()``, the estimate and every program's instructions.
    The content digest takes each program's instructions as a sorted list; the
    order digest keeps emission order.
    """
    programs = [plan.program] if flat else [c.program for c in plan.chunk_sequence()]
    estimate = plan.estimated_time.total if flat else plan.estimated_time
    head = f"{plan.describe()}\n{estimate!r}\n"
    content, order = hashlib.sha256(head.encode()), hashlib.sha256(head.encode())
    for program in programs:
        lines = [str(instr) for instr in program.instructions]
        content.update("\n".join(sorted(lines)).encode() + b"\n--\n")
        order.update("\n".join(lines).encode() + b"\n--\n")
    return content.hexdigest()[:24], order.hexdigest()[:24]


def check_plan(spec, forward, cluster, plan) -> Dict[str, object]:
    """Verify, simulate and digest one plan; all outside the timed region."""
    from repro.simulator import simulate_hierarchical, simulate_plan
    from repro.verify import verify_plan, verify_program

    flat = spec.api == "hap"
    if flat:
        report = verify_program(plan.program, cluster, plan.flat_ratios)
        sim = simulate_plan(plan, cluster, iterations=SIM_ITERATIONS, seed=SIM_SEED)
        iteration_s = sim.total
        exposed = sim.exposed_communication / sim.total
        bubble = 0.0
        breakdowns = [plan.estimated_time]
        collectives = plan.program.num_communications
        counters = {"expanded": plan.synthesis.expanded_states,
                    "generated": plan.synthesis.generated_states, "rounds": len(plan.rounds)}
    else:
        report = verify_plan(plan, forward)
        sim = simulate_hierarchical(plan, iterations=SIM_ITERATIONS, seed=SIM_SEED)
        iteration_s = sim.total
        # Boundary transfers left exposed, as a share of all stage-seconds
        # (busy compute and sync plus exposed transfer).
        exposed = sim.schedule.exposed_transfer / (
            sim.schedule.exposed_transfer + sum(sim.schedule.stage_busy)
        )
        bubble = sim.schedule.bubble_fraction
        breakdowns = [chunk.plan.estimated_time for chunk in plan.chunk_sequence()]
        collectives = plan.num_communications
        counters = dict(plan.reuse_stats, stages=plan.num_stages)
    digest, order_digest = plan_digests(plan, flat)
    return {
        "ok": report.ok,
        "verify_errors": len(report.errors),
        "lint_warnings": len(report.warnings),
        "diagnostics": [d.describe() for d in report.errors],
        "samples_per_s": batch_size(forward) / iteration_s,
        "est_iter_s": plan.estimated_iteration_time,
        "comm_frac": sum(b.communication for b in breakdowns) / sum(b.total for b in breakdowns),
        "exposed_comm_frac": exposed,
        "bubble_frac": bubble,
        "collectives": collectives,
        "counters": counters,
        "digest": digest,
        "order_digest": order_digest,
    }


def timed_plan(api, spec, inputs, cache, tracer=None):
    """One request: (record, plan or None).  Only the API call is timed."""
    import spans

    from repro.core import HierarchicalConfig

    forward, cluster, overrides = inputs
    record: Dict[str, object] = {"index": spec.index, "label": spec.label(), "role": spec.role}
    plan = None
    start = time.perf_counter()
    try:
        with tracer.span(spans.REQUEST, request=spec.index) if tracer else nullcontext():
            if spec.api == "hap":
                plan = api.hap(forward, cluster)
            else:
                config = HierarchicalConfig(plan_cache=cache, **overrides)
                plan = api.hap_pipeline(forward, cluster, config)
    except Exception as exc:  # a failed request is counted, not fatal
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    record["seconds"] = time.perf_counter() - start
    return record, plan


def checked(record, spec, inputs, plan, tracer=None) -> Dict[str, object]:
    forward, cluster, _ = inputs
    if plan is not None:
        try:
            with tracer.span("verify", request=spec.index) if tracer else nullcontext():
                record.update(check_plan(spec, forward, cluster, plan))
        except Exception as exc:
            record.update(ok=False, error=f"check {type(exc).__name__}: {exc}")
    return record


def run_requests(api, specs, inputs, trace: bool):
    """Plan every request in order: (untraced records, traced records, tracer).

    With tracing each request is planned twice in a row, untraced and traced,
    alternating which goes first, so both passes see the same process state.
    Each pass has its own benchmark-owned plan cache.  The layer wrappers are
    installed around the traced call only; the benchmark's checks run
    unwrapped, under one ``verify`` span.
    """
    import spans

    from repro.core import InMemoryPlanCache

    cache, traced_cache = InMemoryPlanCache(), InMemoryPlanCache()
    tracer = spans.Tracer() if trace else None
    records: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    for spec, request_inputs in zip(specs, inputs):
        sides = ((False, True) if spec.index % 2 == 0 else (True, False)) if trace else (False,)
        for traced_side in sides:
            if traced_side:
                fresh_inputs = workloads.build_request(spec)
                with spans.installed(tracer, traced_cache):
                    record, plan = timed_plan(api, spec, fresh_inputs, traced_cache, tracer)
                traced.append(checked(record, spec, fresh_inputs, plan, tracer))
            else:
                record, plan = timed_plan(api, spec, request_inputs, cache)
                records.append(checked(record, spec, request_inputs, plan))
            del plan
            # Free the finished request's cyclic garbage now rather than at a
            # later request's allocation threshold, so peak memory tracks the
            # largest request instead of the order requests came in.
            gc.collect()
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, traced, tracer


def equivalence_checks(api, seed: int) -> List[Dict[str, object]]:
    """Plan the tiny registry models and execute them against one device."""
    import numpy as np

    from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
    from repro.data import batches_for_graph
    from repro.models import MODEL_NAMES, build_tiny_model
    from repro.runtime import SingleDeviceExecutor, init_parameters
    from repro.runtime.spmd import run_plan
    from repro.verify import verify_program

    machines = [Machine(name, device_type(kind), num_gpus=1)
                for name, kind in (("a1", "A100"), ("a2", "A100"), ("p1", "P100"), ("p2", "P100"))]
    cluster = ClusterSpec(machines, network=NetworkSpec(bandwidth=100e9 / 8, latency=20e-6),
                          group_by_machine=False, name="equivalence")
    records = []
    for name in MODEL_NAMES:
        record: Dict[str, object] = {"model": name}
        try:
            plan = api.hap(build_tiny_model(name), cluster)
            graph = plan.program.graph
            bindings = {**init_parameters(graph, seed=seed),
                        **batches_for_graph(graph, seed=seed + 1)}
            reference = SingleDeviceExecutor(graph).run(bindings)
            distributed = run_plan(plan, bindings)
            shared = [key for key in reference if key in distributed.outputs]
            loss_err = abs(float(reference[graph.loss]) - float(distributed.loss))
            param_err = max(
                float(np.max(np.abs(reference[k] - distributed.outputs[k]))) for k in shared
            )
            verified = verify_program(plan.program, cluster, plan.flat_ratios).ok
            record.update(loss_err=loss_err, param_err=param_err, outputs=len(shared),
                          verified=verified,
                          ok=verified and loss_err < EQUIVALENCE_TOLERANCE
                          and param_err < EQUIVALENCE_TOLERANCE)
        except Exception as exc:
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        records.append(record)
    return records


# -- determinism -----------------------------------------------------------------------

def fingerprint(record: Dict[str, object]) -> Dict[str, object]:
    return {key: record.get(key) for key in ("digest", "order_digest", "counters")} | {
        "samples_per_s": repr(record.get("samples_per_s"))
    }


def compare_runs(
    label: str, reference: List[Dict], current: List[Dict]
) -> Tuple[List[str], List[str]]:
    """(problems, notes) where ``current`` differs from ``reference``, by request.

    The plan content, its estimate and the counters must match exactly.  The
    planner emits the instructions of some plans (bert_base and bert_moe) in
    a process-dependent order, and the simulator's noise draws follow that
    order, so simulated throughput is held to exact equality only where the
    instruction order matches too; a reordered request is reported as a note
    with its throughput difference.
    """
    problems, notes = [], []
    if len(reference) != len(current):
        problems.append(f"{label}: {len(current)} requests, reference has {len(reference)}")
    for index, (ref, cur) in enumerate(zip(reference, current)):
        differing = [key for key in ("digest", "counters") if ref.get(key) != cur.get(key)]
        same_order = ref.get("order_digest") == cur.get("order_digest")
        if same_order and ref.get("samples_per_s") != cur.get("samples_per_s"):
            differing.append("samples_per_s")
        if differing:
            problems.append(f"{label}: request #{index} differs in {', '.join(differing)}")
        elif not same_order:
            old, new = float(ref["samples_per_s"]), float(cur["samples_per_s"])
            notes.append(f"{label}: request #{index} emits its instructions in another order "
                         f"(simulated samples/s {old:.6g} -> {new:.6g})")
    return problems, notes


def check_determinism(args, cycles: int, records: List[Dict]) -> Tuple[List[str], List[str]]:
    """Compare with the digests the first run of this seed and length stored."""
    path = RESULTS / "digests" / f"{args.workload}-seed{args.seed}-cycles{cycles}.json"
    current = [fingerprint(r) for r in records]
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(current, indent=1))
        os.replace(tmp, path)
        return [], []
    return compare_runs(f"digest vs {path.name}", json.loads(path.read_text()), current)


# -- metrics ---------------------------------------------------------------------------

def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else float("nan")


def plans_per_min(records: List[Dict]) -> float:
    """Verified plans per minute of planning wall time."""
    return sum(1 for r in records if r.get("ok")) / sum(r["seconds"] for r in records) * 60.0


def end_to_end(records: List[Dict], setup: List[float]) -> Dict[str, Tuple[float, int]]:
    """Metric -> (value, sample count)."""
    ok = [r for r in records if r.get("ok")]
    return {
        "plan_s_p50": (statistics.median(r["seconds"] for r in ok), len(ok)),
        "plans_per_min": (plans_per_min(records), len(records)),
        "sim_samples_per_s_geo": (geomean([r["samples_per_s"] for r in ok]), len(ok)),
        "plan_fail_frac": ((len(records) - len(ok)) / len(records), len(records)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer(
    tracer, records: List[Dict], untraced: List[Dict], spawns: int
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the traced pass: name -> (value, unit)."""
    import spans

    out: Dict[str, Tuple[float, str]] = {}
    seconds, calls = tracer.layer_seconds(), tracer.layer_calls()
    for name, seconds_metric, calls_metric in spans.LAYERS:
        out[seconds_metric] = (seconds.get(name, 0.0), "s")
        if calls_metric:
            out[calls_metric] = (calls.get(name, 0), "count")
    c = tracer.counters
    for key in ("autodiff.nodes", "theory.rules", "search.expanded", "search.generated",
                "search.blocks_recorded", "search.blocks_replayed", "search.block_fallbacks",
                "lp.failed", "planner.rounds", "hier.candidates", "hier.subplans_planned",
                "hier.subplans_deduped", "cache.hits", "cache.rejects", "cache.whole_plan_hits",
                "cache.chunk_hits"):
        out[key] = (c.get(key, 0), "count")
    occurrences = c.get("search.block_occurrences", 0)
    replay_ratio = c.get("search.blocks_replayed", 0) / occurrences if occurrences else 0.0
    out["search.replay_ratio"] = (replay_ratio, "frac")
    gets = calls.get("core.plancache.get", 0)
    out["cache.hit_ratio"] = (c.get("cache.hits", 0) / gets if gets else 0.0, "frac")
    ok = [r for r in records if r.get("ok")]
    out["costmodel.est_iter_ms_geo"] = (geomean([r["est_iter_s"] * 1e3 for r in ok]), "ms")
    out["verify.errors"] = (sum(r.get("verify_errors", 0) for r in records), "count")
    out["lint.warnings"] = (sum(r.get("lint_warnings", 0) for r in records), "count")
    out["workerpool.spawns"] = (spawns, "count")
    for key, field in (("plan.collectives", "collectives"), ("plan.comm_frac", "comm_frac"),
                       ("sim.exposed_comm_frac", "exposed_comm_frac"),
                       ("sched.bubble_frac", "bubble_frac")):
        out[key] = (statistics.fmean(r[field] for r in ok) if ok else 0.0,
                    "count" if key == "plan.collectives" else "frac")
    out["trace.overhead_frac"] = (1.0 - plans_per_min(records) / plans_per_min(untraced), "frac")
    return out


# -- main ------------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    os.environ.pop("REPRO_VERIFY", None)  # library defaults: no verify-after-plan
    api = import_planner()
    cycles = workloads.num_cycles(args.workload, args.seconds)
    specs = workloads.generate(args.workload, args.seed, cycles)
    inputs = [workloads.build_request(spec) for spec in specs]
    if args.setup_only:
        print("ready", flush=True)
        return 0
    own_setup = time.perf_counter() - process_start
    setup = time_setup(args, SETUP_SAMPLES[0])
    env = environment()
    print(f"workload {args.workload} seed {args.seed}: {len(specs)} requests in {cycles} cycle(s)")
    print("environment " + json.dumps(env, sort_keys=True))

    from repro.core import workerpool

    spawns_before = workerpool.pool_spawn_count()
    records, traced_records, tracer = run_requests(api, specs, inputs, bool(args.trace))
    setup += time_setup(args, SETUP_SAMPLES[1])
    spawns = workerpool.pool_spawn_count() - spawns_before
    equivalence = equivalence_checks(api, args.seed)

    problems: List[str] = []
    for record in records + traced_records:
        if not record.get("ok"):
            problems.append(f"request #{record['index']} {record['label']}: "
                            f"{record.get('error') or record.get('diagnostics')}")
    for record in equivalence:
        if not record.get("ok"):
            problems.append(f"equivalence {record['model']}: {record}")
    digest_problems, notes = check_determinism(args, cycles, records)
    problems += digest_problems
    if args.trace:
        trace_problems, trace_notes = compare_runs(
            "traced vs untraced",
            [fingerprint(r) for r in records],
            [fingerprint(r) for r in traced_records],
        )
        problems += trace_problems
        notes += trace_notes

    for record in records:
        print(f"  #{record['index']:>2} {record['seconds']:8.3f} s {record['rss_mb']:7.0f} MB "
              f"{'ok ' if record.get('ok') else 'FAIL'} {record['label']}")
    for record in equivalence:
        print(f"  equivalence {record['model']:<10} {'ok' if record.get('ok') else 'FAIL'} "
              f"loss err {record.get('loss_err', float('nan')):.2e} "
              f"param err {record.get('param_err', float('nan')):.2e}")
    for note in notes:
        print(f"note: {note}")

    metrics_e2e = end_to_end(records, setup)
    print("end-to-end (untraced):")
    for name, (value, count) in metrics_e2e.items():
        print(f"  {name:<22} {value:14.6g} {END_TO_END_UNITS[name]:<10} n={count}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    layer_metrics: Dict[str, Tuple[float, str]] = {}
    run_record: Dict[str, object] = {"args": vars(args), "environment": env, "setup_s": setup,
                                     "requests": records, "equivalence": equivalence}
    if tracer is not None:
        import spans

        layer_metrics = per_layer(tracer, traced_records, records, spawns)
        print("per-layer self time (traced):")
        for line in spans.format_table(tracer, [r["index"] for r in traced_records]):
            print(line)
        print("per-layer metrics (traced):")
        for name, (value, unit) in layer_metrics.items():
            note = "  (printed only)" if name in PRINTED_ONLY else ""
            print(f"  {name:<28} {value:14.6g} {unit}{note}")
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_chrome_trace(trace_path, tracer, {s.index: s.label() for s in specs}, env)
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        run_record.update(traced_requests=traced_records,
                          per_layer={k: v[0] for k, v in layer_metrics.items()})
    (RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run_record, indent=1, default=str))

    for problem in problems:
        print(f"FAILED {problem}")
    attempted = len(records) + len(traced_records) + len(equivalence)
    failed = sum(1 for r in records + traced_records + equivalence if not r.get("ok"))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics.items() if name not in PRINTED_ONLY}
    else:
        metrics = {name: {"value": metrics_e2e[name][0], "unit": END_TO_END_UNITS[name]}
                   for name in REPORTED_END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
