"""A*-based distributed-program synthesis (Sec. 4.3 of the paper).

The synthesizer searches the space of distributed programs defined by the
background theory (:mod:`repro.core.rules`).  A partial program is represented
by its *search state*: the set of live properties, the set of emulated
single-device nodes, the set of communicated tensors, and the cost bookkeeping
of the stage currently being filled.  The three sets are Python ints used as
bitmasks — properties over a ``(ref, kind, dim)``-sorted table of every
property the theory mentions, nodes over the graph's node order, communicated
tensors over the sorted communicated refs — so applying a rule is a handful of
int operations and a state key hashes three ints.  The search repeatedly pops the
lowest-score state from a priority queue and appends every applicable Hoare
triple, exactly as in Fig. 10, with the paper's three search-time
optimisations:

1. source instructions are pre-fused into consumer rules (done in
   :func:`repro.core.rules.build_theory`);
2. every reference tensor may be communicated at most once, and placeholders /
   parameters are never communicated (they are created already sharded);
3. properties of tensors whose consumers have all been emulated are dropped,
   which lets the dominance check merge many more states.

The dominance check itself generalises lines 9–14 of Fig. 10: two partial
programs with identical state are compared by their per-device accumulated
cost vectors, and the dominated one is discarded.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec
from ..graph.canonical import BlockRun, find_repeated_blocks
from ..graph.graph import ComputationGraph
from ..graph.ops import OpKind
from . import workerpool
from .config import SynthesisConfig
from .costmodel import CostModel, beam_rank_order
from .instructions import CommInstruction, Instruction
from .pareto import ParetoFront
from .program import DistributedProgram
from .properties import Property
from .rules import Rule, Theory, build_theory, ordered_pre

#: Markers of the per-rule cost plan replayed by ``_apply``: a synchronising
#: collective (closes the open stage) or a per-device computation-time delta.
_SYNC = 0
_COMP = 1

#: Relative tolerance of the block-replay rank-order guard.  Occurrences of a
#: block enter it with different accumulated costs, so two survivors whose
#: ranking costs tie in the template can round a few ulps apart in a replay,
#: in either order; costs this close count as tied.
_RANK_TIE_RTOL = 1e-12


class SynthesisError(RuntimeError):
    """Raised when no semantically equivalent distributed program is found."""


def _bit_indexes(mask: int) -> Iterator[int]:
    """Indexes of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run.

    Attributes:
        program: the optimal distributed program found.
        cost: its estimated per-iteration time under the given ratios.
        expanded_states: number of states popped from the priority queue.
        generated_states: number of states pushed to the priority queue.
        elapsed_seconds: wall-clock synthesis time.
    """

    program: DistributedProgram
    cost: float
    expanded_states: int
    generated_states: int
    elapsed_seconds: float


class _SearchNode:
    """One partial program in the A* frontier (immutable once created)."""

    __slots__ = (
        "parent",
        "rule",
        "properties",
        "completed",
        "communicated",
        "closed_cost",
        "stage_comp",
        "completed_ideal",
        "depth",
        "topo_ptr",
    )

    def __init__(
        self,
        parent: Optional[_SearchNode],
        rule: Optional[Rule],
        properties: int,
        completed: int,
        communicated: int,
        closed_cost: float,
        stage_comp: Tuple[float, ...],
        completed_ideal: float,
        depth: int,
        topo_ptr: int = 0,
    ) -> None:
        self.parent = parent
        self.rule = rule
        self.properties = properties
        self.completed = completed
        self.communicated = communicated
        self.closed_cost = closed_cost
        self.stage_comp = stage_comp
        self.completed_ideal = completed_ideal
        self.depth = depth
        #: index into the synthesizer's topological order of the first node
        #: not yet emulated (maintained incrementally by ``_apply``).
        self.topo_ptr = topo_ptr

    def instructions(self) -> List[Instruction]:
        """Reconstruct the instruction sequence by walking parent pointers."""
        rules: List[Rule] = []
        node: Optional[_SearchNode] = self
        while node is not None and node.rule is not None:
            rules.append(node.rule)
            node = node.parent
        out: List[Instruction] = []
        for rule in reversed(rules):
            out.extend(rule.instructions)
        return out

    def open_stage_cost(self) -> float:
        return max(self.stage_comp) if self.stage_comp else 0.0


class _OccurrenceInfo:
    """Static (ratio-independent) data of one repeated-block occurrence."""

    __slots__ = (
        "node_names",
        "occ_refs",
        "ref_idx",
        "ref_bits",
        "relevant_mask",
        "pending_masks",
        "prop_mask",
        "prop_local",
        "local_props",
        "comm_mask",
        "comm_local",
        "comm_bits",
        "sigmaps",
    )

    def __init__(
        self,
        node_names: Tuple[str, ...],
        occ_refs: Tuple[str, ...],
        ref_idx: Dict[str, int],
        ref_bits: Tuple[int, ...],
        relevant_mask: int,
        pending_masks: Tuple[int, ...],
        prop_mask: int,
        prop_local: Dict[int, Tuple[int, str, int]],
        comm_mask: int,
        comm_local: Dict[int, int],
        comm_bits: Tuple[int, ...],
    ) -> None:
        self.node_names = node_names
        self.occ_refs = occ_refs
        self.ref_idx = ref_idx
        self.ref_bits = ref_bits
        self.relevant_mask = relevant_mask
        self.pending_masks = pending_masks
        #: property bits of the occurrence's refs, and each such bit index's
        #: block-local encoding ``(ref index, kind, dim)`` (plus the inverse).
        self.prop_mask = prop_mask
        self.prop_local = prop_local
        self.local_props = {enc: 1 << i for i, enc in prop_local.items()}
        #: communicated bits of the occurrence's refs, each bit index's ref
        #: index, and each ref index's bit (0 if the ref is never communicated).
        self.comm_mask = comm_mask
        self.comm_local = comm_local
        self.comm_bits = comm_bits
        #: lazily-built signature -> rule maps per candidate list (signatures
        #: are structural, so the maps survive across synthesize() calls).
        self.sigmaps: Dict[Tuple, Dict[Tuple, Rule]] = {}


class _BlockRecord:
    """Recorded beam decisions of one block template.

    ``levels[j]`` holds, per surviving beam state of in-block level ``j``, the
    raw pair ``(parent index in the entering beam, rule chain)`` where the
    chain lists the applied rules (enabling collectives, then the computation
    rule) of the recording occurrence ``info``.  ``needed[j]`` is the set of
    level-``j`` beam positions consumed by later levels (the rest were padding
    in the template's beam and need not be replayed); the final level is
    needed in full, since the post-block search continues from it.
    ``exit_rel`` describes, per exit-beam position, the block-relevant part of
    the template's exit state — (property encodings, communicated ref indices,
    completed ref indices) — from which a replay reconstructs the occurrence's
    exit states directly: context irrelevant to the block passes through a
    block unchanged (liveness drops, completions and communications only ever
    touch the block's own references), so only cost accumulation needs to walk
    the decision chains.

    Most records are never replayed (beam warm-up re-records a block until
    its entry beams settle), so recording stays cheap: the chains are turned
    into block-local descriptors only on the first replay, and only at the
    needed positions (``replay_levels``, built by
    :meth:`ProgramSynthesizer._replay_levels`).
    """

    __slots__ = ("entry_sig", "levels", "needed", "exit_rel", "info", "replay_levels")

    def __init__(
        self,
        entry_sig: Tuple,
        levels: List[List[Tuple[int, Tuple[Rule, ...]]]],
        exit_rel: List[Tuple],
        info: _OccurrenceInfo,
    ) -> None:
        self.entry_sig = entry_sig
        self.levels = levels
        self.exit_rel = exit_rel
        self.info = info
        needed: List[Set[int]] = [set() for _ in levels]
        if levels:
            needed[-1] = set(range(len(levels[-1])))
            for j in range(len(levels) - 2, -1, -1):
                needed[j] = {levels[j + 1][pos][0] for pos in needed[j + 1]}
        self.needed = needed
        #: per level, ``(position, parent index, descriptor chain)`` of the
        #: needed positions in template order (None until first replayed).
        self.replay_levels: Optional[List[List[Tuple[int, int, Tuple]]]] = None


class ProgramSynthesizer:
    """Synthesizes the optimal distributed program for fixed sharding ratios."""

    def __init__(
        self,
        graph: ComputationGraph,
        cluster: ClusterSpec,
        config: Optional[SynthesisConfig] = None,
        theory: Optional[Theory] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.config = config or SynthesisConfig()
        self.theory = theory or build_theory(graph, cluster.num_devices, self.config)
        self.cost_model = cost_model or CostModel(graph, cluster)
        self._node_index = {name: i for i, name in enumerate(graph.node_names)}
        self._consumers = graph.consumers()
        self._outputs = set(graph.outputs)
        self._output_mask = 0
        for name in graph.outputs:
            self._output_mask |= 1 << self._node_index[name]
        self._total_ideal = sum(
            self.cost_model.ideal_node_time(n.name)
            for n in graph
            if n.kind is not OpKind.SOURCE
        )
        self._ideal_cache: Dict[str, float] = {}
        # Topological emulation order (non-source nodes only) used when
        # ``config.follow_topological_order`` is set.
        self._topo_order = [n.name for n in graph if n.kind is not OpKind.SOURCE]
        self._topo_pos = {name: i for i, name in enumerate(self._topo_order)}
        #: completion-bitmask of each topological-order node (topo_ptr scans).
        self._topo_masks = [1 << self._node_index[name] for name in self._topo_order]
        #: all-zero open-stage vector reused by _apply.
        self._zero_stage: Tuple[float, ...] = (0.0,) * cluster.num_devices
        # -- hot-path indexes --------------------------------------------------
        # Each index precomputes a state-independent quantity once, so the
        # search never scans the full rule list per expansion.
        #: id(rule) -> bitmask over graph nodes the rule completes.
        self._completes_mask: Dict[int, int] = {}
        #: ref -> (consumer bitmask, participates-in-liveness flag), from
        #: which the per-rule liveness-drop entries derive.
        self._liveness_mask: Dict[str, Tuple[int, bool]] = {}
        #: node name -> candidate rules of the topological-order search.
        self._topo_candidates: Dict[str, List[Rule]] = {}
        #: id(rule) -> (completes mask, ideal deltas, liveness-drop entries).
        self._rule_static_cache: Dict[int, Tuple[int, Tuple[float, ...], Tuple]] = {}
        #: id(rule) -> (cost plan, completes mask, ideals, liveness-drop
        #: entries, post mask, communicates mask) — the single-lookup cache of
        #: _apply (cleared with the cost plans whenever the ratios change).
        self._rule_runtime: Dict[int, Tuple] = {}
        for rule in self.theory.rules:
            mask = 0
            for name in rule.completes:
                mask |= 1 << self._node_index[name]
            self._completes_mask[id(rule)] = mask
        for name in graph.node_names:
            consumers = self._consumers.get(name, [])
            mask = 0
            for consumer in consumers:
                mask |= 1 << self._node_index[consumer]
            self._liveness_mask[name] = (mask, bool(consumers) or name in self._outputs)
        # -- bitmask search states ---------------------------------------------
        self._build_state_tables()
        #: id(rule) -> (pre mask, post mask, communicates mask).
        self._rule_bits_cache: Dict[int, Tuple[int, int, int]] = {}
        #: property bit index -> [(collective, pre mask, communicates mask)]
        #: establishing it, in ``comm_rules_by_post`` order.
        self._enablers: Dict[int, List[Tuple[Rule, int, int]]] = {}
        # -- per-search caches -------------------------------------------------
        #: id(rule) -> cost-replay plan for the current ratios.
        self._rule_plans: Dict[int, Tuple] = {}
        self._plan_ratios: Optional[Tuple[float, ...]] = None
        # -- block reuse (config.enable_block_reuse) ---------------------------
        #: id(rule) -> preconditions in ordered_pre order, with their bits.
        self._pre_order_cache: Dict[int, Tuple[Tuple[Property, int], ...]] = {}
        #: segment schedule over the topological order: plain nodes plus
        #: repeated-block occurrences (built lazily on first beam search).
        self._reuse_segments: Optional[List[Tuple]] = None
        #: (id(run), occurrence index) -> per-occurrence static info.
        self._occ_info: Dict[Tuple[int, int], _OccurrenceInfo] = {}
        #: id(run) -> recorded template decisions (reset per synthesize call;
        #: decisions depend on the sharding ratios).
        self._reuse_records: Dict[int, _BlockRecord] = {}
        #: per-synthesize block-reuse accounting (inspectable after a run).
        self.reuse_stats: Dict[str, int] = {}
        # -- parallel beam expansion (config.synthesis_workers) ----------------
        #: shared pool used by the current beam search (None = serial).
        self._level_pool: Optional[workerpool.WorkerPool] = None
        self._level_workers = 1

    def _build_state_tables(self) -> None:
        """Bit positions of properties and communicated refs, rule indexes.

        Property bits follow the :meth:`Property.sort_key` order of every
        property some rule mentions, and communicated bits the sorted refs
        some rule communicates.  Both tables derive from the rule set alone,
        so forked workers rebuild identical tables, agree on every bit
        without coordination, and a state's ints are its own wire encoding.
        Rules are indexed by position in ``theory.rules`` (the per-node /
        per-ref candidate indexes reference those same objects, so every rule
        a worker can apply has a wire index).
        """
        props: Set[Property] = set()
        refs: Set[str] = set()
        for rule in self.theory.rules:
            props.update(rule.pre)
            props.update(rule.post)
            refs.update(rule.communicates)
        #: bit index -> property, and the inverse.
        self._bit_props: Tuple[Property, ...] = tuple(sorted(props, key=Property.sort_key))
        self._prop_index: Dict[Property, int] = {p: i for i, p in enumerate(self._bit_props)}
        #: ref -> its (contiguous) property bit indexes, and their mask —
        #: what a liveness drop clears.
        self._ref_bit_range: Dict[str, range] = {}
        start = 0
        for i, prop in enumerate(self._bit_props):
            if i + 1 == len(self._bit_props) or self._bit_props[i + 1].ref != prop.ref:
                self._ref_bit_range[prop.ref] = range(start, i + 1)
                start = i + 1
        self._ref_props: Dict[str, int] = {
            ref: ((1 << len(bits)) - 1) << bits.start
            for ref, bits in self._ref_bit_range.items()
        }
        #: communicated bit index -> ref, and the inverse.
        self._bit_refs: Tuple[str, ...] = tuple(sorted(refs))
        self._ref_index: Dict[str, int] = {r: i for i, r in enumerate(self._bit_refs)}
        self._rule_wire_index = {id(r): i for i, r in enumerate(self.theory.rules)}

    def _rule_bits(self, rule: Rule) -> Tuple[int, int, int]:
        """``(pre, post, communicates)`` masks of a rule, computed once."""
        bits = self._rule_bits_cache.get(id(rule))
        if bits is None:
            index, ref_index = self._prop_index, self._ref_index
            pre = post = comm = 0
            for prop in rule.pre:
                pre |= 1 << index[prop]
            for prop in rule.post:
                post |= 1 << index[prop]
            for ref in rule.communicates:
                comm |= 1 << ref_index[ref]
            bits = self._rule_bits_cache[id(rule)] = (pre, post, comm)
        return bits

    # -- helpers -----------------------------------------------------------------
    def _ideal(self, name: str) -> float:
        if name not in self._ideal_cache:
            node = self.graph[name]
            self._ideal_cache[name] = (
                0.0 if node.kind is OpKind.SOURCE else self.cost_model.ideal_node_time(name)
            )
        return self._ideal_cache[name]

    def _score(self, node: _SearchNode) -> float:
        remaining = max(self._total_ideal - node.completed_ideal, 0.0)
        return node.closed_cost + max(node.open_stage_cost(), remaining)

    def _is_complete(self, node: _SearchNode) -> bool:
        return (node.completed & self._output_mask) == self._output_mask

    def _final_cost(self, node: _SearchNode) -> float:
        return node.closed_cost + node.open_stage_cost()

    def _rule_plan(self, rule: Rule, ratios: Sequence[float]) -> Tuple:
        """Cost-replay plan of a rule for fixed ratios.

        One step per costed instruction, in instruction order: ``_apply``
        accumulates the steps exactly as pricing each instruction in turn
        would, without calling the cost model per expansion.
        """
        plan = self._rule_plans.get(id(rule))
        if plan is None:
            steps: List[Tuple[int, object]] = []
            for instr in rule.instructions:
                if isinstance(instr, CommInstruction):
                    if not instr.synchronises:
                        continue  # local slice: no synchronisation, no cost
                    steps.append((_SYNC, self.cost_model.comm_time(instr, ratios)))
                else:
                    steps.append((_COMP, tuple(self.cost_model.comp_times(instr, ratios))))
            plan = self._rule_plans[id(rule)] = tuple(steps)
        return plan

    def _rule_static(self, rule: Rule) -> Tuple[int, Tuple[float, ...], Tuple]:
        """State-independent per-rule quantities.

        Returns the bitmask of nodes the rule completes, their ideal-time
        contributions (in ``rule.completes`` order, the order ``_apply`` adds
        them in), and the liveness-drop entries: ``(consumer mask, property
        mask)`` per reference tensor that may die when the rule fires — the
        reference's properties are dropped once every consumer in the mask is
        emulated (the search's optimisation #3).
        """
        info = self._rule_static_cache.get(id(rule))
        if info is None:
            mask = 0
            ideals: List[float] = []
            dead_candidates: Set[str] = set()
            for name in rule.completes:
                mask |= 1 << self._node_index[name]
                ideals.append(self._ideal(name))
                dead_candidates.update(self.graph[name].inputs)
                dead_candidates.add(name)
            drops = []
            for ref in sorted(dead_candidates):
                consumers, relevant = self._liveness_mask[ref]
                ref_props = self._ref_props.get(ref, 0)
                if relevant and ref_props:
                    drops.append((consumers, ref_props))
            info = (mask, tuple(ideals), tuple(drops))
            self._rule_static_cache[id(rule)] = info
        return info

    def _rule_runtime_of(self, rule: Rule, ratios: Sequence[float]) -> Tuple:
        """(cost plan, completes mask, ideals, liveness drops, post, comm).

        The single-lookup cache of :meth:`_apply`, shared with block replay.
        """
        runtime = self._rule_runtime.get(id(rule))
        if runtime is None:
            runtime = self._rule_runtime[id(rule)] = (
                self._rule_plan(rule, ratios),
                *self._rule_static(rule),
                *self._rule_bits(rule)[1:],
            )
        return runtime

    def _apply(self, node: _SearchNode, rule: Rule, ratios: Sequence[float]) -> _SearchNode:
        """Append a rule to a partial program, updating state and cost.

        Liveness (optimisation #3): properties of tensors that can no longer
        be consumed (every consumer already emulated) are dropped.  Program
        outputs with no consumers (updated parameters, the loss) are dropped
        from the search state as well — their completion is tracked by the
        bitmask, and removing them lets the dominance check merge programs
        that made different (already-paid-for) choices for earlier parts of
        the model.
        """
        runtime = self._rule_runtime.get(id(rule))
        if runtime is None:
            runtime = self._rule_runtime_of(rule, ratios)
        plan, mask, ideals, drops, post, comm = runtime
        closed = node.closed_cost
        stage = node.stage_comp
        for kind, payload in plan:
            if kind == _SYNC:
                closed += max(stage) + payload
                stage = self._zero_stage
            else:
                stage = tuple([s + t for s, t in zip(stage, payload)])
        properties = node.properties | post
        if mask:
            completed = node.completed | mask
            topo_ptr = self._advance_topo_ptr(node.topo_ptr, completed)
            dead = 0
            for consumers, ref_props in drops:
                if (completed & consumers) == consumers:
                    dead |= ref_props
            if dead:
                properties &= ~dead
        else:
            # Pure communication rule: no node completed, liveness unchanged.
            completed = node.completed
            topo_ptr = node.topo_ptr
        completed_ideal = node.completed_ideal
        for ideal in ideals:
            completed_ideal += ideal
        child = _SearchNode.__new__(_SearchNode)
        child.parent = node
        child.rule = rule
        child.properties = properties
        child.completed = completed
        child.communicated = node.communicated | comm
        child.closed_cost = closed
        child.stage_comp = stage
        child.completed_ideal = completed_ideal
        child.depth = node.depth + 1
        child.topo_ptr = topo_ptr
        return child

    def _advance_topo_ptr(self, ptr: int, completed: int) -> int:
        """First index >= ptr in topological order not yet emulated."""
        topo_masks = self._topo_masks
        n = len(topo_masks)
        while ptr < n and completed & topo_masks[ptr]:
            ptr += 1
        return ptr

    def _applicable_rules(self, node: _SearchNode) -> List[Rule]:
        """Rules whose precondition holds and whose application adds something."""
        if self.config.follow_topological_order:
            candidates = self._topological_candidates(node)
        else:
            candidates = self._unrestricted_candidates(node)
        out: List[Rule] = []
        props = node.properties
        completed = node.completed
        communicated = node.communicated
        masks = self._completes_mask
        for rule in candidates:
            pre, post, comm = self._rule_bits(rule)
            if rule.completes:
                if completed & masks[id(rule)]:
                    continue
            elif (props & post) == post:
                continue  # pure communication rule: must add a new property
            if comm & communicated:
                continue
            if (props & pre) == pre:
                out.append(rule)
        return out

    def _unrestricted_candidates(self, node: _SearchNode) -> List[Rule]:
        """All rules triggered by the live properties (paper's Fig. 10 search).

        Live references are visited in property-bit order, i.e. sorted by
        name, so the candidate order does not depend on string hashing.
        """
        candidates: List[Rule] = list(self.theory.rules_by_pre_ref.get("__empty__", []))
        seen: Set[int] = set()
        bit_props = self._bit_props
        last_ref = None
        for i in _bit_indexes(node.properties):
            ref = bit_props[i].ref
            if ref == last_ref:
                continue  # a ref's property bits are contiguous
            last_ref = ref
            for rule in self.theory.rules_by_pre_ref.get(ref, []):
                rid = id(rule)
                if rid not in seen:
                    seen.add(rid)
                    candidates.append(rule)
        return candidates

    def _next_node(self, node: _SearchNode) -> Optional[str]:
        """First non-source node in topological order not yet emulated."""
        if node.topo_ptr < len(self._topo_order):
            return self._topo_order[node.topo_ptr]
        return None

    def _topological_candidates(self, node: _SearchNode) -> List[Rule]:
        """Rules for the next node in topological order plus enabling comms.

        The computation candidates are the sharding variants of the next
        pending node.  The communication candidates are restricted to
        collectives whose output property appears in the precondition of one
        of those variants — i.e. collectives that can enable the next node.
        The candidate list depends only on the next pending node, so it is
        computed once per node and reused.
        """
        next_node = self._next_node(node)
        if next_node is None:
            return []
        cached = self._topo_candidates.get(next_node)
        if cached is None:
            cached = self._topo_candidates[next_node] = self._candidates_for(next_node)
        return cached

    def _candidates_for(self, next_node: str) -> List[Rule]:
        comp_rules = self.theory.comp_rules_by_node.get(next_node, [])
        needed_props: Set[Property] = set()
        # Refs in the variants' ordered_pre order; a set's iteration order
        # would follow string hashing.
        needed_refs: Dict[str, None] = {}
        for rule in comp_rules:
            needed_props.update(rule.pre)
            for prop in ordered_pre(rule):
                needed_refs.setdefault(prop.ref)
        candidates: List[Rule] = list(comp_rules)
        for ref in needed_refs:
            for comm_rule in self.theory.comm_rules_by_ref.get(ref, []):
                if any(p in needed_props for p in comm_rule.post):
                    candidates.append(comm_rule)
        return candidates

    # -- main search ----------------------------------------------------------------
    def synthesize(self, ratios: Optional[Sequence[float]] = None) -> SynthesisResult:
        """Synthesize the optimal distributed program for the given ratios.

        Dispatches to the level-synchronised beam search (default) or the
        unrestricted A* search of Fig. 10 according to the configuration.

        Args:
            ratios: sharding ratios ``B`` (defaults to computation-proportional
                ratios, the paper's ``B^(0)``).

        Returns:
            The best complete program found and search statistics.

        Raises:
            SynthesisError: if no complete program exists in the search space
                (indicates a missing rule for some operator).
        """
        # Keep the ratios as a tuple: the cost-model memo keys on it, and
        # tuple(t) on a tuple is free.
        ratios = tuple(ratios) if ratios is not None else tuple(self.cluster.proportional_ratios())
        if len(ratios) != self.cluster.num_devices:
            raise ValueError(
                f"expected {self.cluster.num_devices} sharding ratios, got {len(ratios)}"
            )
        # The rule cost plans are only valid for one ratio vector; drop them
        # when the ratios change between synthesize() calls.
        if ratios != self._plan_ratios:
            self._rule_plans.clear()
            self._rule_runtime.clear()
            self._plan_ratios = ratios
        if self.config.search_strategy == "beam":
            return self._beam_search(ratios)
        return self._astar_search(ratios)

    def _root(self) -> _SearchNode:
        return _SearchNode(
            parent=None,
            rule=None,
            properties=0,
            completed=0,
            communicated=0,
            closed_cost=0.0,
            stage_comp=self._zero_stage,
            completed_ideal=0.0,
            depth=0,
        )

    def _result(
        self, best: _SearchNode, cost: float, expanded: int, generated: int, start: float
    ) -> SynthesisResult:
        instructions = best.instructions()
        established = frozenset(instr.output for instr in instructions)
        program = DistributedProgram(
            graph=self.graph,
            instructions=instructions,
            properties=established,
            num_devices=self.cluster.num_devices,
        )
        return SynthesisResult(
            program=program,
            cost=cost,
            expanded_states=expanded,
            generated_states=generated,
            elapsed_seconds=_time.perf_counter() - start,
        )

    # -- level-synchronised beam search ----------------------------------------------
    def _beam_search(self, ratios: Sequence[float]) -> SynthesisResult:
        """Per-node beam search over distribution states.

        Processes the single-device nodes in topological order; for every node
        it tries each sharding variant, optionally preceded by the collectives
        that establish the variant's missing preconditions, and keeps the
        ``beam_width`` cheapest resulting states (after merging states that
        are identical or dominated device-wise).
        """
        start = _time.perf_counter()
        # None keeps every candidate: order[:None] is the whole ranking.
        beam_width = self.config.beam_width
        states: List[_SearchNode] = [self._root()]
        self._bm_expanded = 0
        self._bm_generated = 1

        workers = self._parallel_workers()
        if workers > 1:
            # The fork snapshot must contain this synthesizer: registering it
            # (re-)marks the payload, and the shared pool re-forks lazily at
            # the first dispatch if its workers predate the registration.
            workerpool.register_payload("synthesizer", self)
            self._level_pool = workerpool.shared_pool(workers)
            self._level_workers = workers
        try:
            if self.config.enable_block_reuse and self.config.follow_topological_order:
                self._reuse_records = {}
                self.reuse_stats = {"occurrences": 0, "replayed": 0, "recorded": 0, "fallbacks": 0}
                segments = self._reuse_schedule()
                index = 0
                while index < len(segments):
                    if segments[index][0] == "node":
                        # Maximal run of plain levels: the unit the parallel
                        # path shards (replayed/recorded occurrences never
                        # touch the pool).
                        run_names: List[str] = []
                        while index < len(segments) and segments[index][0] == "node":
                            run_names.append(segments[index][1])
                            index += 1
                        states = self._node_run(states, run_names, ratios, beam_width)
                    else:
                        _, run, occ_idx = segments[index]
                        index += 1
                        states = self._block_occurrence(states, run, occ_idx, ratios, beam_width)
            else:
                states = self._node_run(states, self._topo_order, ratios, beam_width)
        finally:
            self._level_pool = None
            self._level_workers = 1

        complete = [s for s in states if self._is_complete(s)]
        if not complete:
            raise SynthesisError("beam search finished without a complete program")
        best = min(complete, key=self._final_cost)
        return self._result(
            best, self._final_cost(best), self._bm_expanded, self._bm_generated, start
        )

    def _beam_level(
        self,
        states: List[_SearchNode],
        node_name: str,
        ratios: Sequence[float],
        beam_width: int,
        record_into: Optional[List[Tuple]] = None,
    ) -> List[_SearchNode]:
        """Expand one topological-order node and keep the best states.

        When ``record_into`` is given, the surviving states are additionally
        recorded as ``(parent index in the entering beam, applied-rule chain)``
        pairs so a repeated-block occurrence can replay them.
        """
        children: Dict[Tuple, Tuple[_SearchNode, Tuple[float, ...]]] = {}
        comp_rules = self.theory.comp_rules_by_node.get(node_name, [])
        if not comp_rules:
            raise SynthesisError(f"no sharding rules for node {node_name!r}")
        for state in states:
            self._bm_expanded += 1
            for rule in comp_rules:
                for child in self._expand_with_rule(state, rule, ratios):
                    self._bm_generated += 1
                    key = (child.properties, child.completed, child.communicated)
                    closed = child.closed_cost
                    vector = tuple([closed + c for c in child.stage_comp])
                    existing = children.get(key)
                    if existing is not None and all(
                        e <= v + 1e-15 for e, v in zip(existing[1], vector)
                    ):
                        continue
                    children[key] = (child, vector)
        if not children:
            raise SynthesisError(
                f"beam search dead-ended at node {node_name!r}: no variant of the "
                "operator is reachable from the surviving states"
            )
        # Rank by the cost actually accumulated so far (closed stages plus
        # the open stage's critical path, with total device work as the
        # tie-breaker).  The A* heuristic term would be identical for all
        # states at the same level and would therefore make them tie.
        # beam_rank_order's stability makes insertion (= generation) order
        # the final tie-breaker — the contract sharded expansion reproduces
        # by reassembling worker children in serial generation order.
        entries = list(children.values())
        order = beam_rank_order(
            [e[1] for e in entries],
            [e[0].stage_comp for e in entries],
        )
        survivors = [entries[i][0] for i in order[:beam_width]]
        if record_into is not None:
            origin = {id(s): i for i, s in enumerate(states)}
            for survivor in survivors:
                chain: List[Rule] = []
                cursor: Optional[_SearchNode] = survivor
                while cursor is not None and id(cursor) not in origin:
                    chain.append(cursor.rule)  # type: ignore[arg-type]
                    cursor = cursor.parent
                assert cursor is not None
                record_into.append((origin[id(cursor)], tuple(reversed(chain))))
        return survivors

    # -- parallel beam expansion (config.synthesis_workers) ----------------------------
    def _parallel_workers(self) -> int:
        """Effective worker count for this search (1 = stay serial)."""
        requested = getattr(self.config, "synthesis_workers", 1)
        if requested <= 1 or not workerpool.fork_available():
            return 1
        return workerpool.effective_workers(requested)

    def _node_run(
        self,
        states: List[_SearchNode],
        node_names: Sequence[str],
        ratios: Sequence[float],
        beam_width: int,
    ) -> List[_SearchNode]:
        """A maximal run of plain beam levels, serial or pool-sharded.

        Template *recording* and replay for block reuse never reach here:
        `_block_occurrence` calls `_beam_level` / `_replay_block` directly, so
        only plain full-expansion levels are ever sharded.  Serial and
        parallel runs produce the same survivors, so mixing them freely
        across block boundaries keeps results bit-identical.
        """
        if self._level_pool is None:
            for node_name in node_names:
                states = self._beam_level(states, node_name, ratios, beam_width)
            return states
        return self._node_run_parallel(states, node_names, ratios, beam_width)

    def _encode_state(self, node: _SearchNode) -> Tuple:
        """Compact, process-independent snapshot of one beam state."""
        return (
            node.properties,
            node.completed,
            node.communicated,
            node.closed_cost,
            node.stage_comp,
            node.completed_ideal,
            node.depth,
            node.topo_ptr,
        )

    def _decode_state(self, encoded: Tuple) -> _SearchNode:
        """Worker-side inverse of `_encode_state` (a bare, parentless node)."""
        return _SearchNode(None, None, *encoded)

    def _expand_shard(
        self,
        node_name: str,
        ratios: Tuple[float, ...],
        shard: List[Tuple[int, Tuple]],
    ) -> Tuple:
        """Worker-side expansion of one shard of a beam level.

        Runs the exact per-state loop of `_beam_level` (same rule order, same
        `_expand_with_rule`, same memoized cost plans) over the shard and
        returns every generated child *unmerged*, in generation order, in
        columnar form: per-child key columns ``(properties, completed,
        communicated)`` — the state's own bitmask ints — one packed double
        array holding ``closed ‖ stage_comp ‖ completed_ideal`` per child
        (the parent reads it zero-copy with ``np.frombuffer``), int columns
        for ``depth``/``topo_ptr``/parent index, and the applied-rule chains.
        Together the columns are the child's full `_encode_state` snapshot,
        so the parent can merge/rank the level and feed the survivors
        straight into the next level's shards without decoding or
        re-applying anything.  Merging must stay in the parent: the epsilon
        dominance fold is order-dependent, so only a single global
        left-to-right pass over all children reproduces the serial survivors.
        """
        ratios = tuple(ratios)
        if ratios != self._plan_ratios:
            # Mirror synthesize(): cost plans are only valid for one ratio
            # vector.  A long-lived worker serves every search the parent
            # runs, so it re-mirrors the parent's per-call invalidation here.
            self._rule_plans.clear()
            self._rule_runtime.clear()
            self._plan_ratios = ratios
        comp_rules = self.theory.comp_rules_by_node.get(node_name, [])
        props_col: List[int] = []
        completeds: List[int] = []
        comms_col: List[int] = []
        floats = array("d")
        depths: List[int] = []
        topos: List[int] = []
        parents: List[int] = []
        chains: List[Tuple[int, ...]] = []
        generated = 0
        for parent_index, encoded in shard:
            state = self._decode_state(encoded)
            for rule in comp_rules:
                for child in self._expand_with_rule(state, rule, ratios):
                    generated += 1
                    chain: List[int] = []
                    cursor: Optional[_SearchNode] = child
                    while cursor is not None and cursor.rule is not None:
                        chain.append(self._rule_wire_index[id(cursor.rule)])
                        cursor = cursor.parent
                    chain.reverse()
                    props_col.append(child.properties)
                    completeds.append(child.completed)
                    comms_col.append(child.communicated)
                    floats.append(child.closed_cost)
                    floats.extend(child.stage_comp)
                    floats.append(child.completed_ideal)
                    depths.append(child.depth)
                    topos.append(child.topo_ptr)
                    parents.append(parent_index)
                    chains.append(tuple(chain))
        return props_col, completeds, comms_col, floats, depths, topos, parents, chains, generated

    def _node_run_parallel(
        self,
        states: List[_SearchNode],
        node_names: Sequence[str],
        ratios: Sequence[float],
        beam_width: int,
    ) -> List[_SearchNode]:
        """Shard a run of beam levels across the pool; bit-identical to serial.

        Levels are latency-bound (hundreds of sequential rounds of a few
        milliseconds each on deep graphs), so the parent does as little as
        possible per round.  Surviving states live in *carrier* form —
        ``(encoded state, base-state index, rule-chain link)`` — between
        levels: the worker-returned encodings feed the next level's shards
        directly, and applied-rule history accumulates in O(1) cons cells.
        Real `_SearchNode` chains are only materialized once, at the end of
        the run (`_materialize_carrier`), for block occurrences and the final
        completion/cost checks.

        Determinism: each level's entering carriers are cut into contiguous
        shards, so concatenating the workers' (generation-ordered) child
        lists in shard order restores the exact serial generation order.  The
        parent then replays the serial merge — the same left-to-right
        epsilon-dominance fold over canonical state keys and the same stable
        `beam_rank_order` ranking (see its tie-break contract) — over floats
        the workers computed with the identical `_apply` arithmetic, so
        costs, survivors, and the synthesized program are bit-identical.
        """
        pool = self._level_pool
        assert pool is not None
        # Carrier: (encoded state, index into `states`, chain link), where a
        # link is None (still the base state) or (parent link, rule tuple).
        carriers: List[Tuple[Tuple, int, Optional[Tuple]]] = [
            (self._encode_state(s), i, None) for i, s in enumerate(states)
        ]
        for node_name in node_names:
            if not self.theory.comp_rules_by_node.get(node_name, []):
                raise SynthesisError(f"no sharding rules for node {node_name!r}")
            self._bm_expanded += len(carriers)
            shard_count = min(self._level_workers, len(carriers))
            base, extra = divmod(len(carriers), shard_count)
            shards: List[List[Tuple[int, Tuple]]] = []
            cursor = 0
            for i in range(shard_count):
                size = base + (1 if i < extra else 0)
                shards.append(
                    [(cursor + j, carriers[cursor + j][0]) for j in range(size)]
                )
                cursor += size
            tasks = [(node_name, tuple(ratios), shard) for shard in shards]
            try:
                replies = pool.run_sharded(_expand_shard_task, "synthesizer", tasks)
            except workerpool.WorkerCrash as exc:
                raise SynthesisError(
                    f"parallel beam expansion failed at node {node_name!r}: {exc}"
                ) from exc
            # Reassemble the columnar replies in shard order (= serial
            # generation order) and run the single global merge.
            props_col: List[int] = []
            completeds: List[int] = []
            comms_col: List[int] = []
            float_bufs: List[array] = []
            depths: List[int] = []
            topos: List[int] = []
            parents: List[int] = []
            chains: List[Tuple[int, ...]] = []
            for reply in replies:
                props_col.extend(reply[0])
                completeds.extend(reply[1])
                comms_col.extend(reply[2])
                float_bufs.append(reply[3])
                depths.extend(reply[4])
                topos.extend(reply[5])
                parents.extend(reply[6])
                chains.extend(reply[7])
                self._bm_generated += reply[8]
            count = len(props_col)
            if count == 0:
                raise SynthesisError(
                    f"beam search dead-ended at node {node_name!r}: no variant of the "
                    "operator is reachable from the surviving states"
                )
            k = len(self._zero_stage)
            cols = np.concatenate(
                [np.frombuffer(buf, dtype=np.float64) for buf in float_bufs]
            ).reshape(count, k + 2)
            closed = cols[:, 0]
            stage = cols[:, 1 : k + 1]
            # One broadcast add reproduces the serial per-child Python adds
            # bit for bit (both are IEEE double additions of the same values).
            vectors = closed[:, None] + stage
            limits = vectors + 1e-15
            children: Dict[Tuple, int] = {}
            for i in range(count):
                key = (props_col[i], completeds[i], comms_col[i])
                j = children.get(key)
                if j is not None and (vectors[j] <= limits[i]).all():
                    continue
                children[key] = i
            rows = list(children.values())
            order = beam_rank_order(vectors[rows], stage[rows])
            next_carriers: List[Tuple[Tuple, int, Optional[Tuple]]] = []
            for oi in order[:beam_width]:
                row = rows[oi]
                encoded = (
                    props_col[row],
                    completeds[row],
                    comms_col[row],
                    float(cols[row, 0]),
                    tuple(cols[row, 1 : k + 1].tolist()),
                    float(cols[row, k + 1]),
                    depths[row],
                    topos[row],
                )
                parent = carriers[parents[row]]
                next_carriers.append((encoded, parent[1], (parent[2], chains[row])))
            carriers = next_carriers
        memo: Dict[int, _SearchNode] = {}
        return [self._materialize_carrier(c, states, memo) for c in carriers]

    def _dummy_chain(self, node: _SearchNode, rule_indexes: Sequence[int]) -> _SearchNode:
        """Append rule-bearing placeholder nodes for an applied-rule segment.

        The placeholders exist only so `instructions()` (and block-reuse
        origin walks) can traverse the applied-rule history — their state
        fields are never read, because expansion, completion checks, and
        costs all look at a run's last node, which carries real decoded
        fields.
        """
        for rule_index in rule_indexes:
            node = _SearchNode(
                parent=node,
                rule=self.theory.rules[rule_index],
                properties=0,
                completed=0,
                communicated=0,
                closed_cost=0.0,
                stage_comp=(),
                completed_ideal=0.0,
                depth=0,
            )
        return node

    def _materialize_carrier(
        self,
        carrier: Tuple[Tuple, int, Optional[Tuple]],
        base_states: List[_SearchNode],
        memo: Dict[int, _SearchNode],
    ) -> _SearchNode:
        """Rebuild a real `_SearchNode` chain from one surviving carrier.

        The final node gets the exact worker-computed fields via
        `_decode_state` and hangs off a chain of rule-bearing placeholders
        (`_dummy_chain`).  ``memo`` caches the materialized node per cons
        cell (keyed by cell identity), so survivors sharing ancestry — the
        common case after beam convergence — share one materialized prefix
        instead of each rebuilding the full run history.
        """
        encoded, base_index, link = carrier
        pending: List[Tuple] = []
        node: Optional[_SearchNode] = None
        cell = link
        while cell is not None:
            cached = memo.get(id(cell))
            if cached is not None:
                node = cached
                break
            pending.append(cell)
            cell = cell[0]
        if node is None:
            node = base_states[base_index]
        if not pending:
            # Either no levels ran (node is the base state) or the whole
            # lineage was already materialized; both are final states with
            # real fields, so return them as-is.
            return node
        # Materialize shared ancestor cells fully (placeholder per rule).
        for cell in reversed(pending[1:]):
            node = self._dummy_chain(node, cell[1])
            memo[id(cell)] = node
        # The carrier's own last cell: all but the last rule become
        # placeholders; the last rule lands on the decoded final node.  The
        # cell is deliberately not memoized in this split form — other
        # lineages passing through it need the full placeholder chain and
        # will rebuild it (one cell's worth of nodes, not the whole run).
        last_chain = pending[0][1]
        node = self._dummy_chain(node, last_chain[:-1])
        final = self._decode_state(encoded)
        final.parent = node
        final.rule = self.theory.rules[last_chain[-1]]
        return final

    # -- repeated-block record/replay (config.enable_block_reuse) ----------------------
    def _reuse_schedule(self) -> List[Tuple]:
        """Segment the topological order into plain nodes and block occurrences."""
        if self._reuse_segments is not None:
            return self._reuse_segments
        runs = find_repeated_blocks(self.graph, self._topo_order)
        occurrence_at: Dict[int, Tuple[BlockRun, int]] = {}
        for run in runs:
            for occ_idx, start in enumerate(run.occurrence_starts):
                occurrence_at[start] = (run, occ_idx)
        segments: List[Tuple] = []
        i = 0
        n = len(self._topo_order)
        while i < n:
            entry = occurrence_at.get(i)
            if entry is not None:
                run, occ_idx = entry
                segments.append(("block", run, occ_idx))
                self._occ_info[(id(run), occ_idx)] = self._build_occ_info(run, occ_idx)
                i += run.length
            else:
                segments.append(("node", self._topo_order[i]))
                i += 1
        self._reuse_segments = segments
        return segments

    def _build_occ_info(self, run: BlockRun, occ_idx: int) -> _OccurrenceInfo:
        mapping = run.maps[occ_idx]
        start = run.occurrence_starts[occ_idx]
        node_names = tuple(self._topo_order[start : start + run.length])
        occ_refs = tuple(mapping[ref] for ref in run.refs)
        ref_idx = {ref: i for i, ref in enumerate(occ_refs)}
        ref_bits = tuple(1 << self._node_index[ref] for ref in occ_refs)
        relevant_mask = 0
        for bit in ref_bits:
            relevant_mask |= bit
        block_nodes = set(node_names)
        pending_masks: List[int] = []
        for ref in occ_refs:
            mask = 0
            for consumer in self._consumers.get(ref, []):
                if consumer not in block_nodes:
                    mask |= 1 << self._node_index[consumer]
            pending_masks.append(mask)
        prop_mask = comm_mask = 0
        prop_local: Dict[int, Tuple[int, str, int]] = {}
        comm_bits: List[int] = []
        for ref in occ_refs:
            prop_mask |= self._ref_props.get(ref, 0)
            for i in self._ref_bit_range.get(ref, ()):
                _, kind, dim = self._bit_props[i].sort_key()
                prop_local[i] = (ref_idx[ref], kind, dim)
            index = self._ref_index.get(ref)
            comm_bits.append(0 if index is None else 1 << index)
            comm_mask |= comm_bits[-1]
        return _OccurrenceInfo(
            node_names=node_names,
            occ_refs=occ_refs,
            ref_idx=ref_idx,
            ref_bits=ref_bits,
            relevant_mask=relevant_mask,
            pending_masks=tuple(pending_masks),
            prop_mask=prop_mask,
            prop_local=prop_local,
            comm_mask=comm_mask,
            comm_local={i: ref_idx[self._bit_refs[i]] for i in _bit_indexes(comm_mask)},
            comm_bits=tuple(comm_bits),
        )

    def _block_occurrence(
        self,
        states: List[_SearchNode],
        run: BlockRun,
        occ_idx: int,
        ratios: Sequence[float],
        beam_width: int,
    ) -> List[_SearchNode]:
        """Process one occurrence of a repeated block: replay or record.

        The first occurrence (and any occurrence whose entry signature differs
        from the recorded template's) is expanded in full with its decisions
        recorded; matching occurrences replay the recorded decision chains,
        re-running the exact cost model per applied rule.  Replay bails out to
        full expansion on any structural mismatch or out-of-order ranking.
        """
        info = self._occ_info[(id(run), occ_idx)]
        sig = self._block_entry_signature(states, info)
        record = self._reuse_records.get(id(run))
        self.reuse_stats["occurrences"] += 1
        if record is not None and record.entry_sig == sig:
            replayed = self._replay_block(states, info, record, ratios)
            if replayed is not None:
                self.reuse_stats["replayed"] += 1
                return replayed
            self.reuse_stats["fallbacks"] += 1
        self.reuse_stats["recorded"] += 1
        levels: List[List[Tuple]] = []
        for node_name in info.node_names:
            decisions: List[Tuple] = []
            states = self._beam_level(
                states, node_name, ratios, beam_width, record_into=decisions
            )
            levels.append(decisions)
        self._reuse_records[id(run)] = _BlockRecord(
            entry_sig=sig,
            levels=levels,
            exit_rel=[self._exit_encoding(state, info) for state in states],
            info=info,
        )
        return states

    def _exit_encoding(self, state: _SearchNode, info: _OccurrenceInfo) -> Tuple:
        """Block-relevant part of an exit state, in block-local indices."""
        prop_local, comm_local = info.prop_local, info.comm_local
        rel_props = tuple(
            prop_local[i] for i in _bit_indexes(state.properties & info.prop_mask)
        )
        rel_comm = tuple(
            comm_local[i] for i in _bit_indexes(state.communicated & info.comm_mask)
        )
        completed = state.completed
        rel_completed = tuple(
            i for i, bit in enumerate(info.ref_bits) if completed & bit
        )
        return (rel_props, rel_comm, rel_completed)

    def _replay_levels(self, record: _BlockRecord) -> List[List[Tuple[int, int, Tuple]]]:
        """The record's needed decisions as block-local descriptors (built once).

        Per level, ``(position, parent index, descriptor chain)`` in template
        order; positions no later level consumes are never converted.
        """
        if record.replay_levels is None:
            info = record.info
            record.replay_levels = [
                [
                    (
                        position,
                        decisions[position][0],
                        tuple(self._rule_descriptor(rule, info) for rule in decisions[position][1]),
                    )
                    for position in sorted(needed)
                ]
                for decisions, needed in zip(record.levels, record.needed)
            ]
        return record.replay_levels

    def _rule_descriptor(self, rule: Rule, info: _OccurrenceInfo) -> Tuple:
        """Block-local descriptor of a rule: (kind, lookup ref index, signature).

        Computation rules are looked up among the sharding variants of the
        occurrence's node at the same in-block level; communication rules
        among the collectives of the translated reference.  The signature is
        entirely in terms of block-local reference indices, so it transfers
        between occurrences without a rename pass; an untranslatable rule
        yields a ``None`` signature, which makes replay fall back.
        """
        sig = self._rule_sig(rule, info.ref_idx)
        if rule.completes:
            return ("comp", -1, sig)
        lookup = -1
        if sig is not None:
            lookup = min(info.ref_idx[p.ref] for p in rule.pre)
        return ("comm", lookup, sig)

    def _rule_sig(self, rule: Rule, ref_idx: Dict[str, int]) -> Optional[Tuple]:
        """Name-free structural signature of a rule (block-local ref indices)."""

        def prop(p: Property) -> Optional[Tuple]:
            i = ref_idx.get(p.ref)
            if i is None:
                return None
            return (i, p.state.kind.value, p.state.dim)

        pre = []
        for p in rule.pre:
            enc = prop(p)
            if enc is None:
                return None
            pre.append(enc)
        post = []
        for p in rule.post:
            enc = prop(p)
            if enc is None:
                return None
            post.append(enc)
        completes = []
        for name in rule.completes:
            i = ref_idx.get(name)
            if i is None:
                return None
            completes.append(i)
        communicates = []
        for name in rule.communicates:
            i = ref_idx.get(name)
            if i is None:
                return None
            communicates.append(i)
        instrs: List[Tuple] = []
        for instr in rule.instructions:
            if isinstance(instr, CommInstruction):
                src = prop(instr.input)
                dst = prop(instr.output)
                if src is None or dst is None:
                    return None
                instrs.append(("m", instr.kind.value, src, dst, instr.dim, instr.dim2))
            else:
                node_i = ref_idx.get(instr.node)
                out = prop(instr.output)
                if node_i is None or out is None:
                    return None
                inputs = []
                for p in instr.inputs:
                    enc = prop(p)
                    if enc is None:
                        return None
                    inputs.append(enc)
                instrs.append(("c", node_i, instr.op, tuple(inputs), out, instr.flops_sharded))
        return (
            tuple(sorted(pre)),
            tuple(instrs),
            tuple(sorted(post)),
            tuple(sorted(completes)),
            tuple(sorted(communicates)),
        )

    def _block_entry_signature(self, states: List[_SearchNode], info: _OccurrenceInfo) -> Tuple:
        """Structural signature of the beam at a block boundary.

        Per state, block-relevant properties / communicated refs / completion
        bits are expressed in block-local indices; everything irrelevant to
        the block is reduced to a distinctness-pattern id across the beam (the
        block's decisions can only depend on *which states share* irrelevant
        context, not on what it is).  ``ext_pending`` captures, per relevant
        reference, whether consumers outside the block are still pending —
        this determines when the liveness optimisation may drop the reference
        mid-block, so it must agree with the template's.
        """
        prop_local, comm_local = info.prop_local, info.comm_local
        prop_mask, comm_mask = info.prop_mask, info.comm_mask
        ref_bits = info.ref_bits
        pending_masks = info.pending_masks
        relevant_mask = info.relevant_mask
        pattern_ids: Dict[Tuple, int] = {}
        sig: List[Tuple] = []
        for state in states:
            props, communicated, completed = (
                state.properties,
                state.communicated,
                state.completed,
            )
            rel_props = sorted(prop_local[i] for i in _bit_indexes(props & prop_mask))
            rel_comm = sorted(comm_local[i] for i in _bit_indexes(communicated & comm_mask))
            rel_completed = tuple(
                1 if completed & bit else 0 for bit in ref_bits
            )
            ext_pending = tuple(
                1 if mask & ~completed else 0 for mask in pending_masks
            )
            pattern_key = (
                props & ~prop_mask,
                communicated & ~comm_mask,
                completed & ~relevant_mask,
            )
            pid = pattern_ids.setdefault(pattern_key, len(pattern_ids))
            sig.append((tuple(rel_props), tuple(rel_comm), rel_completed, ext_pending, pid))
        return tuple(sig)

    def _replay_block(
        self,
        states: List[_SearchNode],
        info: _OccurrenceInfo,
        record: _BlockRecord,
        ratios: Sequence[float],
    ) -> Optional[List[_SearchNode]]:
        """Replay a recorded block's decision chains on this occurrence.

        Cost accumulation must be exact, so the chains are walked rule by
        rule through the occurrence's own (signature-translated) rules and
        cost plans — the identical float operations the full expansion would
        perform on the winning lineages.  State sets need no walking: context
        irrelevant to the block passes through unchanged and the relevant
        part of each exit state is recorded on the template, so exit states
        are reconstructed directly.  Intermediate steps only allocate
        lightweight "ghost" parents carrying the applied rule, which is what
        program reconstruction walks at the end of the search.

        Survivors are not re-ranked at the occurrence's own costs, so every
        level checks a necessary condition of identity with full expansion:
        the needed positions' ranking costs (the primary key of
        `beam_rank_order`) must be non-decreasing in template order.  Costs
        within ``_RANK_TIE_RTOL`` of each other count as tied, and ties are
        never checked further, since their order (like the total-work
        tie-breaker) follows float rounding of the entry costs rather than
        the recorded decisions.

        Returns ``None`` on any mismatch (untranslatable rule, missing
        parent, out-of-order ranking costs), in which case the caller
        re-expands the occurrence in full.
        """
        # Per position: (closed, stage, completed_ideal, depth, tail, root idx).
        current: Dict[int, Tuple] = {
            i: (s.closed_cost, s.stage_comp, s.completed_ideal, s.depth, s, i)
            for i, s in enumerate(states)
        }
        applied = 0
        for level, decisions in enumerate(self._replay_levels(record)):
            node_name = info.node_names[level]
            new_states: Dict[int, Tuple] = {}
            floor = float("-inf")
            for position, parent_idx, chain in decisions:
                entry = current.get(parent_idx)
                if entry is None:
                    return None
                closed, stage, ideal, depth, tail, root_idx = entry
                for descriptor in chain:
                    rule = self._translate_descriptor(descriptor, info, node_name)
                    if rule is None:
                        return None
                    plan, _, ideals, *_ = self._rule_runtime_of(rule, ratios)
                    for kind, payload in plan:
                        if kind == _SYNC:
                            closed += max(stage) + payload
                            stage = self._zero_stage
                        else:
                            stage = tuple([s + t for s, t in zip(stage, payload)])
                    for delta in ideals:
                        ideal += delta
                    ghost = _SearchNode.__new__(_SearchNode)
                    ghost.parent = tail
                    ghost.rule = rule
                    tail = ghost
                    depth += 1
                    applied += 1
                # == max(closed + c for c in stage), see beam_rank_order.
                cost = closed + max(stage)
                if cost < floor:
                    return None
                floor = max(floor, cost * (1.0 - _RANK_TIE_RTOL))
                new_states[position] = (closed, stage, ideal, depth, tail, root_idx)
            if not new_states:
                return None
            current = new_states
        # Reconstruct the exit beam (final level is needed in full, so the
        # positions are contiguous and sorting restores the template order).
        out: List[_SearchNode] = []
        for position in sorted(current):
            closed, stage, ideal, depth, tail, root_idx = current[position]
            exit_state = self._reconstruct_exit(
                states[root_idx],
                record.exit_rel[position],
                info,
                closed,
                stage,
                ideal,
                depth,
                tail,
            )
            if exit_state is None:
                return None
            out.append(exit_state)
        self._bm_generated += applied
        self._bm_expanded += len(record.levels)
        return out

    def _reconstruct_exit(
        self,
        root: _SearchNode,
        exit_rel: Tuple,
        info: _OccurrenceInfo,
        closed: float,
        stage: Tuple[float, ...],
        ideal: float,
        depth: int,
        tail: _SearchNode,
    ) -> Optional[_SearchNode]:
        """Build a full exit state from pass-through context + template encoding.

        Context irrelevant to the block is the root's masks with the
        occurrence's bits cleared; the relevant bits come from the template's
        block-local encoding.  ``None`` if the template holds a property this
        occurrence's theory never mentions (the caller then re-expands).
        """
        rel_props, rel_comm, rel_completed = exit_rel
        properties = root.properties & ~info.prop_mask
        local_props = info.local_props
        for enc in rel_props:
            bit = local_props.get(enc)
            if bit is None:
                return None
            properties |= bit
        communicated = root.communicated & ~info.comm_mask
        for i in rel_comm:
            if not info.comm_bits[i]:
                return None
            communicated |= info.comm_bits[i]
        completed = root.completed & ~info.relevant_mask
        for i in rel_completed:
            completed |= info.ref_bits[i]
        node = _SearchNode.__new__(_SearchNode)
        node.parent = tail.parent
        node.rule = tail.rule
        node.properties = properties
        node.completed = completed
        node.communicated = communicated
        node.closed_cost = closed
        node.stage_comp = stage
        node.completed_ideal = ideal
        node.depth = depth
        node.topo_ptr = self._advance_topo_ptr(root.topo_ptr, completed)
        return node

    def _translate_descriptor(
        self, descriptor: Tuple, info: _OccurrenceInfo, node_name: str
    ) -> Optional[Rule]:
        """Resolve a block-local rule descriptor against this occurrence.

        Candidate rules (the node's sharding variants, or the reference's
        collectives) are indexed by structural signature once per occurrence
        and cached on the occurrence info, so repeated replays — including
        across planner rounds with different ratios — are dictionary lookups.
        """
        kind, lookup, sig = descriptor
        if sig is None:
            return None
        map_key = (kind, node_name) if kind == "comp" else (kind, lookup)
        sigmap = info.sigmaps.get(map_key)
        if sigmap is None:
            if kind == "comp":
                candidates = self.theory.comp_rules_by_node.get(node_name, [])
            else:
                candidates = self.theory.comm_rules_by_ref.get(info.occ_refs[lookup], [])
            sigmap = {}
            for candidate in candidates:
                candidate_sig = self._rule_sig(candidate, info.ref_idx)
                if candidate_sig is not None and candidate_sig not in sigmap:
                    sigmap[candidate_sig] = candidate
            info.sigmaps[map_key] = sigmap
        return sigmap.get(sig)

    def _expand_with_rule(
        self, state: _SearchNode, rule: Rule, ratios: Sequence[float]
    ) -> List[_SearchNode]:
        """Apply a computation rule, inserting enabling collectives if needed."""
        if state.completed & self._completes_mask[id(rule)]:
            return []
        props, communicated = state.properties, state.communicated
        pre = self._rule_bits(rule)[0]
        if (props & pre) == pre:
            return [self._apply(state, rule, ratios)]
        # Find, for every missing precondition (in ordered_pre order), the
        # collectives that produce it.  The state-independent "which
        # collectives establish this property" part comes from the
        # ``comm_rules_by_post`` index; only the per-state filters remain.
        option_sets: List[List[Rule]] = []
        for prop, index in self._ordered_pre(rule):
            if props >> index & 1:
                continue
            enablers = self._enablers.get(index)
            if enablers is None:
                enablers = self._enablers[index] = [
                    (comm, *self._rule_bits(comm)[::2])
                    for comm in self.theory.comm_rules_by_post.get(prop, ())
                ]
            options = [
                comm
                for comm, comm_pre, comm_refs in enablers
                if (props & comm_pre) == comm_pre and not comm_refs & communicated
            ]
            if not options:
                return []
            option_sets.append(options)
        results: List[_SearchNode] = []
        self._expand_prefixes(state, rule, ratios, option_sets, 0, results)
        return results

    def _expand_prefixes(
        self,
        current: _SearchNode,
        rule: Rule,
        ratios: Sequence[float],
        option_sets: Sequence[Sequence[Rule]],
        level: int,
        results: List[_SearchNode],
    ) -> None:
        """Append ``rule``'s children for every enabling-collective combination.

        Shares the application of common collective prefixes across
        combinations: product() varies the last option set fastest, so this
        depth-first walk applies each prefix exactly once while visiting the
        combinations (and emitting children) in product() order.  It is a
        method, not a nested closure, because a recursive closure refers to
        itself through its own cell: that cycle would keep the synthesizer,
        its theory and every search node alive until the cyclic collector
        ran, and planning runs with that collector paused.  ``option_sets``
        is never empty: its last level applies ``rule`` itself.
        """
        apply = self._apply
        if level + 1 == len(option_sets):
            for comm in option_sets[level]:
                results.append(apply(apply(current, comm, ratios), rule, ratios))
            return
        for comm in option_sets[level]:
            self._expand_prefixes(
                apply(current, comm, ratios), rule, ratios, option_sets, level + 1, results
            )

    def _ordered_pre(self, rule: Rule) -> Tuple[Tuple[Property, int], ...]:
        """:func:`~repro.core.rules.ordered_pre` with each property's bit index.

        Enumerating missing preconditions in this structural order keeps the
        generated-children order and the enabling-collective instruction
        order independent of string hashing and identical between
        isomorphic graphs.
        """
        entry = self._pre_order_cache.get(id(rule))
        if entry is None:
            index = self._prop_index
            entry = tuple((prop, index[prop]) for prop in ordered_pre(rule))
            self._pre_order_cache[id(rule)] = entry
        return entry

    # -- unrestricted A* search (Fig. 10) ----------------------------------------------
    def _greedy_complete(
        self, node: _SearchNode, ratios: Sequence[float]
    ) -> Tuple[Optional[_SearchNode], int]:
        """Extend a partial program to completion with width-1 beam steps.

        Used as the completion fallback when open-list trimming discarded
        every completable state: follow the topological order from the
        prefix, picking the cheapest sharding variant (with enabling
        collectives) of each remaining node.  Returns the completed state
        (suboptimal but valid) and the number of children generated, or
        ``None`` if some node has no reachable variant from the prefix.
        """
        current = node
        generated = 0
        while not self._is_complete(current):
            next_node = self._next_node(current)
            if next_node is None:
                return None, generated
            children: List[_SearchNode] = []
            for rule in self.theory.comp_rules_by_node.get(next_node, []):
                children.extend(self._expand_with_rule(current, rule, ratios))
            generated += len(children)
            if not children:
                return None, generated
            current = min(children, key=lambda s: (self._final_cost(s), sum(s.stage_comp)))
        return current, generated

    def _astar_search(self, ratios: Sequence[float], _allow_trim: bool = True) -> SynthesisResult:
        start = _time.perf_counter()
        root = self._root()
        counter = itertools.count()
        # Ties are broken towards deeper programs so that a first complete
        # program (and thus an upper bound for pruning) is found quickly.
        heap: List[Tuple[float, int, int, _SearchNode]] = [
            (self._score(root), 0, next(counter), root)
        ]
        # Dominance table: state key -> sum-sorted Pareto front of the
        # undominated per-device cost vectors (early-exit dominance scans).
        fronts: Dict[Tuple, ParetoFront] = {}
        best_complete: Optional[_SearchNode] = None
        best_cost = float("inf")
        #: Most-progressed state popped so far — the completion-fallback seed.
        best_prefix = root
        trim = _allow_trim and self.config.beam_width is not None
        expanded = 0
        generated = 1
        # Local bindings of loop-invariant lookups (hot loop).
        output_mask = self._output_mask
        total_ideal = self._total_ideal
        heappush, heappop = heapq.heappush, heapq.heappop

        while heap:
            score, _, _, node = heappop(heap)
            if score >= best_cost:
                break
            if expanded >= self.config.max_search_steps:
                break
            expanded += 1
            if node.completed_ideal > best_prefix.completed_ideal or (
                node.completed_ideal == best_prefix.completed_ideal
                and self._final_cost(node) < self._final_cost(best_prefix)
            ):
                best_prefix = node

            for rule in self._applicable_rules(node):
                child = self._apply(node, rule, ratios)
                generated += 1
                closed = child.closed_cost
                stage_comp = child.stage_comp
                open_cost = max(stage_comp) if stage_comp else 0.0
                if (child.completed & output_mask) == output_mask:
                    cost = closed + open_cost
                    if cost < best_cost:
                        best_cost = cost
                        best_complete = child
                    continue
                key = (child.properties, child.completed, child.communicated)
                vector = tuple([closed + c for c in stage_comp])
                front = fronts.get(key)
                if front is None:
                    front = fronts[key] = ParetoFront(eps=1e-12)
                if not front.insert(vector):
                    continue  # dominated by an already-known program
                remaining = total_ideal - child.completed_ideal
                if remaining < 0.0:
                    remaining = 0.0
                child_score = closed + (open_cost if open_cost > remaining else remaining)
                if child_score < best_cost:
                    heappush(heap, (child_score, -child.depth, next(counter), child))

            if trim and len(heap) > 4 * self.config.beam_width:
                heap = heapq.nsmallest(self.config.beam_width, heap)
                heapq.heapify(heap)

        if best_complete is None:
            # Completion fallback (ROADMAP dead-end): trimming the open list
            # can discard every completable state.  Greedily complete the
            # most-progressed prefix; if even that dead-ends, redo the search
            # without trimming before giving up.
            for prefix in (best_prefix, root):
                completed, extra = self._greedy_complete(prefix, ratios)
                generated += extra
                if completed is not None:
                    return self._result(
                        completed, self._final_cost(completed), expanded, generated, start
                    )
            if trim:
                return self._astar_search(ratios, _allow_trim=False)
            raise SynthesisError(
                "A* search exhausted without finding a complete distributed program; "
                "the background theory may be missing rules for some operator"
            )
        return self._result(best_complete, best_cost, expanded, generated, start)


def _expand_shard_task(
    synthesizer: "ProgramSynthesizer", args: Tuple
) -> Tuple[List[Tuple], int]:
    """Worker-pool handler for one beam-level shard (see ``_expand_shard``).

    The synthesizer arrives as the pool's registered ``"synthesizer"``
    payload — shipped to workers by fork copy-on-write, never pickled.
    """
    node_name, ratios, shard = args
    return synthesizer._expand_shard(node_name, ratios, shard)


def synthesize_program(
    graph: ComputationGraph,
    cluster: ClusterSpec,
    ratios: Optional[Sequence[float]] = None,
    config: Optional[SynthesisConfig] = None,
) -> SynthesisResult:
    """Convenience wrapper: build the theory and run one synthesis."""
    return ProgramSynthesizer(graph, cluster, config).synthesize(ratios)
