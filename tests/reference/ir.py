"""Dict-of-set oracles for the IR-side mask kernels.

Liveness, the Chaitin interference build and the live-interval build
run in ``src`` on bitmask liveness only.  These per-element set walks
compute the same results independently, so the property tests in
``tests/test_dense.py``, ``tests/test_fuzz_invariants.py`` and
``tests/test_intervals.py`` can check the mask kernels against them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Set, Tuple

from repro.graphs.interference import InterferenceGraph
from repro.intervals.model import (
    IntervalSet,
    LiveInterval,
    _ranges_from_points,
    number_points,
)
from repro.ir.cfg import Function
from repro.ir.instructions import Var
from repro.ir.liveness import LivenessInfo
from repro.obs import EDGES_SCANNED, NULL_TRACER, RANGES_BUILT, Tracer


def compute_liveness_dict(
    func: Function, tracer: Tracer = NULL_TRACER
) -> LivenessInfo:
    """Dict-of-set round-robin liveness: the oracle for
    :func:`repro.ir.liveness.liveness_masks`.

    The tracer counts
    :data:`~repro.obs.names.EDGES_SCANNED` for every set element
    consumed by a transfer evaluation.
    """
    counting = tracer.enabled
    reachable = func.reachable()
    use: Dict[str, Set[Var]] = {}
    defs: Dict[str, Set[Var]] = {}
    phi_uses_out: Dict[str, Set[Var]] = {b: set() for b in reachable}
    phi_defs: Dict[str, Set[Var]] = {b: set() for b in reachable}

    for name in reachable:
        block = func.blocks[name]
        upward: Set[Var] = set()
        defined: Set[Var] = set()
        for instr in block.instrs:
            upward.update(v for v in instr.uses if v not in defined)
            defined.update(instr.defs)
        use[name] = upward
        defs[name] = defined
        for phi in block.phis:
            phi_defs[name].add(phi.target)
            for pred, v in phi.args.items():
                if pred in reachable:
                    phi_uses_out[pred].add(v)

    info = LivenessInfo(
        live_in={b: set() for b in reachable},
        live_out={b: set() for b in reachable},
    )
    # iterate in postorder (against the flow) until stable
    order = func.postorder()
    changed = True
    while changed:
        changed = False
        for b in order:
            out: Set[Var] = set(phi_uses_out[b])
            for s in func.successors(b):
                if s not in reachable:
                    continue
                # live-in of successor minus its φ-targets, since those
                # are defined at the join
                out |= info.live_in[s]
                if counting:
                    tracer.count(EDGES_SCANNED, len(info.live_in[s]))
            # φ-targets are defined at the block top, so they are not
            # live-in even when used by the block's own instructions.
            new_in = (use[b] | (out - defs[b])) - phi_defs[b]
            if counting:
                tracer.count(
                    EDGES_SCANNED,
                    len(phi_uses_out[b]) + len(use[b]) + len(out),
                )
            if out != info.live_out[b] or new_in != info.live_in[b]:
                info.live_out[b] = out
                info.live_in[b] = new_in
                changed = True
    return info


def chaitin_interference_dict(
    func: Function,
    move_affinities: bool = True,
    phi_affinities: bool = True,
    weighted: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> InterferenceGraph:
    """The dict-of-set reference builder for Chaitin interference.

    One ``add_edge`` per (definition, live-after variable) pair — the
    classic backward walk; the oracle for
    :func:`repro.ir.interference.chaitin_interference`.  The tracer
    counts :data:`~repro.obs.names.EDGES_SCANNED` for every live-set
    element consumed.
    """
    counting = tracer.enabled
    info = compute_liveness_dict(func, tracer=tracer)
    g = InterferenceGraph(vertices=sorted(func.variables()))
    reachable = func.reachable()
    # insertion-order walk, mirroring chaitin_interference
    for name in func.reachable_order():
        block = func.blocks[name]
        freq = func.block_frequency(name) if weighted else 1.0
        live: Set[Var] = set(info.live_out[name])
        for instr in reversed(block.instrs):
            # see repro.ir.interference for the move rationale
            for d in instr.defs:
                if counting:
                    tracer.count(EDGES_SCANNED, len(live))
                for other in live:
                    if other != d:
                        g.add_edge(d, other)
            for d1, d2 in combinations(instr.defs, 2):
                if d1 != d2:
                    g.add_edge(d1, d2)
            if instr.is_move and move_affinities:
                dst, src = instr.defs[0], instr.uses[0]
                if dst != src:
                    g.add_affinity(dst, src, freq)
            if counting:
                tracer.count(EDGES_SCANNED, len(instr.defs) + len(instr.uses))
            live -= set(instr.defs)
            live |= set(instr.uses)
        # φs execute in parallel at block top; 'live' is now the live set
        # just after them
        phi_targets = {phi.target for phi in block.phis}
        for t in phi_targets:
            if counting:
                tracer.count(EDGES_SCANNED, len(live))
            for other in live:
                if other != t:
                    g.add_edge(t, other)
        if phi_affinities:
            for phi in block.phis:
                for pred, v in phi.args.items():
                    if pred in reachable and v != phi.target:
                        w = func.block_frequency(pred) if weighted else 1.0
                        g.add_affinity(phi.target, v, w)
    return g


def build_intervals_dict(
    func: Function, tracer: Tracer = NULL_TRACER
) -> IntervalSet:
    """The dict-of-set interval builder: the oracle for
    :func:`repro.intervals.model.build_intervals`.

    Same walk over :func:`compute_liveness_dict` sets;
    ``EDGES_SCANNED`` counts every set element consumed.
    """
    info = compute_liveness_dict(func, tracer=tracer)
    points = number_points(func)
    counting = tracer.enabled
    live_points: Dict[Var, List[int]] = {}
    for name in points.order:
        block = func.blocks[name]
        occupancy: List[Tuple[int, frozenset]] = []
        live = set(info.live_out[name])
        occupancy.append((points.block_end(name), frozenset(live)))
        if counting:
            tracer.count(EDGES_SCANNED, len(live))
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            defs = set(instr.defs)
            uses = set(instr.uses)
            occupancy.append(
                (points.instr_point(name, i), frozenset(live | defs))
            )
            live -= defs
            live |= uses
            if counting:
                tracer.count(
                    EDGES_SCANNED, len(live) + 2 * len(defs) + len(uses)
                )
        phi_targets = {phi.target for phi in block.phis}
        occupancy.append(
            (points.block_entry(name), frozenset(live | phi_targets))
        )
        if counting:
            tracer.count(EDGES_SCANNED, len(live) + len(phi_targets))
        for point, occupants in reversed(occupancy):
            if counting and occupants:
                tracer.count(RANGES_BUILT, len(occupants))
            for var in occupants:
                live_points.setdefault(var, []).append(point)
    intervals: Dict[Var, LiveInterval] = {}
    for var in sorted(live_points):
        intervals[var] = LiveInterval(
            var=var, ranges=_ranges_from_points(live_points[var])
        )
    return IntervalSet(points=points, intervals=intervals)
