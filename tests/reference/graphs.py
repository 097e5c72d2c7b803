"""Graph-side oracles: the retired twins of the graph kernels.

MCS and greedy colouring run in ``src`` on the dict-of-set
:class:`~repro.graphs.graph.Graph`; their bitset versions below intern
the vertices and walk neighbourhood masks instead.  Conservative
coalescing runs in ``src`` on the bitset
:class:`~repro.graphs.dense.DenseGraph`; the dict-of-set worklist it
replaced, driven by :data:`repro.coalescing.conservative.TESTS`, is
kept here.  Both pairs must agree exactly — same MCS orders, same
colours, same partitions and move counters.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coalescing.base import affinities_by_weight
from repro.coalescing.conservative import TESTS, ConservativeTest
from repro.graphs.dense import DenseGraph, _iter_bits
from repro.graphs.graph import Graph, Vertex
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.obs import EDGES_SCANNED, NULL_TRACER, WORDS_MERGED, Tracer

Affinity = Tuple[Vertex, Vertex, float]


def mcs_order_dense(graph: Graph, tracer: Tracer = NULL_TRACER) -> List[Vertex]:
    """Maximum-cardinality search over neighbourhood bitmasks.

    Same lazy heap and tie-break (max visited-neighbour count, then
    smallest insertion index) as
    :func:`repro.graphs.chordal.maximum_cardinality_search`; each visit
    scans only the still-unvisited neighbours (``adj[v] & ~visited``).
    """
    dense = DenseGraph.from_graph(graph)
    counting = tracer.enabled
    weight = [0] * dense.n
    heap: List[Tuple[int, int]] = [(0, i) for i in _iter_bits(dense.alive)]
    heapq.heapify(heap)
    visited = 0
    order: List[int] = []
    adj = dense.adj
    while heap:
        neg_w, v = heapq.heappop(heap)
        bv = 1 << v
        if visited & bv or -neg_w != weight[v]:
            continue
        visited |= bv
        order.append(v)
        fresh = adj[v] & ~visited
        if counting:
            tracer.count(WORDS_MERGED, 2 * dense.words)
            tracer.count(EDGES_SCANNED, fresh.bit_count())
        for u in _iter_bits(fresh):
            w = weight[u] + 1
            weight[u] = w
            heapq.heappush(heap, (-w, u))
    return [dense.names[i] for i in order]


def greedy_coloring_dense(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    tracer: Tracer = NULL_TRACER,
) -> Dict[Vertex, int]:
    """First-fit colouring along ``order`` over neighbourhood bitmasks.

    Only already-coloured neighbours are visited — ``adj[v] & colored``
    prunes the rest word-wise.
    """
    dense = DenseGraph.from_graph(graph)
    counting = tracer.enabled
    indices = (
        list(_iter_bits(dense.alive)) if order is None
        else [dense.index[v] for v in order]
    )
    color = [0] * dense.n
    colored = 0
    out: Dict[Vertex, int] = {}
    for v in indices:
        nb = dense.adj[v] & colored
        if counting:
            tracer.count(WORDS_MERGED, dense.words)
            tracer.count(EDGES_SCANNED, nb.bit_count())
        used = 0
        for u in _iter_bits(nb):
            used |= 1 << color[u]
        c = ((used + 1) & ~used).bit_length() - 1
        color[v] = c
        out[dense.names[v]] = c
        colored |= 1 << v
    return out


def _coalesce_rounds_dict(
    graph: InterferenceGraph,
    k: int,
    test_fn: ConservativeTest,
    coalescing: Coalescing,
    tracer: Tracer,
) -> None:
    """The fixed-point worklist on a dict-of-set copy of the graph."""
    work = graph.copy()
    # map each union-find representative to its vertex name in `work`
    # (stale entries for superseded representatives are harmless)
    rep_name = {v: v for v in graph.vertices}
    progress = True
    while progress:
        progress = False
        tracer.count("conservative.rounds")
        for u, v, w in affinities_by_weight(graph):
            wu = rep_name[coalescing.find(u)]
            wv = rep_name[coalescing.find(v)]
            if wu == wv:
                continue
            tracer.count("queries.interference")
            if work.has_edge(wu, wv):
                tracer.count("moves.constrained")
                continue
            tracer.count("moves.attempted")
            if test_fn(work, wu, wv, k, tracer=tracer):
                work.merge_in_place(wu, wv)
                coalescing.union(u, v)
                rep_name[coalescing.find(u)] = wu
                progress = True
                tracer.count("moves.coalesced")
            else:
                tracer.count("moves.rejected")


def conservative_coalesce_dict(
    graph: InterferenceGraph,
    k: int,
    test: str = "briggs_george",
    tracer: Tracer = NULL_TRACER,
) -> Tuple[List[Affinity], List[Affinity]]:
    """Iterated conservative coalescing on the dict-of-set work graph.

    Returns the ``(coalesced, given_up)`` affinity ledgers that
    :func:`repro.coalescing.conservative.conservative_coalesce` reports.
    """
    coalescing = Coalescing(graph)
    _coalesce_rounds_dict(graph, k, TESTS[test], coalescing, tracer)
    coalesced: List[Affinity] = []
    given_up: List[Affinity] = []
    for u, v, w in graph.affinities():
        ledger = coalesced if coalescing.same_class(u, v) else given_up
        ledger.append((u, v, w))
    return coalesced, given_up
