"""Seed community extraction (Definition 2).

Given a centre vertex ``v_q``, an r-hop subgraph ``hop(v_q, r)``, a truss
parameter ``k`` and the query keyword set ``Q``, the extractor finds the seed
community centred at ``v_q``: the largest connected subgraph containing
``v_q`` such that

1. every vertex lies within ``r`` hops of ``v_q`` *inside the community*,
2. the community is a k-truss, and
3. every vertex carries at least one query keyword.

The constraints interact (removing far vertices can break the truss condition
and vice versa), so the extractor alternates the two reductions until a fixed
point is reached.  Both reductions only ever *remove* vertices, so the loop
terminates after at most ``|hop(v_q, r)|`` iterations; the result is the
unique maximal subgraph satisfying all constraints (each constraint is
monotone: any satisfying subgraph is contained in the fixed point).

Two rules pin down what "connected" and "within ``r`` hops" mean:

* **Connectivity** runs over the surviving *truss* edges: the truss
  reduction keeps the component of ``v_q`` in the graph formed by the edges
  of the maximal k-truss of the current vertex set, not in its induced
  subgraph.
* **Radius** runs over the *induced* subgraph of the current vertex set: an
  edge between two current vertices counts for hop distances even when the
  truss peel removed it.

Because the fixed point is unique, any start set that contains it reaches
it.  The fast backend (:class:`CSRSeedExtractor`) exploits that: it starts
from the ``r``-hop ball grown through *qualified* vertices only — vertices
with a query keyword whose trussness in ``G`` is at least ``k`` (a vertex of
a k-truss of any subgraph of ``G`` has trussness at least ``k`` in ``G``;
Huang et al., SIGMOD 2014) — and peels it over int ids with supports
counted once.  The dict extractor stays the reference backend's path and
the oracle the equivalence suite checks the fast one against.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.social_network import SocialNetwork, VertexId
from repro.graph.subgraph import SubgraphView
from repro.graph.traversal import hop_distances_within, hop_subgraph
from repro.query.params import TopLQuery
from repro.truss.ktruss import ktruss_component_of


def keyword_qualified_vertices(view: SubgraphView, keywords: frozenset) -> frozenset:
    """Return the vertices of ``view`` whose keyword set intersects ``keywords``."""
    return frozenset(v for v in view if view.keywords(v) & keywords)


class CSRSeedExtractor:
    """Extracts the seed communities of one query over a CSR workspace.

    The fast backend's extractor: runs
    :func:`~repro.fastgraph.kernels.seed_community_csr` over the
    workspace's core with int ids and maps the result back to original
    vertex ids.  A vertex *qualifies* when it carries a query keyword and
    its trussness (``center_trussness`` of its record in ``index``, kept
    current by dynamic updates) is at least ``k``.  Build one per query:
    it memoises what it learns about every vertex it touches
    (:class:`~repro.fastgraph.kernels.QualifiedArcs`).
    """

    __slots__ = ("_query", "_index_of", "_id_of", "_mask", "_kernel")

    def __init__(self, workspace, query: TopLQuery, index) -> None:
        # Deferred import keeps repro.query importable without the
        # fastgraph package loaded (reference-only deployments).
        from repro.fastgraph.kernels import QualifiedArcs, seed_community_csr

        core = workspace.core
        keywords_of = core.keywords_of
        id_of = core.table.id_of
        aggregates_of = index.vertex_aggregates
        keywords, k = query.keywords, query.k

        def qualifies(vertex: int) -> bool:
            return bool(keywords_of(vertex) & keywords) and (
                aggregates_of(id_of(vertex)).center_trussness >= k
            )

        self._query = query
        self._index_of = core.table.index_of
        self._id_of = id_of
        self._mask = QualifiedArcs(workspace, qualifies)
        self._kernel = seed_community_csr

    def extract(self, center: VertexId) -> Optional[frozenset]:
        """The seed community of ``center``, as :func:`extract_seed_community` returns it."""
        query = self._query
        members = self._kernel(self._mask, self._index_of(center), query.radius, query.k)
        if members is None:
            return None
        return frozenset(map(self._id_of, members))


def extract_seed_community(
    graph: SocialNetwork,
    center: VertexId,
    query: TopLQuery,
    candidate_view: Optional[SubgraphView] = None,
    extractor: Optional[CSRSeedExtractor] = None,
) -> Optional[frozenset]:
    """Extract the seed community centred at ``center`` for ``query``.

    Parameters
    ----------
    graph:
        The full social network ``G``.
    center:
        The candidate centre vertex ``v_q``.
    query:
        The query parameters (keywords, k, radius).
    candidate_view:
        Optionally, a pre-computed ``hop(center, radius)`` view to avoid
        recomputing the BFS (the online algorithm passes the view it already
        materialised for pruning).
    extractor:
        Optionally, the fast backend's :class:`CSRSeedExtractor` for
        ``query``; when given, extraction runs over its CSR workspace
        (identical result) and ``candidate_view`` is ignored.

    Returns
    -------
    frozenset or None
        The vertex set of the seed community, or ``None`` when no valid
        community centred at ``center`` exists.
    """
    if not graph.has_vertex(center):
        return None
    if extractor is not None:
        return extractor.extract(center)
    if not graph.keywords(center) & query.keywords:
        # The centre itself must carry a query keyword (it is part of g).
        return None

    if candidate_view is None:
        candidate_view = hop_subgraph(graph, center, query.radius)

    # Keyword constraint: drop every vertex without a query keyword.
    qualified = keyword_qualified_vertices(candidate_view, query.keywords)
    if center not in qualified:
        return None
    current = candidate_view.restrict(qualified)

    # Alternate truss + radius reductions to a fixed point.
    while True:
        if center not in current or len(current) < 2:
            return None

        truss_vertices = ktruss_component_of(current, query.k, center)
        if not truss_vertices or center not in truss_vertices:
            return None
        if len(truss_vertices) < len(current):
            current = current.restrict(truss_vertices)
            continue

        distances = hop_distances_within(current, center, max_depth=query.radius)
        within_radius = frozenset(distances)
        if len(within_radius) < len(current):
            current = current.restrict(within_radius)
            continue

        # Both constraints hold: fixed point reached.
        return frozenset(current.vertices)


def seed_community_candidates(
    graph: SocialNetwork,
    query: TopLQuery,
    centers=None,
) -> dict[VertexId, frozenset]:
    """Extract the seed community of every candidate centre.

    A helper used by the brute-force baseline and by tests: for every vertex
    in ``centers`` (default: all vertices), extract its seed community and
    return the non-empty ones keyed by centre.
    """
    if centers is None:
        centers = list(graph.vertices())
    communities: dict[VertexId, frozenset] = {}
    for center in centers:
        community = extract_seed_community(graph, center, query)
        if community:
            communities[center] = community
    return communities


def is_valid_seed_community(
    graph: SocialNetwork,
    vertices: frozenset,
    center: VertexId,
    query: TopLQuery,
) -> bool:
    """Check whether ``vertices`` satisfies every Definition 2 constraint.

    The library interprets a seed community as the vertex set of a connected
    k-truss (the standard edge-subgraph semantics of truss community search):
    every vertex must belong to the k-truss of the community's induced
    subgraph, the truss component containing the centre must span the whole
    community, every vertex must be within ``r`` hops of the centre inside the
    community, and every vertex must carry a query keyword.

    Used by tests and by the refinement step as a defence-in-depth assertion;
    the extractor's output always passes.
    """
    if center not in vertices:
        return False
    view = SubgraphView(graph, vertices, center=center)
    if not view.is_connected():
        return False
    if any(not (view.keywords(v) & query.keywords) for v in view):
        return False
    distances = hop_distances_within(view, center, max_depth=query.radius)
    if len(distances) != len(view):
        return False
    return ktruss_component_of(view, query.k, center) == frozenset(vertices)
