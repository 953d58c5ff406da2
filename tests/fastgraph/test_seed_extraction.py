"""The fast seed-community extractor against the reference one.

:class:`~repro.query.seed.CSRSeedExtractor` runs Definition 2 over int ids
on a CSR workspace: a keyword- and trussness-masked ball, supports counted
once and a warm-started peel.  The oracle is the dict extractor,
:func:`~repro.query.seed.extract_seed_community` without an extractor; every
centre must get the exact same vertex set (``None`` for no community).

Both kernel tiers are covered: ``REPRO_TEST_KERNELS`` pins one (the CI
kernels-matrix leg exports ``vector``); unset, the suite runs every tier
this environment provides.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.topl as topl_module
from repro.core.config import EngineConfig
from repro.core.engine import InfluentialCommunityEngine
from repro.dynamic.updates import random_update_batch
from repro.fastgraph.csr import NUMPY_AVAILABLE
from repro.fastgraph.delta import DeltaCSR
from repro.graph.generators import erdos_renyi_graph, planted_community_graph
from repro.graph.keyword_assignment import assign_keywords
from repro.graph.social_network import SocialNetwork
from repro.pruning.stats import PruningConfig
from repro.query.params import make_topl_query
from repro.query.seed import CSRSeedExtractor, extract_seed_community
from repro.query.topl import TopLProcessor

from tests.property.strategies import KEYWORD_POOL, social_networks

_PINNED = os.environ.get("REPRO_TEST_KERNELS")
if _PINNED in ("stdlib", "vector"):
    TIERS = (_PINNED,)
else:
    TIERS = ("stdlib", "vector") if NUMPY_AVAILABLE else ("stdlib",)
if _PINNED == "vector" and not NUMPY_AVAILABLE:  # pragma: no cover - misconfigured leg
    pytest.skip("REPRO_TEST_KERNELS=vector needs numpy", allow_module_level=True)

_KS = (2, 3, 4)
_RADII = (1, 2, 3)


def _fast_engine(graph, tier: str, **config) -> InfluentialCommunityEngine:
    return InfluentialCommunityEngine.build(
        graph,
        config=EngineConfig(max_radius=3, backend="fast", kernel_tier=tier, **config),
        validate=False,
    )


def _assert_extractors_agree(engine, keywords, context) -> None:
    """Compare both extractors on every centre, k and r."""
    graph = engine.graph
    workspace = engine._workspace()
    for k in _KS:
        for radius in _RADII:
            query = make_topl_query(keywords, k=k, radius=radius, theta=0.1, top_l=2)
            extractor = CSRSeedExtractor(workspace, query, engine.index)
            for center in graph.vertices():
                expected = extract_seed_community(graph, center, query) or None
                actual = extract_seed_community(graph, center, query, extractor=extractor)
                assert actual == expected, (context, k, radius, center)


def _seeded_graph(seed: int) -> SocialNetwork:
    rng = random.Random(seed)
    if seed % 2:
        graph = planted_community_graph(
            [rng.randint(4, 9) for _ in range(rng.randint(2, 4))],
            intra_probability=0.6,
            inter_probability=0.08,
            rng=seed,
        )
    else:
        graph = erdos_renyi_graph(
            rng.randint(5, 26),
            edge_probability=rng.uniform(0.15, 0.6),
            rng=seed,
            weight_range=(0.05, 0.95),
        )
    assign_keywords(graph, keywords_per_vertex=2, domain_size=6, rng=seed)
    return graph


def _query_keywords(graph, rng: random.Random) -> frozenset:
    domain = sorted({w for v in graph.vertices() for w in graph.keywords(v)})
    return frozenset(rng.sample(domain, min(len(domain), rng.randint(2, 3))))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", range(16))
def test_seeded_graphs(seed, tier):
    graph = _seeded_graph(seed)
    engine = _fast_engine(graph, tier)
    rng = random.Random(seed)
    for _ in range(2):
        _assert_extractors_agree(engine, _query_keywords(graph, rng), (seed, tier))


@pytest.mark.slow
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", range(16, 56))
def test_seeded_graphs_nightly(seed, tier):
    test_seeded_graphs(seed, tier)


def test_seeded_suite_is_not_vacuous():
    """The seeded graphs produce real communities at every k, not just ``None``."""
    for k in _KS:
        found = 0
        for seed in range(16):
            graph = _seeded_graph(seed)
            keywords = frozenset(KEYWORD_POOL) | {w for v in graph for w in graph.keywords(v)}
            query = make_topl_query(keywords, k=k, radius=2, theta=0.1, top_l=2)
            found += sum(bool(extract_seed_community(graph, c, query)) for c in graph)
        assert found > 0, k


@settings(max_examples=30, deadline=None)
@given(
    graph=social_networks(min_vertices=2, max_vertices=14, edge_density=0.45),
    tier=st.sampled_from(TIERS),
    size=st.integers(min_value=1, max_value=len(KEYWORD_POOL)),
)
def test_hypothesis_graphs(graph, tier, size):
    engine = _fast_engine(graph, tier)
    _assert_extractors_agree(engine, frozenset(KEYWORD_POOL[:size]), "hypothesis")


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", range(6))
def test_delta_overlay_after_update_batches(seed, tier):
    """Extraction over a DeltaCSR overlay, with trussness kept by incremental updates."""
    rng = random.Random(1000 + seed)
    graph = _seeded_graph(seed)
    engine = _fast_engine(graph, tier, compact_dirt_ratio=1e9)
    keywords = _query_keywords(graph, rng)
    for _ in range(3):
        batch = random_update_batch(engine.graph, 6, rng=rng, insert_ratio=0.6)
        report = engine.apply_updates(batch, damage_threshold=1.0)
        assert report.mode == "incremental"
        assert isinstance(engine._workspace().core, DeltaCSR)
        _assert_extractors_agree(engine, keywords, (seed, tier, batch))


# --------------------------------------------------------------------------- #
# pinned edge cases
# --------------------------------------------------------------------------- #
def _graph(edges, isolated=()) -> SocialNetwork:
    graph = SocialNetwork(name="pinned")
    for vertex in sorted({v for edge in edges for v in edge} | set(isolated)):
        graph.add_vertex(vertex, {"movies"})
    for u, v in edges:
        graph.add_edge(u, v, 0.5, 0.5)
    return graph


@pytest.mark.parametrize("tier", TIERS)
def test_radius_counts_an_edge_the_peel_removed(tier):
    """``x`` is 2 hops from ``c`` only through the chord (a, x), which is in no triangle.

    The 3-truss peels the chord, and over truss edges ``x`` is 3 hops away;
    the radius rule measures the induced subgraph, so ``x`` stays.
    """
    graph = _graph([
        ("c", "a"), ("c", "b"), ("a", "b"),
        ("b", "e"), ("b", "f"), ("e", "f"),
        ("e", "x"), ("f", "x"),
        ("a", "x"),
    ])
    engine = _fast_engine(graph, tier)
    query = make_topl_query(frozenset({"movies"}), k=3, radius=2, theta=0.1, top_l=1)
    extractor = CSRSeedExtractor(engine._workspace(), query, engine.index)
    everyone = frozenset("cabefx")
    assert extract_seed_community(graph, "c", query) == everyone
    assert extract_seed_community(graph, "c", query, extractor=extractor) == everyone
    _assert_extractors_agree(engine, frozenset({"movies"}), tier)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("k", _KS)
def test_isolated_qualified_centre(tier, k):
    graph = _graph([(0, 1), (1, 2), (0, 2)], isolated=[9])
    engine = _fast_engine(graph, tier)
    query = make_topl_query(frozenset({"movies"}), k=k, radius=2, theta=0.1, top_l=1)
    extractor = CSRSeedExtractor(engine._workspace(), query, engine.index)
    assert extract_seed_community(graph, 9, query) is None
    assert extract_seed_community(graph, 9, query, extractor=extractor) is None


@pytest.mark.parametrize("tier", TIERS)
def test_centre_below_k_reached_with_support_pruning_off(tier):
    """Support pruning off lets a trussness-3 centre reach extraction at k = 4."""
    # A 4-clique {0..3} plus the triangle (3, 4, 5): vertices 4 and 5 have
    # trussness 3.
    clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    graph = _graph(clique + [(3, 4), (3, 5), (4, 5)])
    engine = _fast_engine(graph, tier)
    assert engine.index.vertex_aggregates(4).center_trussness == 3
    query = make_topl_query(frozenset({"movies"}), k=4, radius=2, theta=0.1, top_l=3)
    extractor = CSRSeedExtractor(engine._workspace(), query, engine.index)
    assert extract_seed_community(graph, 4, query) is None
    assert extract_seed_community(graph, 4, query, extractor=extractor) is None

    no_support = PruningConfig(keyword=True, support=False, score=False)
    fast = TopLProcessor(
        graph, engine.index, pruning=no_support, backend="fast",
        frozen=engine.frozen_graph(), workspace=engine._workspace(),
    ).query(query)
    reference = TopLProcessor(graph, engine.index, pruning=no_support).query(query)
    assert fast.statistics.candidates_examined == graph.num_vertices()
    # Centres 4 and 5 reach extraction and come back empty.
    assert fast.statistics.pruned_by_radius == reference.statistics.pruned_by_radius >= 2
    assert [c.vertices for c in fast] == [c.vertices for c in reference]
    assert [c.vertices for c in fast] == [frozenset(range(4))]


# --------------------------------------------------------------------------- #
# the processor's extraction path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", TIERS)
def test_fast_processor_extracts_through_the_module_hook(tier, monkeypatch):
    """Fast extraction runs inside ``repro.query.topl.extract_seed_community``
    and never materialises ``hop(v, r)`` (the per-layer trace times both names).
    """
    graph = _seeded_graph(3)
    engine = _fast_engine(graph, tier)
    calls = []
    original = topl_module.extract_seed_community

    def counting(*args, **kwargs):
        calls.append(kwargs.get("extractor"))
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the fast backend must not build hop(v, r) views")

    monkeypatch.setattr(topl_module, "extract_seed_community", counting)
    monkeypatch.setattr(topl_module, "hop_subgraph", forbidden)
    query = make_topl_query(
        frozenset(w for v in graph for w in graph.keywords(v)),
        k=3, radius=2, theta=0.1, top_l=3,
    )
    result = engine.topl(query)
    assert result.communities
    assert calls and all(isinstance(x, CSRSeedExtractor) for x in calls)


def test_processor_without_workspace_builds_one_lazily():
    """A directly constructed fast processor freezes and builds its workspace once."""
    graph = _seeded_graph(5)
    reference_engine = InfluentialCommunityEngine.build(
        graph.copy(), config=EngineConfig(max_radius=2), validate=False
    )
    processor = TopLProcessor(graph, reference_engine.index, backend="fast")
    keywords = frozenset(w for v in graph for w in graph.keywords(v))
    query = make_topl_query(keywords, k=3, radius=2, theta=0.1, top_l=3)
    answer = processor.query(query)
    workspace = processor._workspace
    assert workspace is not None
    assert processor.query(query) is not None and processor._workspace is workspace
    expected = reference_engine.topl(query)
    assert [(c.vertices, c.score) for c in answer] == [
        (c.vertices, c.score) for c in expected
    ]
