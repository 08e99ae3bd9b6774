"""Unit tests for :mod:`repro.cache`: keys, the LRU store, certification."""

import numpy as np
import pytest

from repro.cache import (
    CachedFrame,
    ResultCache,
    TIERS,
    bind_cache,
    content_key,
    make_triangle_set,
    subgraph_signature,
    verify_cache_attachment,
)
from repro.data import HostDisks, ParSSimDataset, StorageMap
from repro.errors import AnalysisError, ConfigurationError
from repro.viz import IsosurfaceApp
from repro.viz.profile import DatasetProfile


def _app():
    dataset = ParSSimDataset((9, 9, 9), timesteps=2, species=2, seed=3)
    profile = DatasetProfile.measured(
        "unit", dataset, nchunks=8, nfiles=4, isovalue=0.35
    )
    storage = StorageMap.balanced(profile.files, [HostDisks("host0")])
    return IsosurfaceApp(
        profile, storage, width=16, height=16, dataset=dataset
    )


# -- content keys ------------------------------------------------------------
def test_content_key_is_deterministic_and_distinguishes_types():
    assert content_key("a", 1, 2.5) == content_key("a", 1, 2.5)
    assert content_key("a") != content_key(b"a")  # str vs bytes marker
    assert content_key(1) != content_key(1.0)  # int vs float marker
    assert content_key(True) != content_key(1)  # bool vs int marker
    assert content_key(None) != content_key("None")
    assert content_key(("a", "b")) != content_key(("ab",))  # no concat splice
    assert content_key({"x": 1, "y": 2}) == content_key({"y": 2, "x": 1})


def test_content_key_hashes_array_contents():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert content_key(a) == content_key(a.copy())
    assert content_key(a) != content_key(a.astype(np.float64))
    assert content_key(a) != content_key(a.reshape(4, 3))
    b = a.copy()
    b[0, 0] += 1
    assert content_key(a) != content_key(b)


def test_content_key_rejects_uncanonicalisable_values():
    with pytest.raises(ConfigurationError, match="cache keys"):
        content_key(object())


# -- triangle sets and tiles -------------------------------------------------
def test_make_triangle_set_orders_chunks_and_accounts_bytes():
    tris = {1: np.zeros((0, 3, 3), np.float32), 0: np.zeros((2, 3, 3), np.float32)}
    frozen = make_triangle_set(tris)
    assert list(frozen.triangles) == [0, 1]  # chunk order, whatever came in
    assert frozen.triangles[0] is tris[0]  # the arrays themselves, not copies
    assert frozen.nbytes >= sum(a.nbytes for a in tris.values())
    assert not hasattr(frozen, "digest")  # nothing is keyed by the content


def test_cached_frame_accounts_image_bytes():
    image = np.zeros((4, 8, 3), np.uint8)
    frame = CachedFrame(image, 5, 2)
    assert frame.nbytes >= image.nbytes


# -- the LRU store -----------------------------------------------------------
def test_result_cache_lru_eviction_under_byte_budget():
    cache = ResultCache(300)
    assert cache.put("tiles", "a", "A", 100)
    assert cache.put("tiles", "b", "B", 100)
    assert cache.put("tiles", "c", "C", 100)
    assert cache.get("tiles", "a") == "A"  # refresh a
    assert cache.put("tiles", "d", "D", 100)  # evicts b (LRU)
    assert cache.stats()["by_tier"]["tiles"]["entries"] == 3  # a, c, d
    assert cache.get("tiles", "b") is None
    assert cache.get("tiles", "a") == "A"
    assert cache.get("tiles", "d") == "D"
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["size_bytes"] <= 300


def test_result_cache_rejects_oversize_entries():
    cache = ResultCache(100)
    assert cache.put("tiles", "small", "s", 50)
    assert not cache.put("tiles", "huge", "h", 101)
    # rejection evicted nothing
    assert cache.stats()["by_tier"]["tiles"]["entries"] == 1
    assert cache.stats()["rejected"] == 1


def test_result_cache_put_replaces_existing_entry():
    cache = ResultCache(200)
    cache.put("tiles", "k", "one", 80)
    cache.put("tiles", "k", "two", 90)
    assert len(cache) == 1
    assert cache.get("tiles", "k") == "two"
    assert cache.stats()["size_bytes"] == 90


def test_result_cache_oversize_replacement_keeps_the_old_value():
    """``put`` used to pop the existing entry before the budget check, so
    a refused replacement silently dropped the old value."""
    cache = ResultCache(100)
    assert cache.put("tiles", "k", "old", 60)
    assert not cache.put("tiles", "k", "huge", 101)
    assert cache.get("tiles", "k") == "old"
    stats = cache.stats()
    assert stats["rejected"] == 1
    assert stats["evictions"] == 0
    assert stats["entries"] == 1
    assert stats["size_bytes"] == 60


def test_result_cache_reports_residency_and_evictions_by_tier():
    cache = ResultCache(100)
    cache.put("triangles", "t1", "T1", 40)
    cache.put("tiles", "f1", "F1", 10)
    cache.put("triangles", "t2", "T2", 40)
    cache.put("tiles", "f2", "F2", 10)
    cache.get("tiles", "f1")
    cache.put("triangles", "t3", "T3", 40)  # evicts t1: the LRU entry
    by_tier = cache.stats()["by_tier"]
    assert by_tier["triangles"] == {
        "hits": 0, "misses": 0, "entries": 2, "size_bytes": 80, "evictions": 1,
    }
    assert by_tier["tiles"] == {
        "hits": 1, "misses": 0, "entries": 2, "size_bytes": 20, "evictions": 0,
    }
    stats = cache.stats()
    assert stats["evictions"] == sum(t["evictions"] for t in by_tier.values())
    assert stats["size_bytes"] == sum(t["size_bytes"] for t in by_tier.values())
    assert stats["entries"] == sum(t["entries"] for t in by_tier.values())


def test_result_cache_tiers_are_namespaced_and_counted():
    cache = ResultCache(1000)
    cache.put("triangles", "k", "tri", 10)
    cache.put("tiles", "k", "tile", 10)
    assert cache.get("triangles", "k") == "tri"
    assert cache.get("tiles", "k") == "tile"
    assert cache.get("tiles", "missing") is None
    stats = cache.stats()
    assert TIERS == ("triangles", "tiles")
    assert sorted(stats["by_tier"]) == sorted(TIERS)
    assert stats["by_tier"]["triangles"]["hits"] == 1
    assert stats["by_tier"]["tiles"]["misses"] == 1
    assert stats["bytes_saved"] == 20
    with pytest.raises(ConfigurationError, match="unknown cache tier"):
        cache.get("frames", "k")


def test_result_cache_clear_resets_contents_not_counters():
    cache = ResultCache(100)
    cache.put("tiles", "k", "v", 10)
    cache.get("tiles", "k")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 1


def test_result_cache_validates_capacity():
    with pytest.raises(ConfigurationError):
        ResultCache(0)


# -- subgraph signatures -----------------------------------------------------
def test_subgraph_signature_stable_and_member_sensitive():
    app = _app()
    graph = app.graph("R-E-Ra-M")
    assert subgraph_signature(graph, ["E"]) == subgraph_signature(
        app.graph("R-E-Ra-M"), ["E"]
    )
    assert subgraph_signature(graph, ["E"]) != subgraph_signature(
        graph, ["R", "E"]
    )
    other = IsosurfaceApp(
        app.profile, app.storage, width=32, height=32, dataset=app.dataset
    )
    # The extract stage is size-independent: same signature, so a shared
    # cache serves triangle hits across image sizes.
    assert subgraph_signature(other.graph("R-E-Ra-M"), ["E"]) == (
        subgraph_signature(graph, ["E"])
    )


# -- certification contract --------------------------------------------------
def test_bind_cache_accepts_certified_extract_stage():
    app = _app()
    graph = app.graph("R-E-Ra-M")
    binding = bind_cache(graph, ["E"], ResultCache(1024))
    assert binding.members == ("E",)
    assert binding.certificate.ok
    assert binding.signature == subgraph_signature(graph, ["E"])


@pytest.mark.parametrize(
    "config,member", [("RE-Ra-M", "RE"), ("R-ERa-M", "ERa"), ("RERa-M", "RERa")]
)
def test_bind_cache_refuses_impure_fused_stages(config, member):
    graph = _app().graph(config)
    with pytest.raises(AnalysisError) as excinfo:
        bind_cache(graph, [member], ResultCache(1024))
    report = excinfo.value.report
    assert "E703" in report.rule_ids()
    assert "E706" in report.rule_ids()


def test_bind_cache_refuses_non_convex_subgraph():
    graph = _app().graph("R-E-Ra-M")
    with pytest.raises(AnalysisError) as excinfo:
        bind_cache(graph, ["R", "Ra"], ResultCache(1024))  # E straddles
    rules = excinfo.value.report.rule_ids()
    assert "E705" in rules or "E703" in rules
    assert "E706" in rules


def test_verify_cache_attachment_appends_e706_without_raising():
    graph = _app().graph("RERa-M")
    cert = verify_cache_attachment(graph, ["RERa"])
    assert not cert.ok
    assert "E706" in cert.report.rule_ids()
    diagnostic = cert.report.by_rule("E706")[0]
    assert "certify_memoisable" in diagnostic.message
