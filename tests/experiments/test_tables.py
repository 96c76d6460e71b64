"""Tests for score-table caching."""

import pytest

from repro.core import graph_cache
from repro.core.graph import SuccessorStrategy
from repro.experiments.tables import (
    build_counts,
    clear_memory_cache,
    score_tables_for,
    table_cache_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestCacheKey:
    def test_stable(self, toy_shape, toy_vm_types):
        a = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        b = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.5},
            {"vote_direction": "reverse"},
            {"strategy": SuccessorStrategy.ALL_PLACEMENTS},
            {"scoring": "expected-utilization"},
        ],
    )
    def test_parameters_change_key(self, toy_shape, toy_vm_types, kwargs):
        base = dict(
            strategy=SuccessorStrategy.BALANCED,
            damping=0.85,
            vote_direction="forward",
            scoring="pagerank",
        )
        changed = {**base, **kwargs}
        assert table_cache_key(toy_shape, toy_vm_types, **base) != table_cache_key(
            toy_shape, toy_vm_types, **changed
        )

    def test_vm_order_does_not_change_key(self, toy_shape, vm2, vm4):
        a = table_cache_key(
            toy_shape, (vm2, vm4), SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        b = table_cache_key(
            toy_shape, (vm4, vm2), SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        assert a == b


class TestScoreTablesFor:
    def test_builds_one_table_per_distinct_shape(self, toy_shape, toy_vm_types):
        tables = score_tables_for([toy_shape, toy_shape], toy_vm_types)
        assert len(tables) == 1
        assert toy_shape in tables

    def test_memory_cache_reuses_instance(self, toy_shape, toy_vm_types):
        first = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        second = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        assert first is second

    def test_disk_cache_roundtrip(self, toy_shape, toy_vm_types, tmp_path):
        first = score_tables_for(
            [toy_shape], toy_vm_types, cache_dir=str(tmp_path)
        )[toy_shape]
        assert list(tmp_path.glob("score_table_*.json"))
        clear_memory_cache()
        second = score_tables_for(
            [toy_shape], toy_vm_types, cache_dir=str(tmp_path)
        )[toy_shape]
        assert second is not first
        for usage, score in first.items():
            assert second.score(usage) == pytest.approx(score)

    def test_env_var_cache_dir(self, toy_shape, toy_vm_types, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        score_tables_for([toy_shape], toy_vm_types)
        assert list(tmp_path.glob("score_table_*.json"))


class TestBuildCounts:
    def test_each_table_built_exactly_once(self, toy_shape, toy_vm_types):
        for _ in range(3):
            score_tables_for([toy_shape, toy_shape], toy_vm_types)
        assert list(build_counts().values()) == [1]

    def test_distinct_parameters_build_distinct_tables(
        self, toy_shape, toy_vm_types
    ):
        score_tables_for([toy_shape], toy_vm_types, vote_direction="forward")
        score_tables_for([toy_shape], toy_vm_types, vote_direction="reverse")
        assert sorted(build_counts().values()) == [1, 1]

    def test_disk_load_is_not_a_build(self, toy_shape, toy_vm_types, tmp_path):
        score_tables_for([toy_shape], toy_vm_types, cache_dir=str(tmp_path))
        assert sum(build_counts().values()) == 1
        clear_memory_cache()
        score_tables_for([toy_shape], toy_vm_types, cache_dir=str(tmp_path))
        assert sum(build_counts().values()) == 0


class TestBuilderVersionStamping:
    """A graph-builder bump must miss the score-table caches too."""

    def _bump(self, monkeypatch):
        monkeypatch.setattr(
            graph_cache, "BUILDER_CODE_VERSION",
            graph_cache.BUILDER_CODE_VERSION + 1,
        )

    def test_builder_bump_changes_key(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        args = (toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85,
                "forward")
        before = table_cache_key(*args)
        self._bump(monkeypatch)
        assert table_cache_key(*args) != before

    def test_builder_bump_rebuilds_instead_of_loading(
        self, toy_shape, toy_vm_types, tmp_path, monkeypatch
    ):
        score_tables_for([toy_shape], toy_vm_types, cache_dir=str(tmp_path))
        clear_memory_cache()
        self._bump(monkeypatch)
        score_tables_for([toy_shape], toy_vm_types, cache_dir=str(tmp_path))
        assert sum(build_counts().values()) == 1
        assert len(list(tmp_path.glob("score_table_*.json"))) == 2
