"""Tests for the on-disk result cache."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis.cache as cache_mod
from repro.analysis.cache import ResultCache
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

SMALL = OramConfig(levels=9)


@pytest.fixture(scope="module")
def result():
    return simulate(
        SystemConfig.dynamic(3, oram=SMALL), "mcf", num_requests=1500
    )


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _key(config=None, **overrides):
    config = config if config is not None else SystemConfig.tiny(oram=SMALL)
    kwargs = {
        "workload": "mcf",
        "num_requests": 1500,
        "seed": 1,
    }
    kwargs.update(overrides)
    return ResultCache.key(config.fingerprint(), **kwargs)


class TestKeying:
    def test_key_is_deterministic(self):
        assert _key() == _key()

    def test_fingerprint_change_invalidates(self):
        assert _key() != _key(config=SystemConfig.tiny(oram=OramConfig(levels=10)))
        assert _key() != _key(
            config=SystemConfig.tiny(oram=SMALL).with_(seed=7)
        )

    def test_run_parameters_invalidate(self):
        base = _key()
        assert base != _key(workload="sjeng")
        assert base != _key(num_requests=3000)
        assert base != _key(seed=2)
        assert base != _key(record_progress=True)

    def test_schema_version_invalidates(self):
        assert _key() != _key(schema_version=99)

    def test_code_fingerprint_invalidates(self, monkeypatch, cache, result):
        key = _key()
        cache.put(key, result)
        monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "edited")
        assert _key() != key
        assert cache.get(_key()) is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestCodeFingerprint:
    def test_hashes_the_package_sources(self):
        assert cache_mod.code_fingerprint() == cache_mod.tree_fingerprint(
            Path(repro.__file__).resolve().parent
        )

    def test_any_source_edit_changes_it(self, tmp_path):
        tree_fingerprint = cache_mod.tree_fingerprint
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("y = 2\n")
        base = tree_fingerprint(tmp_path)
        (tmp_path / "notes.txt").write_text("not source")
        assert tree_fingerprint(tmp_path) == base
        (tmp_path / "b.py").write_text("y = 2  # a comment\n")
        commented = tree_fingerprint(tmp_path)
        assert commented != base
        (tmp_path / "b.py").rename(tmp_path / "c.py")
        assert tree_fingerprint(tmp_path) not in (base, commented)

    def test_not_computed_at_import(self):
        code = (
            "import repro.cli, repro.serve.server, repro.analysis.cache as c; "
            "print(c.code_fingerprint.cache_info().misses)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "0"


class TestStorage:
    def test_get_missing_is_a_counted_miss(self, cache):
        assert cache.get(_key()) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_put_get_round_trip(self, cache, result):
        key = _key()
        cache.put(key, result)
        fetched = cache.get(key)
        assert fetched is not None
        assert fetched.to_dict() == result.to_dict()
        assert (cache.hits, cache.misses, cache.stores) == (1, 0, 1)

    def test_corrupt_entry_is_a_miss(self, cache, result):
        key = _key()
        cache.put(key, result)
        cache.path_for(key).write_text("{ not json")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_wrong_layout_entry_is_a_miss(self, cache):
        key = _key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": 0, "unexpected": true}')
        assert cache.get(key) is None

    def test_len_and_clear(self, cache, result):
        assert len(cache) == 0
        cache.put(_key(), result)
        cache.put(_key(seed=2), result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(_key()) is None
