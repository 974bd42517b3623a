"""Behaviour of the execution backends.

The load-bearing contract: every backend maps in input order and
produces bit-identical results, so the compute layers can treat the
backend purely as a performance knob.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, ExecutionError
from repro.exec import (
    BACKEND_NAMES,
    PoolBackend,
    SerialBackend,
    chunk_evenly,
    default_workers,
    get_backend,
    resolve_backend,
)


def _square(x: int) -> int:
    """Module-level so the pool backend can pickle it."""
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom on 3")
    return x


_INIT_STATE: dict[str, int] = {}


def _set_offset(offset: int) -> None:
    _INIT_STATE["offset"] = offset


def _add_offset(x: int) -> int:
    return x + _INIT_STATE["offset"]


ALL_BACKENDS = ["serial", "pool", "remote"]


class TestChunkEvenly:
    def test_concatenation_reproduces_input(self):
        items = list(range(17))
        for n in (1, 2, 3, 5, 16, 17, 50):
            chunks = chunk_evenly(items, n)
            assert [x for chunk in chunks for x in chunk] == items
            assert all(chunks)  # no empty chunks
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1

    def test_empty_input(self):
        assert chunk_evenly([], 4) == []

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)


class TestFactory:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_get_backend_by_name(self, name):
        backend = get_backend(name, workers=2)
        assert backend.name == name
        assert name in BACKEND_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            get_backend("gpu")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SerialBackend(workers=0)

    def test_resolve_none_is_serial(self):
        assert resolve_backend(None).name == "serial"

    def test_resolve_passes_instances_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestMapSemantics:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_preserves_input_order(self, name):
        with get_backend(name, workers=3) as backend:
            assert backend.map_items(_square, range(20)) == [
                x * x for x in range(20)
            ]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_items(self, name):
        with get_backend(name, workers=2) as backend:
            assert backend.map_items(_square, []) == []

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_task_errors_propagate(self, name):
        with get_backend(name, workers=2) as backend:
            with pytest.raises(ValueError, match="boom on 3"):
                backend.map_items(_fail_on_three, range(6))

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_initializer_state_reaches_tasks(self, name):
        with get_backend(name, workers=2) as backend:
            result = backend.map_items(
                _add_offset, range(5), initializer=_set_offset, initargs=(100,)
            )
        assert result == [100, 101, 102, 103, 104]

    def test_results_identical_across_backends(self):
        expected = [x * x for x in range(50)]
        for name in ALL_BACKENDS:
            with get_backend(name, workers=4) as backend:
                assert backend.map_items(_square, range(50)) == expected


class TestProcessPicklingContract:
    """Tasks that cross a process boundary must pickle."""

    def test_closure_rejected_with_useful_error(self):
        captured = 3
        with PoolBackend(workers=2) as backend:
            with pytest.raises(ExecutionError, match="picklable"):
                backend.map_items(lambda x: x + captured, range(4))

    def test_module_level_function_accepted(self):
        with PoolBackend(workers=2) as backend:
            assert backend.map_items(_square, [2, 4]) == [4, 16]
