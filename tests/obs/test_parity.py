"""Instrumentation must never change results or counts.

The full backend matrix (serial/pool/remote) runs the same workload
instrumented and bare — recommendations must be bit-identical, and the
instrumented request counters must agree across every backend (the
*metrics parity* contract: what a counter counts cannot depend on how
the work was executed).
"""

from __future__ import annotations

import pytest

from repro.config import RecommenderConfig
from repro.data.datasets import generate_dataset
from repro.obs import MetricsRegistry, set_enabled
from repro.serving import RecommendationService, synthetic_workload

BACKENDS = ("serial", "pool", "remote")


@pytest.fixture(scope="module")
def workload():
    dataset = generate_dataset(
        num_users=24, num_items=40, ratings_per_user=10, seed=11
    )
    requests = synthetic_workload(
        dataset.users.ids(),
        num_requests=10,
        group_size=3,
        distinct_groups=4,
        seed=11,
    )
    groups = [request.group() for request in requests if request.kind == "group"]
    return dataset, groups


def _run(dataset, groups, backend, enabled):
    set_enabled(enabled)
    try:
        config = RecommenderConfig(
            peer_threshold=0.0,
            exec_backend=backend,
            exec_workers=2,
            top_z=5,
        )
        registry = MetricsRegistry()
        with RecommendationService(dataset, config, metrics=registry) as service:
            results = service.recommend_many(groups, z=5)
        items = [tuple(result.items) for result in results]
        # The parent's own (unlabeled) counters: pool workers merge
        # their copies back under worker="N" labels, which totals would
        # double-count relative to backends without resident workers.
        counters = {
            name: registry.value(name)
            for name in ("group_requests", "batch_requests")
        }
        return items, counters
    finally:
        set_enabled(True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_instrumented_matches_bare_bit_identically(workload, backend):
    dataset, groups = workload
    bare_items, bare_counters = _run(dataset, groups, backend, False)
    instr_items, instr_counters = _run(dataset, groups, backend, True)
    assert instr_items == bare_items
    # Bare counters are frozen at zero; instrumented ones moved.
    assert bare_counters == {"group_requests": 0, "batch_requests": 0}
    assert instr_counters["batch_requests"] == 1
    assert instr_counters["group_requests"] >= 1


def test_request_counters_agree_across_the_matrix(workload):
    """The same workload counts the same, whatever executed it."""
    dataset, groups = workload
    reference_items = None
    reference_counters = None
    for backend in BACKENDS:
        items, counters = _run(dataset, groups, backend, True)
        if reference_items is None:
            reference_items = items
            reference_counters = counters
        else:
            assert items == reference_items, backend
            assert counters == reference_counters, backend
