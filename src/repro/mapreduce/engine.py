"""In-process MapReduce engine.

Section IV implements the recommender as three MapReduce jobs.  The
original system ran on Hadoop; the contribution, however, is the job
decomposition, not the cluster.  This module provides a faithful
in-process engine that enforces MapReduce semantics so the jobs in
:mod:`repro.mapreduce.jobs` can be written exactly as the paper's
pseudo-code describes:

* the **map** phase transforms each input ``(key, value)`` pair into
  zero or more intermediate pairs;
* the **shuffle** phase partitions intermediate pairs by key (hash
  partitioner by default) and groups the values of each key, sorting
  keys and values for determinism ("pairs that share the same key and
  are sorted according to their value");
* an optional **combine** phase pre-aggregates values per key inside
  each partition, like a Hadoop combiner;
* the **reduce** phase turns each ``(key, [values])`` group into zero or
  more output pairs.

Jobs can be chained (the output pair list of one job is the input of the
next) and the engine records counters comparable to Hadoop's job
counters, which the tests use to assert the data flow.

Every phase executes through an :class:`~repro.exec.ExecutionBackend`:
the map phase over contiguous input chunks, the combine and reduce
phases over whole partitions.  Partitions therefore buy real
parallelism on the worker fleet (``pool``/``remote``) instead of
merely simulating a cluster — and because chunks and partitions are
processed in a fixed order, the output (pairs *and* counters) is
bit-identical across backends.  The fleet additionally requires the
job's mapper/combiner/reducer to be picklable (module-level functions,
not closures); closure jobs run on the serial backend.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..exec import ExecutionBackend, chunk_evenly, resolve_backend
from ..exceptions import MapReduceError

#: A key/value record flowing through the engine.
Pair = tuple[Any, Any]

#: ``mapper(key, value) -> iterable of (key, value)``.
Mapper = Callable[[Any, Any], Iterable[Pair]]

#: ``reducer(key, values) -> iterable of (key, value)``.
Reducer = Callable[[Any, Sequence[Any]], Iterable[Pair]]

#: ``combiner(key, values) -> iterable of values`` (same key retained).
Combiner = Callable[[Any, Sequence[Any]], Iterable[Any]]


def _sort_key(value: Any) -> str:
    """Deterministic ordering for heterogeneous keys/values."""
    return repr(value)


@dataclass
class JobCounters:
    """Record counts of one job execution (Hadoop-style counters)."""

    map_input_records: int = 0
    map_output_records: int = 0
    combine_input_records: int = 0
    combine_output_records: int = 0
    reduce_input_groups: int = 0
    reduce_input_records: int = 0
    reduce_output_records: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dictionary (for reports)."""
        return {
            "map_input_records": self.map_input_records,
            "map_output_records": self.map_output_records,
            "combine_input_records": self.combine_input_records,
            "combine_output_records": self.combine_output_records,
            "reduce_input_groups": self.reduce_input_groups,
            "reduce_input_records": self.reduce_input_records,
            "reduce_output_records": self.reduce_output_records,
        }


@dataclass
class MapReduceJob:
    """Declarative description of a single MapReduce job.

    Parameters
    ----------
    name:
        Job name used in error messages and run reports.
    mapper:
        The map function.
    reducer:
        The reduce function.
    combiner:
        Optional per-partition pre-aggregation of mapped values.
    num_partitions:
        Number of simulated reduce partitions (>= 1).  Partitioning does
        not change the result — it exists so tests can verify that the
        jobs behave identically under any partitioning, as they must on
        a real cluster.
    partitioner:
        Maps ``(key, num_partitions)`` to a partition index; defaults to
        a stable hash of ``repr(key)``.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Combiner | None = None
    num_partitions: int = 1
    partitioner: Callable[[Any, int], int] | None = None

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise MapReduceError(
                f"job {self.name!r}: num_partitions must be >= 1"
            )

    def partition_for(self, key: Any) -> int:
        """Partition index of ``key``."""
        if self.partitioner is not None:
            index = self.partitioner(key, self.num_partitions)
            if not 0 <= index < self.num_partitions:
                raise MapReduceError(
                    f"job {self.name!r}: partitioner returned {index} "
                    f"for {self.num_partitions} partitions"
                )
            return index
        # ``hash`` of strings is randomised per interpreter run; use a
        # deterministic textual hash instead so repeated runs shuffle
        # identically.  CRC32 (not a character sum, which collides on
        # every anagram and skews small partition counts) spreads keys
        # evenly.
        text = _sort_key(key)
        return zlib.crc32(text.encode("utf-8")) % self.num_partitions


@dataclass
class JobResult:
    """Output pairs and counters of one executed job."""

    job_name: str
    output: list[Pair]
    counters: JobCounters = field(default_factory=JobCounters)


# -- phase tasks ---------------------------------------------------------------
#
# Module-level so the worker fleet can pickle them; each takes only
# plain data plus the job's user functions (which must themselves be
# picklable for the worker fleet).


def _map_chunk(
    mapper: Mapper, job_name: str, chunk: Sequence[Pair]
) -> list[Pair]:
    """Run the map function over one contiguous chunk of input pairs."""
    mapped: list[Pair] = []
    for key, value in chunk:
        try:
            mapped.extend(mapper(key, value))
        except Exception as exc:  # surface the failing record
            raise MapReduceError(
                f"job {job_name!r}: mapper failed on key {key!r}: {exc}"
            ) from exc
    return mapped


def _combine_partition(
    combiner: Combiner,
    job_name: str,
    partition: Sequence[tuple[Any, list[Any]]],
) -> tuple[list[tuple[Any, list[Any]]], int, int]:
    """Combine every key group of one partition.

    Returns ``(combined groups, input records, output records)``.
    """
    combined_groups: list[tuple[Any, list[Any]]] = []
    in_records = 0
    out_records = 0
    for key, values in partition:
        in_records += len(values)
        try:
            combined_values = sorted(combiner(key, values), key=_sort_key)
        except Exception as exc:
            raise MapReduceError(
                f"job {job_name!r}: combiner failed on key {key!r}: {exc}"
            ) from exc
        out_records += len(combined_values)
        combined_groups.append((key, list(combined_values)))
    return combined_groups, in_records, out_records


def _reduce_partition(
    reducer: Reducer,
    job_name: str,
    partition: Sequence[tuple[Any, list[Any]]],
) -> tuple[list[Pair], int, int, int]:
    """Reduce every key group of one partition.

    Returns ``(output pairs, input groups, input records, output records)``.
    """
    output: list[Pair] = []
    groups = 0
    in_records = 0
    out_records = 0
    for key, values in partition:
        groups += 1
        in_records += len(values)
        try:
            reduced = list(reducer(key, values))
        except Exception as exc:
            raise MapReduceError(
                f"job {job_name!r}: reducer failed on key {key!r}: {exc}"
            ) from exc
        out_records += len(reduced)
        output.extend(reduced)
    return output, groups, in_records, out_records


class MapReduceEngine:
    """Executes :class:`MapReduceJob` definitions over in-memory pairs.

    Parameters
    ----------
    backend:
        Execution backend (instance, name or ``None`` for serial) the
        map/combine/reduce phases run on.  The result is bit-identical
        for every backend; the pool/remote backends require picklable job
        functions.
    """

    def __init__(self, backend: ExecutionBackend | str | None = None) -> None:
        # A backend named by string is instantiated (and therefore
        # owned) here; close() releases its pooled workers.  A caller-
        # provided instance stays the caller's to close.
        self._owns_backend = not isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)
        self.history: list[JobResult] = []

    def close(self) -> None:
        """Release the engine's backend workers (if the engine owns them)."""
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- single job ------------------------------------------------------------

    def run(self, job: MapReduceJob, input_pairs: Iterable[Pair]) -> JobResult:
        """Run one job over ``input_pairs`` and return its result."""
        counters = JobCounters()
        pairs = list(input_pairs)
        counters.map_input_records = len(pairs)
        # One task per worker-sized chunk; concatenating chunk outputs
        # in order reproduces the record-by-record serial ordering.
        chunks = chunk_evenly(pairs, max(1, self.backend.workers * 4))
        mapped_chunks = self.backend.map_items(
            functools.partial(_map_chunk, job.mapper, job.name), chunks
        )
        intermediate: list[Pair] = []
        for mapped in mapped_chunks:
            counters.map_output_records += len(mapped)
            intermediate.extend(mapped)

        partitions = self._shuffle(job, intermediate)

        # One task item per partition; outputs come back in partition
        # order, so concatenating them reproduces the serial output.
        if job.combiner is not None:
            combined = self.backend.map_items(
                functools.partial(_combine_partition, job.combiner, job.name),
                partitions,
            )
            partitions = []
            for groups, in_records, out_records in combined:
                counters.combine_input_records += in_records
                counters.combine_output_records += out_records
                partitions.append(groups)

        reduced_partitions = self.backend.map_items(
            functools.partial(_reduce_partition, job.reducer, job.name),
            partitions,
        )
        output: list[Pair] = []
        for pairs_out, groups, in_records, out_records in reduced_partitions:
            counters.reduce_input_groups += groups
            counters.reduce_input_records += in_records
            counters.reduce_output_records += out_records
            output.extend(pairs_out)

        result = JobResult(job_name=job.name, output=output, counters=counters)
        self.history.append(result)
        return result

    def run_chain(
        self, jobs: Sequence[MapReduceJob], input_pairs: Iterable[Pair]
    ) -> list[JobResult]:
        """Run ``jobs`` sequentially, feeding each job the previous output."""
        results: list[JobResult] = []
        current: Iterable[Pair] = input_pairs
        for job in jobs:
            result = self.run(job, current)
            results.append(result)
            current = result.output
        return results

    # -- internals ---------------------------------------------------------------

    def _shuffle(
        self, job: MapReduceJob, intermediate: Sequence[Pair]
    ) -> list[list[tuple[Any, list[Any]]]]:
        """Partition and group the intermediate pairs by key."""
        buckets: list[dict[Any, list[Any]]] = [
            {} for _ in range(job.num_partitions)
        ]
        for key, value in intermediate:
            partition = job.partition_for(key)
            buckets[partition].setdefault(key, []).append(value)
        partitions: list[list[tuple[Any, list[Any]]]] = []
        for bucket in buckets:
            groups = [
                (key, sorted(values, key=_sort_key))
                for key, values in bucket.items()
            ]
            groups.sort(key=lambda pair: _sort_key(pair[0]))
            partitions.append(groups)
        return partitions
