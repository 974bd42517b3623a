"""Unit tests for the in-process MapReduce engine."""

from __future__ import annotations

import pytest

from repro.exceptions import MapReduceError
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob


def word_count_job(num_partitions: int = 1) -> MapReduceJob:
    """The canonical word-count job used as the engine smoke test."""

    def mapper(key, line):
        for word in line.split():
            yield (word, 1)

    def reducer(word, counts):
        yield (word, sum(counts))

    return MapReduceJob(
        name="word-count", mapper=mapper, reducer=reducer, num_partitions=num_partitions
    )


class TestBasicExecution:
    def test_word_count(self):
        engine = MapReduceEngine()
        documents = [(1, "a b a"), (2, "b c")]
        result = engine.run(word_count_job(), documents)
        assert dict(result.output) == {"a": 2, "b": 2, "c": 1}

    def test_empty_input(self):
        engine = MapReduceEngine()
        result = engine.run(word_count_job(), [])
        assert result.output == []
        assert result.counters.map_input_records == 0

    def test_counters(self):
        engine = MapReduceEngine()
        result = engine.run(word_count_job(), [(1, "a b a"), (2, "b c")])
        assert result.counters.map_input_records == 2
        assert result.counters.map_output_records == 5
        assert result.counters.reduce_input_groups == 3
        assert result.counters.reduce_input_records == 5
        assert result.counters.reduce_output_records == 3
        assert set(result.counters.as_dict()) >= {"map_input_records"}

    def test_history_is_recorded(self):
        engine = MapReduceEngine()
        engine.run(word_count_job(), [(1, "a")])
        engine.run(word_count_job(), [(1, "b")])
        assert len(engine.history) == 2

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_result_independent_of_partitioning(self, partitions):
        engine = MapReduceEngine()
        documents = [(i, f"w{i % 5} w{i % 3}") for i in range(30)]
        baseline = dict(engine.run(word_count_job(1), documents).output)
        partitioned = dict(engine.run(word_count_job(partitions), documents).output)
        assert partitioned == baseline

    def test_reduce_values_are_sorted(self):
        """The shuffle sorts values per key ('sorted according to their value')."""
        observed = {}

        def mapper(key, value):
            yield ("k", value)

        def reducer(key, values):
            observed["values"] = list(values)
            yield (key, len(values))

        engine = MapReduceEngine()
        engine.run(
            MapReduceJob(name="sort-check", mapper=mapper, reducer=reducer),
            [(i, v) for i, v in enumerate([3, 1, 2])],
        )
        assert observed["values"] == [1, 2, 3]


class TestCombiner:
    def test_combiner_preserves_result_and_reduces_traffic(self):
        def mapper(key, line):
            for word in line.split():
                yield (word, 1)

        def combiner(word, counts):
            yield sum(counts)

        def reducer(word, counts):
            yield (word, sum(counts))

        engine = MapReduceEngine()
        documents = [(1, "a a a b"), (2, "a b b")]
        without = engine.run(
            MapReduceJob(name="no-combiner", mapper=mapper, reducer=reducer), documents
        )
        with_combiner = engine.run(
            MapReduceJob(
                name="with-combiner", mapper=mapper, reducer=reducer, combiner=combiner
            ),
            documents,
        )
        assert dict(without.output) == dict(with_combiner.output)
        assert (
            with_combiner.counters.reduce_input_records
            < without.counters.reduce_input_records
        )


class TestChaining:
    def test_run_chain_feeds_output_forward(self):
        def mapper1(key, value):
            yield (value % 3, value)

        def reducer1(key, values):
            yield (key, sum(values))

        def mapper2(key, value):
            yield ("total", value)

        def reducer2(key, values):
            yield (key, sum(values))

        engine = MapReduceEngine()
        jobs = [
            MapReduceJob(name="group-by-mod", mapper=mapper1, reducer=reducer1),
            MapReduceJob(name="grand-total", mapper=mapper2, reducer=reducer2),
        ]
        results = engine.run_chain(jobs, [(i, i) for i in range(10)])
        assert len(results) == 2
        assert dict(results[-1].output) == {"total": sum(range(10))}


class TestErrors:
    def test_invalid_partitions_rejected(self):
        with pytest.raises(MapReduceError):
            MapReduceJob(name="bad", mapper=lambda k, v: [], reducer=lambda k, v: [], num_partitions=0)

    def test_mapper_failure_is_wrapped(self):
        def mapper(key, value):
            raise RuntimeError("boom")

        job = MapReduceJob(name="bad-map", mapper=mapper, reducer=lambda k, v: [])
        with pytest.raises(MapReduceError, match="mapper failed"):
            MapReduceEngine().run(job, [(1, 1)])

    def test_reducer_failure_is_wrapped(self):
        def reducer(key, values):
            raise RuntimeError("boom")

        job = MapReduceJob(
            name="bad-reduce", mapper=lambda k, v: [(k, v)], reducer=reducer
        )
        with pytest.raises(MapReduceError, match="reducer failed"):
            MapReduceEngine().run(job, [(1, 1)])

    def test_bad_partitioner_rejected(self):
        job = MapReduceJob(
            name="bad-partitioner",
            mapper=lambda k, v: [(k, v)],
            reducer=lambda k, values: [(k, values)],
            num_partitions=2,
            partitioner=lambda key, n: 99,
        )
        with pytest.raises(MapReduceError, match="partitioner"):
            MapReduceEngine().run(job, [(1, 1)])


# -- module-level job functions (picklable, for the pool backend) -------------


def _picklable_mapper(key, line):
    for word in line.split():
        yield (word, 1)


def _picklable_combiner(word, counts):
    yield sum(counts)


def _picklable_reducer(word, counts):
    yield (word, sum(counts))


def picklable_word_count_job(num_partitions: int = 3) -> MapReduceJob:
    """Word count built from module-level functions only."""
    return MapReduceJob(
        name="word-count-picklable",
        mapper=_picklable_mapper,
        combiner=_picklable_combiner,
        reducer=_picklable_reducer,
        num_partitions=num_partitions,
    )


class TestExecutionBackends:
    """The engine's result must be bit-identical on every backend."""

    DOCUMENTS = [(i, f"w{i % 7} w{i % 3} w{i % 5}") for i in range(40)]

    def _run(self, backend):
        with MapReduceEngine(backend=backend) as engine:
            return engine.run(picklable_word_count_job(), self.DOCUMENTS)

    @pytest.mark.parametrize("backend", ["pool", "remote"])
    def test_output_and_counters_match_serial(self, backend):
        baseline = self._run("serial")
        parallel = self._run(backend)
        assert parallel.output == baseline.output  # order included
        assert parallel.counters.as_dict() == baseline.counters.as_dict()

    def test_backend_instance_accepted(self):
        from repro.exec import PoolBackend

        with PoolBackend(workers=2) as backend:
            result = MapReduceEngine(backend=backend).run(
                picklable_word_count_job(), self.DOCUMENTS
            )
        assert dict(result.output) == dict(self._run("serial").output)

    def test_closure_job_rejected_by_process_backend(self):
        from repro.exceptions import ExecutionError

        engine = MapReduceEngine(backend="pool")
        with pytest.raises(ExecutionError, match="picklable"):
            engine.run(word_count_job(2), [(1, "a b"), (2, "c")])


class TestDefaultPartitioner:
    """CRC32 partitioning: deterministic, collision-resistant, even."""

    def test_anagram_keys_are_not_forced_into_one_partition(self):
        # sum(ord(ch)) — the old default — maps every anagram to the
        # same partition; CRC32 must separate at least some of them.
        job = MapReduceJob(
            name="anagrams",
            mapper=lambda k, v: [],
            reducer=lambda k, v: [],
            num_partitions=4,
        )
        anagrams = ["abcd", "abdc", "acbd", "acdb", "adbc", "adcb",
                    "bacd", "badc", "bcad", "bcda", "bdac", "bdca"]
        partitions = {job.partition_for(key) for key in anagrams}
        assert len(partitions) > 1

    def test_distribution_is_roughly_even(self):
        num_partitions = 8
        job = MapReduceJob(
            name="spread",
            mapper=lambda k, v: [],
            reducer=lambda k, v: [],
            num_partitions=num_partitions,
        )
        keys = [f"user-{i:05d}" for i in range(4000)]
        counts = [0] * num_partitions
        for key in keys:
            counts[job.partition_for(key)] += 1
        expected = len(keys) / num_partitions
        # CRC32 should stay within ±25% of uniform on 4000 keys; the
        # old character-sum hash concentrated sequential ids badly.
        assert min(counts) > expected * 0.75
        assert max(counts) < expected * 1.25

    def test_partitioning_is_deterministic(self):
        job = MapReduceJob(
            name="stable",
            mapper=lambda k, v: [],
            reducer=lambda k, v: [],
            num_partitions=5,
        )
        keys = ["alpha", "beta", ("tuple", 3), 42]
        assert [job.partition_for(k) for k in keys] == [
            job.partition_for(k) for k in keys
        ]
