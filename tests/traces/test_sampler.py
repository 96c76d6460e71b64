"""Tests for the trace pool."""

import numpy as np
import pytest

from repro.traces.base import ArrayTrace, ConstantTrace
from repro.traces.sampler import TracePool
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError


class TestSequenceSource:
    def test_samples_from_sequence(self):
        traces = [ConstantTrace(v / 10) for v in range(5)]
        pool = TracePool(traces, np.random.default_rng(0))
        assert pool.size == 5
        assert pool.sample() in traces

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            TracePool([], np.random.default_rng(0))

    def test_sample_many(self):
        traces = [ConstantTrace(0.5)]
        pool = TracePool(traces, np.random.default_rng(0))
        assert len(pool.sample_many(7)) == 7


class TestSynthesizerSource:
    def test_wraps_synthesizer(self):
        from repro.traces.planetlab import PlanetLabSynthesizer

        pool = TracePool(
            PlanetLabSynthesizer(RngFactory(0)),
            np.random.default_rng(0),
            population=50,
        )
        assert pool.size == 50
        trace = pool.sample()
        assert trace.utilization_at(0.0) >= 0.0

    def test_population_validated(self):
        from repro.traces.planetlab import PlanetLabSynthesizer

        with pytest.raises(ValidationError):
            TracePool(
                PlanetLabSynthesizer(RngFactory(0)),
                np.random.default_rng(0),
                population=0,
            )

    def test_repeated_index_returns_the_same_trace(self):
        class Counting:
            """Synthesizer whose trace ``i`` holds the single sample i/10."""

            def __init__(self):
                self.calls = []

            def trace(self, index):
                self.calls.append(index)
                return ArrayTrace([index / 10], 300.0)

        source = Counting()
        pool = TracePool(source, np.random.default_rng(0), population=5)
        drawn = pool.sample_many(40)
        # Each index is synthesized once, however often it is drawn...
        assert len(source.calls) == len(set(source.calls)) <= 5
        # ...and every draw of it returns that one trace object.
        first = {}
        for trace in drawn:
            assert first.setdefault(trace.mean(), trace) is trace

    def test_deterministic_with_seeded_rng(self):
        traces = [ConstantTrace(v / 10) for v in range(10)]

        def draw(seed):
            pool = TracePool(traces, np.random.default_rng(seed))
            return [t.mean() for t in pool.sample_many(5)]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
