"""Additional coverage for remaining API corners."""

import numpy as np
import pytest

from repro.cache import GDWheelCache, LRUCache
from repro.core import CutoffSweep
from repro.flow import FlowNetwork, flow_cost, solve_min_cost_flow
from repro.sim import record_free_bytes
from repro.trace import Request, Trace, read_text_trace, write_text_trace
from repro.viz import line_chart


class TestFlowCost:
    def test_matches_solver_objective(self):
        net = FlowNetwork(3)
        net.add_arc(0, 1, 10, 2.0)
        net.add_arc(1, 2, 10, 3.0)
        net.add_supply(0, 4)
        net.add_supply(2, -4)
        result = solve_min_cost_flow(net)
        assert flow_cost(net, result.flow) == pytest.approx(
            result.total_cost
        )

    def test_empty_flow_costs_nothing(self):
        net = FlowNetwork(2)
        net.add_arc(0, 1, 5, 9.0)
        assert flow_cost(net, {}) == 0.0


class TestCutoffSweepDataclass:
    def test_prediction_error_property(self):
        sweep = CutoffSweep(
            cutoffs=np.array([0.5]),
            false_positive=np.array([0.1]),
            false_negative=np.array([0.2]),
        )
        assert sweep.prediction_error[0] == pytest.approx(0.3)


class TestGDWheelEmpty:
    def test_victim_on_empty_cache_is_none(self):
        policy = GDWheelCache(cache_size=10)
        assert policy._select_victim(Request(0, 1, 5)) is None


class TestTextTraceRoundTripPrecision:
    def test_fractional_costs_survive(self, tmp_path):
        trace = Trace([Request(0.25, 1, 10, 3.125), Request(1.5, 2, 4, 0.5)])
        path = tmp_path / "frac.txt"
        write_text_trace(trace, path)
        back = read_text_trace(path)
        assert back.requests == trace.requests


class TestRecordFreeBytesConsistency:
    def test_matches_observer_view(self, small_zipf_trace):
        """record_free_bytes equals what an on_request observer would see
        if it sampled free space before each request."""
        cache_size = 400
        free = record_free_bytes(small_zipf_trace, LRUCache(cache_size))
        assert free[0] == cache_size
        assert (free <= cache_size).all()
        # Free space can only change by bounded amounts per step (one
        # admission minus arbitrary evictions): sanity envelope.
        assert free.min() >= 0


class TestLineChartMarkerExhaustion:
    def test_many_shared_initials(self):
        series = {f"s{i}": [float(i), float(i + 1)] for i in range(5)}
        chart = line_chart([0, 1], series)
        legend = chart.splitlines()[-1]
        # Five distinct markers assigned despite shared first letter.
        markers = {part.split("=")[0] for part in legend.strip("[] ").split("  ") if "=" in part}
        assert len(markers) == 5
