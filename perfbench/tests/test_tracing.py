"""Span arithmetic, and traced runs against untraced ones."""

import numpy as np
import pytest

import bornlab
from bornlab import cli, rules, streams
from perfbench import campaign
from perfbench.run import run_campaign
from perfbench.tracing import Tracer, self_times

# A short slice of each workload: every command it sends, and for
# independence-threads three --threads 1/--threads 2 twin pairs.
SLICES = {"defect-scan": 5, "independence-threads": 6, "fit-and-sample": 8}


def small(workload):
    return campaign.build(workload, 7, 2)[: SLICES[workload]]


def traced_run(invocations):
    tracer = Tracer()
    tracer.install()
    try:
        return tracer, run_campaign(cli.main, invocations, tracer)
    finally:
        tracer.uninstall()


def test_self_plus_child_time_equals_duration():
    # root 0 [0, 10) with children 1 [1, 4) and 2 [5, 9); 3 [6, 8) nests in 2
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 2.0])
    own, child = self_times(parent, duration)
    np.testing.assert_array_equal(own, [3.0, 3.0, 2.0, 2.0])
    np.testing.assert_array_equal(child, [7.0, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(own + child, duration)


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_traced_results_are_byte_identical(workload):
    invocations = small(workload)
    untraced = run_campaign(cli.main, invocations)
    _, traced = traced_run(invocations)
    assert traced.payloads == untraced.payloads
    assert all(o == "ok" or o in campaign.KNOWN_DEFECTS for o in traced.outcomes)


@pytest.mark.parametrize("workload", ["defect-scan", "fit-and-sample"])
def test_self_times_and_remainder_add_up_to_run_s(workload):
    tracer, traced = traced_run(small(workload))
    spans = tracer.columns()
    duration = spans["end"] - spans["start"]
    own, child = self_times(spans["parent"], duration)
    np.testing.assert_allclose(own + child, duration, rtol=0, atol=1e-12)
    assert own.min() > -1e-9
    summed = sum(layer["self_s"] for layer in tracer.totals().values())
    uncovered = traced.wall_s - tracer.main_root_seconds()
    assert uncovered >= 0.0
    assert summed + uncovered == pytest.approx(traced.wall_s, rel=1e-9)


def test_spans_reach_every_importing_module_and_are_removed():
    original = streams.substream
    tracer = Tracer()
    tracer.install()
    try:
        assert rules.substream is not original
        assert rules.substream is cli.substream is bornlab.substream
        cli.main(["falsify", "--rule", "born", "--dim", "2", "--trials", "3"])
    finally:
        tracer.uninstall()
    assert rules.substream is original and cli.substream is original
    totals = tracer.totals()
    assert totals["streams.substream"]["calls"] == 3
    assert totals["rules.defect_scan"]["amount"] == 3
    assert totals["quantum.validate"]["calls"] == 6  # one StateVector, one ModulusVector per trial
