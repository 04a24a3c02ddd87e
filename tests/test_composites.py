"""Composite kinds other than the social-media post: the simulator and the
property checker draw their intents by recursing into the components."""

import pytest

from ccr.props import check_properties
from ccr.sim import SimConfig, run_trial
from support import verify_trials

COMPOSITES = ["map<text>", "tuple<queue,eset>", "map<map<counter>>", "tuple<counter,text>"]


@pytest.mark.parametrize("kind", COMPOSITES)
def test_ring_converges_under_faults(kind, monkeypatch):
    for seed in range(4):
        with monkeypatch.context() as m:
            if seed == 0:  # under the direct-transform check
                verify_trials(m)
            cfg = SimConfig(kind=kind, sites=4, seed=seed, topology="ring",
                            reorder=True, duplicate=True)
            report = run_trial(cfg)
        assert report.converged, report.summary()
        assert report.script


@pytest.mark.parametrize("kind", COMPOSITES)
def test_properties_hold(kind):
    report = check_properties(kind, 200, seed=0)
    assert report.ok(), report.summary()
