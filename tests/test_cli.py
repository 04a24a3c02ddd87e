"""The console entry points: what each one imports, and the shape of the
``ccr-sim`` report."""

import json
import subprocess
import sys

import pytest

from ccr.cli import agent_main, props_main, sim_main
from ccr.sim import SimConfig, run_trial
from support import AGENT_ENV


def loaded(code, modules):
    """The names among ``modules`` that a fresh interpreter has loaded
    after running ``code``."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=AGENT_ENV,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return out.split()


def test_simulator_and_checker_load_neither_dataclasses_nor_asyncio():
    code = "import ccr.protocol, ccr.sim, ccr.props, ccr.wire, ccr.cli"
    assert loaded(code, ("dataclasses", "asyncio")) == []


def test_agent_loads_no_simulator_checker_or_secrets():
    code = "import ccr.cli, ccr.agent"
    assert loaded(code, ("ccr.sim", "ccr.props", "secrets", "dataclasses")) == []
    assert loaded(code, ("asyncio",)) == ["asyncio"]  # the probe can see a load


def test_checker_loads_no_simulator():
    assert loaded("import ccr.props", ("ccr.sim",)) == []


def test_sim_report_stats_keep_their_order(capsys):
    assert sim_main(["--replica", "counter", "--trials", "2", "--reorder"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(report["stats"]) == ["resync_reqs", "fulls_served", "stale_dropped"]


def test_sim_report_counts_effective_ops(capsys):
    # Messages per op read straight off the report: ``ops`` sums the
    # intents that took effect, over every trial.
    assert sim_main(["--replica", "text", "--trials", "3", "--seed", "4",
                     "--topology", "ring", "--reorder"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    trials = [run_trial(SimConfig(kind="text", seed=4 + i, topology="ring", reorder=True))
              for i in range(3)]
    assert report["ops"] == sum(len(r.script) for r in trials) > 0
    assert report["messages_sent"] == sum(r.messages_sent for r in trials)
    keys = list(report)
    assert keys.index("ops") + 1 == keys.index("messages_sent")


@pytest.mark.parametrize("args", [["--sites", "0"], ["--sites", "-2"], ["--ops", "-1"],
                                  ["--trials", "0"]])
def test_sim_rejects_counts_out_of_range(args, capsys):
    with pytest.raises(SystemExit) as e:
        sim_main(["--replica", "counter", *args])
    assert e.value.code == 2
    assert f"{args[0]} must be at least" in capsys.readouterr().err



@pytest.mark.parametrize("main, args, error", [
    (props_main, ["--replica", "counter", "--trials", "-3"], "--trials must be at least 1"),
    (props_main, ["--replica", "counter", "--trials", "0"], "--trials must be at least 1"),
    (props_main, ["--replica", "nosuch"], "unknown replica kind"),
    (sim_main, ["--replica", "nosuch"], "unknown replica kind"),
    (sim_main, ["--replica", "map<counter"], "bad kind syntax"),
    (agent_main, ["--site", "0", "--replica", "nosuch", "--listen", "127.0.0.1:0"],
     "unknown replica kind"),
    (agent_main, ["--site", "0", "--replica", "counter", "--listen", "127.0.0.1:99999"],
     "bad address: bad port in '127.0.0.1:99999'"),
    (agent_main, ["--site", "0", "--replica", "counter", "--listen", "127.0.0.1:0",
                  "--connect", "127.0.0.1:70000"], "bad address: bad port in '127.0.0.1:70000'"),
])
def test_bad_input_is_a_usage_error(main, args, error, capsys):
    with pytest.raises(SystemExit) as e:
        main(args)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert error in err.splitlines()[-1]
