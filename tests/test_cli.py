"""The console entry points: what each one imports, and the shape of the
``ccr-sim`` report."""

import json
import subprocess
import sys

from ccr.cli import sim_main
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


def test_sim_report_stats_keep_their_order(capsys):
    assert sim_main(["--replica", "counter", "--trials", "2", "--reorder"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(report["stats"]) == ["resync_reqs", "fulls_served", "stale_dropped"]
