"""Smoke self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric is printed with its unit on every workload, traced
and untraced, that planted faults show up as failed ops, and that the
benchmark refuses to run without the program's source tree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

import inproc  # noqa: E402
import loopback  # noqa: E402
from ccr.protocol import SiteState  # noqa: E402


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(inproc, "HISTORY_OPS", 60)
    monkeypatch.setattr(inproc, "ROTATIONS", 1)
    monkeypatch.setattr(loopback, "FLOODS", 2)
    monkeypatch.setattr(loopback, "STEP_OPS", 40)
    monkeypatch.setattr(loopback, "LADDER", (500, 1000))
    monkeypatch.setattr(loopback, "ACK_BOUND_S", 0.5)
    monkeypatch.setattr(loopback, "FLOOD_BOUND_S", 1.0)
    # Below the agent's frame limit, so a tiny catch-up completes.
    monkeypatch.setattr(loopback, "CATCHUP_OPS", 100)
    monkeypatch.setattr(loopback, "CATCHUP_BOUND_S", 10.0)


def bench(capsys, workload, trace=0, seconds=0.01):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            table[parts[0]] = parts[2]
    return table, json.loads(lines[-1])


# The end-to-end metrics each workload prints besides the gated ones.
LATENCY = {"op_latency_ms.p50": "ms", "op_latency_ms.p99": "ms"}
WALL = {"setup_s.wall": "s", "ops_per_s.wall": "1/s", "failed_share": "ratio"}
EXTRA = {
    "long-history": {**LATENCY, **WALL},
    "faulty-ring": WALL,
    "agent-loopback": {**LATENCY, **WALL, "bytes_per_op": "bytes",
                       "max_rate_ops_s": "1/s", "catchup_s": "s"},
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(capsys, workload):
    table, result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert table[name] == unit
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    for name, unit in EXTRA[workload].items():
        assert table[name] == unit

    table, result = bench(capsys, workload, trace=1)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert table[name] == unit
        assert result["metrics"][name]["unit"] == unit


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_clean_runs_have_no_failed_ops(capsys):
    for workload in ("long-history", "agent-loopback"):
        _, result = bench(capsys, workload)
        assert result["correct"] and result["failed"] == 0, workload


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counted_ops_depend_on_the_seed_alone(capsys, workload):
    # Longer runs repeat the same inputs; they must not count more ops.
    _, short = bench(capsys, workload)
    _, longer = bench(capsys, workload, seconds=1.5)
    assert (longer["attempted"], longer["failed"]) == (short["attempted"], short["failed"])


def test_perturbed_digest_fails_ops(capsys, monkeypatch):
    digest = SiteState.digest
    monkeypatch.setattr(SiteState, "digest",
                        lambda self: digest(self) + ("x" if self.site == 1 else ""))
    _, result = bench(capsys, "long-history")
    assert result["failed"] == result["attempted"] > 0


def test_dropped_acknowledgement_fails_ops(capsys, monkeypatch):
    ack = loopback.Peer.ack

    def drop_first(self, uid, t):
        if uid.seq != 1 or self.full_ops:
            ack(self, uid, t)

    monkeypatch.setattr(loopback.Peer, "ack", drop_first)
    _, result = bench(capsys, "agent-loopback")
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "faulty-ring",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
