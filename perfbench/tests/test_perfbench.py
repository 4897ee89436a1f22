"""Self-test of the benchmark at smoke size.

Runs every workload (those of ``BENCHMARK.json`` and chain-join, which
is runnable but not gated) once untraced and once traced for one second
of operations and checks the result line: every end-to-end metric
(untraced, never 0) or per-layer metric (traced) is there with its
declared unit, every answer checked out, and in the traced run every
wrapped layer the workload runs through was called.  Also checks that
the benchmark refuses to run without the program's source next to it.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300

#: layers and counters every in-sim deployment runs through
SIM_LAYERS = [
    "rvl.derive", "rql.parse", "core.routing", "subsumption.checks",
    "cache.routing.lookups", "cache.plan.lookups", "core.planning",
    "execution.scan", "execution.kernel", "execution.join_rows_in",
    "channels", "net.loop", "peers.handler", "livedata.apply",
    "obs.span", "obs.spans",
]
#: tracer label -> the layers it must have seen called, per workload
TRACED = {
    "chain-join": {"sim": SIM_LAYERS + ["rdf.load"]},
    "son-churn": {"sim": SIM_LAYERS + ["rdf.load"]},
    "live-tcp": {
        "twin": SIM_LAYERS,
        "launcher": ["transport.codec", "transport.frames", "transport.wire_bytes"],
    },
}
#: per-layer metrics measured only on live-tcp (0 in-sim, where the
#: layer is bypassed)
LIVE_ONLY = ["transport.codec_ms", "transport.frames_per_query",
             "transport.wire_bytes_per_query", "deploy.poll_wait_ms",
             "deploy.node_cpu_ms_per_query"]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-4000:]
    last = completed.stdout.strip().splitlines()[-1]
    parsed = json.loads(last)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(parsed["attempted"], int) and parsed["attempted"] >= 1
    assert isinstance(parsed["failed"], int)
    return parsed


def calls(completed: subprocess.CompletedProcess) -> dict:
    """The traced run's calls per layer, by tracer."""
    lines = [line for line in completed.stdout.splitlines() if line.startswith("# calls ")]
    assert len(lines) == 1, completed.stdout[-4000:]
    return json.loads(lines[0][len("# calls "):])


@pytest.mark.parametrize("workload", list(TRACED))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = run(ROOT, workload, trace)
    parsed = result(completed)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in parsed["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in parsed["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert parsed["correct"], parsed
    assert parsed["failed"] == 0
    if not trace:
        for name, metric in parsed["metrics"].items():
            assert metric["value"] > 0, name
    if trace:
        seen = calls(completed)
        assert set(seen) == set(TRACED[workload])
        for label, layers in TRACED[workload].items():
            missing = [layer for layer in layers if seen[label].get(layer, 0) <= 0]
            assert not missing, f"{label}: no calls into {missing}"
        for name in LIVE_ONLY:
            value = parsed["metrics"][name]["value"]
            assert value > 0 if workload == "live-tcp" else value == 0, name


def test_every_gated_workload_is_tested():
    assert {w["name"] for w in SPEC["workloads"]} <= set(TRACED)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = run(bare, SPEC["workloads"][0]["name"], 0)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
