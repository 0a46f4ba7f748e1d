"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

wide-3520 is left out: it runs the same CLI cycle as bulk-327, and its
per-call setup takes seconds whatever the file size.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "bulk-327": replace(run.WORKLOADS["bulk-327"], file_bytes=6000),
    "drill-4313": replace(run.WORKLOADS["drill-4313"], file_bytes=3000, drill_stripes=3),
}
OPS_PER_CYCLE = {"bulk-327": 5, "drill-4313": 19}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    lines = []
    result = run.run(TINY[name], seed=3, seconds=0, trace=False, say=lines.append)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == OPS_PER_CYCLE[name]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("  error_rate = 0 ") for line in lines)
    assert len(os.sched_getaffinity(0)) == run.NPROC  # CPUs pinned for probing are given back


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.run(TINY[name], seed=3, seconds=0, trace=True, say=lambda _: None)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["striping.encode_matrix.calls"] == 2  # encode and reconstruct
    assert metrics["shardio.bytes_read"] > 0 and metrics["shardio.bytes_written"] > 0
    assert metrics["striping.crosscheck_failures"] == 0
    if name == "drill-4313":
        assert metrics["cluster.symbols_moved_per_stripe.d6"] == 36
        assert metrics["cluster.symbols_moved_per_stripe.d12"] == 24
        assert metrics["reconstructor.reconstruct.calls"] >= 3
    else:
        assert metrics["cluster.symbols_moved_per_stripe.d6"] == 0


def test_a_wrong_output_is_named_and_counted(monkeypatch):
    monkeypatch.setattr(run, "files_equal", lambda a, b: False)
    lines = []
    result = run.run(TINY["bulk-327"], seed=3, seconds=0, trace=False, say=lines.append)
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 3, 5)
    failed_ops = [line.split()[3].rstrip(":") for line in lines if line.startswith("FAIL")]
    assert failed_ops == ["reconstruct", "repair_dmin", "repair_dmax"]


def test_a_wrong_drill_repair_is_named_and_counted(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import pmba.cluster

    real = pmba.cluster.repair

    def corrupt(f, bundles, params):
        shard = real(f, bundles, params)
        return replace(shard, symbols=(shard.symbols[0] + 1, *shard.symbols[1:]))

    monkeypatch.setattr(pmba.cluster, "repair", corrupt)
    lines = []
    result = run.run(TINY["drill-4313"], seed=3, seconds=0, trace=False, say=lines.append)
    # the failed repair ends the drill cycle; the CLI pass still runs
    assert (result["correct"], result["failed"], result["attempted"]) == (False, 1, 14)
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and "run_repair_dmin" in fails[0] and "differs from what it stored" in fails[0]


def test_the_seed_alone_fixes_the_inputs():
    def inputs(seed):
        r = run.Run(TINY["drill-4313"], seed, trace=False, say=lambda _: None)
        try:
            r.setup()
            return r.data, r.expected, r.choices.integers(2**32)
        finally:
            shutil.rmtree(r.dir, ignore_errors=True)

    assert inputs(7) == inputs(7)
    assert inputs(7)[0] != inputs(8)[0]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bulk-327", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
