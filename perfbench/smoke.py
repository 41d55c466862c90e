"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload for a moment, traced and untraced, and checks that the
result line names every metric of BENCHMARK.json with its unit.  Then checks
that a forced wrong output (a flipped LMI certificate) counts as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import setkf  # noqa: E402
import worker  # noqa: E402
from workloads import CertificateSweep  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _sweep(tmp_path):
    return worker.measure(CertificateSweep(3, tmp_path, plants=4), 0.0, trace=False)


def test_flipped_certificate_raises_fail_ratio(tmp_path, monkeypatch):
    assert _sweep(tmp_path)["failed"] == 0
    orig = setkf.lmi_feasible
    monkeypatch.setattr(setkf, "lmi_feasible", lambda *a, **k: not orig(*a, **k))
    res = _sweep(tmp_path)
    assert res["failed"] == res["attempted"] > 0
    e2e, _ = worker.end_to_end(res, [1.0], 1.0)
    assert e2e["pass_ratio"][0] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tracking_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
