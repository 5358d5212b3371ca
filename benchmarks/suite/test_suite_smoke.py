"""Smoke test: the suite runs, and emits what ``BENCHMARK.json`` names.

Runs ``python -m benchmarks.suite run --smoke --trace`` (tiny scales, 1 s
windows) and ``compare`` of the result with itself.  It checks the
contract, not the numbers.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _suite(*arguments: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *arguments], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=170)


def test_suite_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    completed = _suite("run", "--smoke", "--trace", "--out", str(out))
    assert completed.returncode == 0, completed.stderr[-3000:]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(out.read_text())

    assert len(contract["workloads"]) == 5
    assert any(entry["name"] == "setup_s" for entry in contract["end_to_end"])
    for entry in contract["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    emitted_layers = set()
    for workload in contract["workloads"]:
        assert NAME.match(workload["name"]) and workload["why"]
        (run,) = result["workloads"][workload["name"]]
        for section in ("end_to_end", "per_layer"):
            assert run[section]["correct"], run[section]["broken"]
            assert run[section]["failed"] == 0
            for name, metric in run[section]["metrics"].items():
                assert NAME.match(name), name
                assert metric["unit"], name
        for entry in contract["end_to_end"]:
            metric = run["end_to_end"]["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] > 0, entry["name"]
        emitted_layers |= set(run["per_layer"]["metrics"])
    # A per-layer metric belongs to the workloads that exercise its layer
    # (the others report it as 0); every one must come from somewhere.
    missing = {e["name"] for e in contract["per_layer"]} - emitted_layers
    assert not missing, sorted(missing)

    compared = _suite("compare", str(out), str(out))
    assert compared.returncode == 0, compared.stdout + compared.stderr
    verdicts = [line.split()[-1] for line in compared.stdout.splitlines()[1:-1]]
    assert verdicts and set(verdicts) == {"unchanged"}, compared.stdout
