"""Command line of the suite.

Three entry points share this module:

* the benchmark driver's ``python3 benchmarks/suite/run.py --workload NAME
  --seed N --seconds S --trace 0|1`` -- one run of one workload, one JSON
  object as the last line of standard output;
* ``python -m benchmarks.suite run`` -- every workload in a fresh process
  each, results collected into one file;
* ``python -m benchmarks.suite compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import compare as compare_module
from .harness import (
    OUT_DIR, REPO_ROOT, SETUP_REPEATS, SETUP_SECONDS, SUITE_DIR, Report,
    Timer, Tracer, adopt_orphans, child_env, fingerprint, load_contract,
    median, stop_descendants, work_directory,
)
from .ingest import IngestMixed
from .pdbench import PDBench
from .served import Served

WORKLOADS = {
    "pdbench_ua": lambda **kw: PDBench("ua", **kw),
    "pdbench_au": lambda **kw: PDBench("au", **kw),
    "served_cold": lambda **kw: Served("cold", **kw),
    "served_hot": lambda **kw: Served("hot", **kw),
    "ingest_mixed": lambda **kw: IngestMixed(**kw),
}


def run_workload(name: str, seed: int, seconds: float, trace: str,
                 smoke: bool) -> Dict[str, Report]:
    """Set up, run the untraced and/or traced window, tear down.

    ``trace`` is ``"0"`` (untraced window, end-to-end metrics), ``"1"``
    (traced window, per-layer metrics) or ``"both"`` (one set-up, both
    windows).  End-to-end metrics always come from the untraced window.
    """
    reports: Dict[str, Report] = {}
    with work_directory() as workdir:
        workload = WORKLOADS[name](seed=seed, smoke=smoke, workdir=workdir)
        try:
            setups = _set_up(workload, once=smoke or trace == "1")
            if trace in ("0", "both"):
                report = reports["end_to_end"] = Report(name, seed)
                workload.measure(seconds, report)
                report.put("setup_s", median(setups), "s")
                report.notes["setup_samples_s"] = setups
            if trace in ("1", "both"):
                report = reports["per_layer"] = Report(name, seed)
                tracer = Tracer()
                workload.trace(seconds / 2 if trace == "both" else seconds,
                               report, tracer)
                tracer.dump(OUT_DIR / f"trace-{name}.json")
                report.notes["spans"] = len(tracer.spans)
        finally:
            workload.teardown()
    return reports


def _set_up(workload: Any, once: bool) -> List[float]:
    """Set up from scratch, several times; returns the seconds each took.

    ``setup_s`` is their median.  Quick set-ups are repeated more often; a
    traced run does not report ``setup_s`` and sets up once.
    """
    fewest, most = SETUP_REPEATS
    setups: List[float] = []
    while True:
        with Timer() as timer:
            workload.setup()
        setups.append(timer.seconds)
        if once or len(setups) >= most or (
                len(setups) >= fewest and sum(setups) >= SETUP_SECONDS):
            break
        workload.teardown()
    # What set-up left on the heap is the system's data *and* the harness's
    # copy of the inputs; a full collection that walks both would charge the
    # harness to every fourteenth query.
    gc.collect()
    gc.freeze()
    return setups


def driver_line(report: Report, section: str) -> Dict[str, Any]:
    """The driver's result object: exactly the contract's metric names.

    A per-layer metric the workload did not produce belongs to a layer the
    workload leaves idle (or to an engine that is no longer registered) and
    reads 0.  An end-to-end metric must always be produced.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in load_contract()[section]:
        name, unit = entry["name"], entry["unit"]
        if name in report.metrics:
            value, unit = report.metrics[name]
        elif section == "per_layer":
            value = 0.0
        else:
            raise KeyError(f"{report.workload} produced no {name}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": report.correct, "attempted": max(1, report.attempted),
            "failed": report.failed, "metrics": metrics}


def detail_of(reports: Dict[str, Report]) -> Dict[str, Any]:
    """Everything a run measured, including metrics outside the contract."""
    detail: Dict[str, Any] = {}
    for section, report in reports.items():
        detail[section] = {
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in report.metrics.items()},
            "attempted": report.attempted, "failed": report.failed,
            "correct": report.correct, "broken": report.broken,
            "notes": report.notes,
        }
    return detail


def print_metrics(report: Report) -> None:
    for name in sorted(report.metrics):
        value, unit = report.metrics[name]
        print(f"{report.workload:<13} {name:<44} {value:>14.4f} {unit}")
    for line in report.broken:
        print(f"{report.workload:<13} BROKEN CHECK  {line}")


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def driver_main(args: argparse.Namespace) -> int:
    """One run; on every way out, nothing this process started is left."""
    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)  # unwind through the finally
    try:
        reports = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, args.smoke)
    finally:
        stop_descendants()
    for report in reports.values():
        print_metrics(report)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail_of(reports)),
                                     encoding="utf-8")
    section = "per_layer" if args.trace == "1" else "end_to_end"
    sys.stdout.flush()
    print(json.dumps(driver_line(reports[section], section)))
    return 0


# -- python -m benchmarks.suite run -----------------------------------------------


def _runs_of(name: str, args: argparse.Namespace,
             seconds: float) -> List[Dict[str, Any]]:
    """Every repeat of one workload, each in a fresh process."""
    runs = []
    for repeat in range(args.repeat):
        detail_path = OUT_DIR / f"detail-{name}.json"
        command = [sys.executable, str(SUITE_DIR / "run.py"),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds),
                   "--trace", "both" if args.trace else "0",
                   "--detail", str(detail_path)]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, cwd=REPO_ROOT, text=True,
                                   env=child_env(), capture_output=True,
                                   timeout=900)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"{name} exited {completed.returncode}")
        if repeat == 0:
            sys.stdout.write(completed.stdout)
        runs.append(json.loads(detail_path.read_text(encoding="utf-8")))
        detail_path.unlink()
    return runs


def suite_run(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [args.workload] if args.workload else [
        entry["name"] for entry in contract["workloads"]]
    seconds = 1.0 if args.smoke else float(
        args.seconds or contract["run_seconds"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # Measuring runs have the machine to themselves; the smoke run only
    # checks that everything is emitted, so it may use both cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as executor:
        runs = list(executor.map(lambda name: _runs_of(name, args, seconds),
                                 names))
    result = {"fingerprint": fingerprint(), "seed": args.seed,
              "seconds": seconds, "smoke": args.smoke,
              "workloads": dict(zip(names, runs))}
    out = Path(args.out) if args.out else (
        OUT_DIR / f"run-{time.strftime('%Y%m%dT%H%M%S')}.json")
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    correct = all(section["correct"] for workload in runs for run in workload
                  for section in run.values())
    return 0 if correct else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command")
    run = commands.add_parser("run", help="run the workloads, print every "
                                          "metric, write a result file")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workload", choices=sorted(WORKLOADS))
    run.add_argument("--seconds", type=float,
                     help="timed window (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", action="store_true",
                     help="also run the traced window (per-layer metrics)")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload; compare reports their quartiles")
    run.add_argument("--smoke", action="store_true",
                     help="tiny scales and 1 s windows")
    run.add_argument("--out", help="result file (default: out/run-<time>.json)")
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("before")
    compare.add_argument("after")
    return parser


def build_driver_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/suite/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--detail", help="also write everything measured here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return suite_run(args)
    if args.command == "compare":
        return compare_module.main(args.before, args.after)
    build_parser().print_help()
    return 2
