"""Self-test of the benchmark at a tiny size (under a minute).

Usage (from the repository root)::

    python3 exhibit_bench/selftest.py

Checks, for every workload shrunk to two profiles and short traces:

* ``BENCHMARK.json`` names exactly the workloads ``run.py`` runs;
* the JSON line carries every metric ``BENCHMARK.json`` names, with its
  unit, for ``--trace 0`` and ``--trace 1``, and the tables print them;
* a planted wrong expectation digest is reported as one failed operation;
* no repetition's result cache or temp directory survives the run;
* without the program (only ``BENCHMARK.json`` and this directory) the
  benchmark exits non-zero and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = {
    name: dataclasses.replace(
        workload, profiles=("gzip", "swim"), length=1_500,
        pool_seeds=1 if workload.pool_seeds else 0,
    )
    for name, workload in run.WORKLOADS.items()
}
SEED = 3


def _capture(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = fn(*args)
    return result, out.getvalue()


def _check(ok: bool, message: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        problems.append(message)


def check_metrics(root: str, spec_key: str, trace: int, problems: list) -> None:
    """Run ``main`` on the tiny workloads; every named metric must appear."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)[spec_key]}
    for name in TINY:
        code, text = _capture(run.main, [
            "--workload", name, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace),
        ])
        result = json.loads(text.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        _check(code == 0 and result["correct"] and result["failed"] == 0,
               f"{name} --trace {trace}: exit 0, correct, 0 failed", problems)
        _check(got == wanted, f"{name} --trace {trace}: JSON has exactly the "
               f"{spec_key} metrics with their units", problems)
        printed = [
            m for m, unit in wanted.items()
            if not any(m in line and f" {unit}" in line for line in text.splitlines()[:-1])
        ]
        _check(not printed, f"{name} --trace {trace}: table prints every metric "
               f"with its unit {printed or ''}", problems)


def check_planted_digest(root: str, problems: list) -> None:
    for name, workload in TINY.items():
        (checker, _), _ = _capture(run.run_workload, root, workload, SEED, 0, False, None)
        planted = dict(checker.reference)
        victim = sorted(planted)[0]
        planted[victim] = "0" * 20
        (checker, _), text = _capture(
            run.run_workload, root, workload, SEED, 0, False, planted
        )
        _check(
            len(checker.failures) == 1 and victim in checker.failures[0]
            and f"failed/attempted operations = 1/{checker.attempted}" in text,
            f"{name}: a planted wrong digest is one failed operation", problems,
        )


def check_without_program(root: str, problems: list) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, run.WORK_DIR))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "exhibit_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "exhibit_bench/run.py", "--workload", "fig3_static",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    _check(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program: non-zero exit and no result", problems)


def main() -> int:
    root = os.getcwd()
    problems: list = []
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        named = [w["name"] for w in json.load(fh)["workloads"]]
    _check(named == list(run.WORKLOADS), "BENCHMARK.json names the workloads run.py runs",
           problems)
    run.WORKLOADS = TINY
    os.makedirs(os.path.join(root, run.WORK_DIR), exist_ok=True)
    check_metrics(root, "end_to_end", 0, problems)
    check_metrics(root, "per_layer", 1, problems)
    check_planted_digest(root, problems)
    leftovers = os.listdir(os.path.join(root, run.WORK_DIR, "tmp"))
    _check(not leftovers, f"no repetition directory or result cache left {leftovers or ''}",
           problems)
    check_without_program(root, problems)
    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
