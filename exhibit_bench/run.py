"""End-to-end and per-layer benchmark of the paper-exhibit sweeps.

Usage (from the repository root)::

    python3 exhibit_bench/run.py --workload fig3_static --seed 7 --seconds 30 --trace 0
    python3 exhibit_bench/run.py --workload all --trace 1     # every workload
    python3 exhibit_bench/selftest.py                         # tiny self-test

Each workload is a closed loop: one exhibit sweep at a time, each
repetition in a fresh Python process (the sweep engine memoizes traces per
process, so reusing one would skip trace synthesis).  Repetitions repeat
until ``--seconds`` is spent; every metric is the median over them.

``--trace 0`` reports the end-to-end metrics: ``sim_instr_per_s``
(every instruction of every spec's trace, warmup included, over
``wall_s``), ``wall_s`` (first spec handed to the sweep engine until the
exhibit table is printed), ``setup_s`` (process start until that handover:
interpreter start, ``import repro``, configs and spec list) and
``peak_rss_mb`` (the repetition's process or its largest pool worker).

``--trace 1`` alternates untraced and traced repetitions.  The traced one
wraps every simulator layer (see ``spans.py``) and reports the per-layer
metrics of ``layers.py`` and ``trace.overhead_pct``; it writes its spans to
``.exhibit_bench/spans/``.  Metrics a workload has nothing to measure for
(a gain of a scheme it does not run, bank prediction on the centralized
cache) print as ``n/a`` and are 0 in the JSON line.

Outputs are checked.  On the default seed every spec's digest of all its
``SimStats`` fields must equal ``expected.json``; on every seed each spec
must complete (commit its whole trace), every repetition must reproduce
the first one's digests, and traced digests must equal untraced ones.  A
spec that fails any check is a failed operation.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (with ``--workload all``, metric names are
prefixed by the workload's).
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

DEFAULT_SEED = 7
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: scratch space inside the checkout: result caches, temp files, span files
WORK_DIR = ".exhibit_bench"
#: a repetition that runs longer than this has hung
REP_TIMEOUT_S = 150

#: environment switches that change the work or its speed; cleared for
#: every repetition so the benchmark measures the same thing everywhere
CLEARED_ENV = (
    "REPRO_TRACE_SCALE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_SWEEP_BACKEND",
    "REPRO_JOBS",
    "REPRO_LANES",
    "REPRO_CACHE_DIR",
    "REPRO_FAULT_PLAN",
)

ALL_PROFILES = (
    "cjpeg", "crafty", "djpeg", "galgel", "gzip", "mgrid", "parser", "swim", "vpr",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload's inputs; why each exists is recorded in BENCHMARK.json."""

    name: str
    profiles: tuple
    #: instructions per trace
    length: int
    #: seeds per (profile, scheme); 0 = one shared seed (the exhibit runners)
    pool_seeds: int = 0


# Trace lengths trade seed spread against repetitions per run: at 4k the
# seed alone moved fig3_static's simulated cycles by ~13% (interquartile),
# at 8k by ~8%.  fig6_dynamic is a little shorter so that three repetitions
# fit a 36 s run on a 2-core x86_64 host.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Figure 3: serial backend, no result cache, 9 traces for 36 specs
        Workload("fig3_static", ALL_PROFILES, 8_000),
        # Figure 6's scheme set on the same machine and path
        Workload("fig6_dynamic", ALL_PROFILES, 7_000),
        # decentralized cache, process pool, cold result cache, 36 traces
        Workload(
            "seed_sweep_pool", ("djpeg", "galgel", "swim", "gzip", "parser", "vpr"),
            8_000, 2,
        ),
    )
}

END_TO_END = (
    ("sim_instr_per_s", "instr/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The program under test could not be measured."""


# ----------------------------------------------------------------------
# one repetition


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(root, WORK_DIR, "tmp")
    return env


def run_rep(root: str, workload: Workload, seed: int, trace: bool) -> dict:
    """Run one repetition in a fresh process; returns its measurements."""
    scratch = os.path.join(root, WORK_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    rep_dir = tempfile.mkdtemp(prefix="rep-", dir=scratch)
    try:
        cache_dir = os.path.join(rep_dir, "cache")
        params_path = os.path.join(rep_dir, "params.json")
        out_path = os.path.join(rep_dir, "out.json")
        with open(params_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": seed,
                    "profiles": list(workload.profiles),
                    "length": workload.length,
                    "pool_seeds": workload.pool_seeds,
                    "cache_dir": cache_dir,
                    "trace": trace,
                },
                fh,
            )
        t_spawn = time.monotonic()
        # own session, so a hung repetition is killed with its pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "exhibit.py"), params_path, out_path],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(
                    f"{workload.name} repetition exceeded {REP_TIMEOUT_S}s"
                ) from exc
            raise
        if proc.returncode != 0 or not os.path.exists(out_path):
            raise BenchError(
                f"{workload.name} repetition exited {proc.returncode}:\n" + stderr[-3000:]
            )
        with open(out_path, encoding="utf-8") as fh:
            rep = json.load(fh)
    finally:
        shutil.rmtree(rep_dir)
    rep["setup_s"] = rep["t_hand"] - t_spawn
    rep["wall_s"] = rep["t_done"] - rep["t_hand"]
    rep["sim_instr_per_s"] = rep["instructions"] / rep["wall_s"]
    rep["table"] = stdout
    rep["length"] = workload.length
    return rep


# ----------------------------------------------------------------------
# output checks


def check_specs(rows, expected: Optional[dict], reference: Optional[dict]) -> List[str]:
    """Failure messages for one repetition's spec rows (one per failed spec)."""
    ran = {row["id"] for row in rows}
    failures = [
        f"{spec}: missing from the sweep's results"
        for spec in sorted((set(expected or ()) | set(reference or ())) - ran)
    ]
    for row in rows:
        spec = row["id"]
        if row["status"] != "ok":
            failures.append(f"{spec}: {row['status']} {row['error']}")
        elif not row["complete"]:
            failures.append(f"{spec}: did not commit its whole trace")
        elif expected is not None and expected.get(spec) != row["digest"]:
            failures.append(f"{spec}: digest {row['digest']} != expected {expected.get(spec)}")
        elif reference is not None and reference.get(spec) != row["digest"]:
            failures.append(f"{spec}: digest {row['digest']} != first repetition's")
    return failures


def load_expected(workload: Workload, seed: int) -> Optional[dict]:
    """The stored digests when they apply (default seed, recorded size)."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        stored = json.load(fh).get(workload.name)
    if stored is None or stored["length"] != workload.length:
        raise BenchError(f"expected.json has no digests for {workload.name} at this size")
    return stored["digests"]


class Checker:
    """Counts operations (specs run) and failed ones across repetitions."""

    def __init__(self, expected: Optional[dict]) -> None:
        self.expected = expected
        self.reference: Optional[dict] = None
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, rows) -> None:
        if self.reference is None:
            self.reference = {r["id"]: r["digest"] for r in rows}
        self.attempted += len({r["id"] for r in rows} | set(self.reference))
        self.failures += check_specs(rows, self.expected, self.reference)


# ----------------------------------------------------------------------
# measurement loops


def repeat(seconds: float, fn) -> list:
    """Call ``fn`` until ``seconds`` are spent (at least once); never start
    a call that the previous call's duration says would overrun."""
    start = time.monotonic()
    out = []
    while True:
        t0 = time.monotonic()
        out.append(fn())
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return out


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_end_to_end(root, workload, seed, seconds, expected):
    checker = Checker(expected)

    def one():
        rep = run_rep(root, workload, seed, trace=False)
        checker.check(rep["specs"])
        return rep

    reps = repeat(seconds, one)
    print(reps[0]["table"].rstrip())
    print()
    rows = []
    metrics = {}
    for name, unit in END_TO_END:
        values = [rep[name] for rep in reps]
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        rows.append([name, fmt(median), unit, fmt(q1), fmt(q3)])
    print_table(
        f"{workload.name}: end-to-end, median of {len(reps)} repetitions (seed {seed})",
        ["metric", "median", "unit", "q1", "q3"], rows,
    )
    print("wall_s per repetition: " + ", ".join(fmt(rep["wall_s"]) for rep in reps))
    gains = reps[0]["gains"]
    for key, value in sorted(gains.items()):
        name = f"core.{key}_gain_pct"
        print(f"model outcome (simulated): {name} = {value:+.1f}%   paper {layers.PAPER[name]}")
    return checker, metrics


def _layer_aggregates(rep) -> dict:
    """Span totals feeding the layer metrics.  For the pool workload the
    simulation layers come from the in-process replay and the sweep-engine
    layers from the pool run itself."""
    phases = rep["trace"]["aggregates"]
    sweep = _phase_totals(phases.get("sweep", {}))
    if "replay" not in phases:
        return sweep
    replay = _phase_totals(phases["replay"])
    merged = {k: v for k, v in replay.items() if not k.startswith("experiments.")}
    merged.update({k: v for k, v in sweep.items() if k.startswith("experiments.")})
    return merged


def _phase_totals(per_spec) -> dict:
    out: dict = {}
    for per_name in per_spec.values():
        for name, (calls, total, self_s) in per_name.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
    return out


def measure_layers(root, workload, seed, seconds, expected):
    checker = Checker(expected)

    def one_pair():
        plain = run_rep(root, workload, seed, trace=False)
        checker.check(plain["specs"])
        traced = run_rep(root, workload, seed, trace=True)
        checker.check(traced["specs"])
        if "replay_specs" in traced:
            checker.check(traced["replay_specs"])
        return plain, traced

    pairs = repeat(seconds, one_pair)
    samples = []
    for _, traced in pairs:
        agg = _layer_aggregates(traced)
        samples.append(layers.compute(agg, traced["stats"], traced["sweep"], traced))
    values = {}
    for metric in layers.METRICS:
        got = [s[metric.name] for s in samples if s[metric.name] is not None]
        values[metric.name] = statistics.median(got) if got else None
    plain_wall = statistics.median(p["wall_s"] for p, _ in pairs)
    traced_wall = statistics.median(t["wall_s"] for _, t in pairs)
    values[layers.OVERHEAD.name] = (traced_wall / plain_wall - 1.0) * 100.0

    traced = pairs[-1][1]
    sim_wall = traced.get("replay_wall_s", traced_wall)
    rows = []
    previous = None
    for metric in layers.METRICS + [layers.OVERHEAD]:
        value = values[metric.name]
        wall = traced_wall if metric.name.startswith("experiments.") else sim_wall
        share = f"{100 * value / wall:.1f}%" if metric.unit == "s" and value else ""
        note = layers.moves(metric.name)
        note, previous = ("" if note == previous else note), note
        if metric.name in layers.PAPER:
            note = "; ".join(filter(None, (note, f"paper {layers.PAPER[metric.name]}")))
        rows.append([
            metric.name, "n/a" if value is None else fmt(value), metric.unit, share, note,
        ])
    print_table(
        f"{workload.name}: per-layer, traced, median of {len(pairs)} traced "
        f"repetitions (seed {seed}); share = of the traced wall_s "
        f"({fmt(traced_wall)} s"
        + (f"; simulation layers: in-process replay, {fmt(sim_wall)} s)"
           if "replay_wall_s" in traced else ")"),
        ["metric", "value", "unit", "share", "should move"], rows,
    )
    path = write_spans(root, workload, seed, [t for _, t in pairs])
    print(f"spans: {os.path.relpath(path, root)}")
    metrics = {
        m.name: {"value": 0.0 if values[m.name] is None else values[m.name], "unit": m.unit}
        for m in layers.METRICS + [layers.OVERHEAD]
    }
    return checker, metrics


def write_spans(root, workload, seed, traced_reps) -> str:
    directory = os.path.join(root, WORK_DIR, "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": workload.name, "seed": seed,
             "repetitions": [rep["trace"] for rep in traced_reps]},
            fh,
        )
    return path


def run_workload(root, workload, seed, seconds, trace, expected):
    """Measure one workload; prints its tables, returns (checker, metrics)."""
    measure = measure_layers if trace else measure_end_to_end
    checker, metrics = measure(root, workload, seed, seconds, expected)
    print(f"{workload.name}: failed/attempted operations = "
          f"{len(checker.failures)}/{checker.attempted}")
    for failure in checker.failures[:20]:
        print(f"  FAILED {failure}")
    return checker, metrics


# ----------------------------------------------------------------------
# output helpers


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(title, headers, rows) -> None:
    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    print(title)
    for row in [headers, ["-" * w for w in widths]] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    print()


def prepare(root: str) -> None:
    """Fail fast without the program; compile it once so no repetition
    pays for byte-compilation."""
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError("src/repro not found: run from the repository root")
    compileall.compile_dir(os.path.join(root, "src", "repro"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    cleared = [f"{n}={os.environ[n]}" for n in CLEARED_ENV if n in os.environ]
    print("environment cleared for every repetition: "
          + (", ".join(cleared) if cleared else f"none set (checked {', '.join(CLEARED_ENV)})"))


def write_expected(root: str, names: List[str]) -> None:
    """Record the default seed's digests (only after a deliberate model change)."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    for name in names:
        workload = WORKLOADS[name]
        rep = run_rep(root, workload, DEFAULT_SEED, trace=False)
        if check_specs(rep["specs"], None, None):
            raise BenchError(f"{name}: failed specs; not recording digests")
        stored[name] = {
            "length": workload.length,
            "digests": {r["id"]: r["digest"] for r in rep["specs"]},
        }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the default seed's digests in expected.json")
    args = parser.parse_args(argv)
    root = os.getcwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        prepare(root)
        if args.write_expected:
            write_expected(root, names)
            return 0
        attempted = failed = 0
        metrics = {}
        for name in names:
            workload = WORKLOADS[name]
            expected = load_expected(workload, args.seed)
            checker, got = run_workload(
                root, workload, args.seed, args.seconds, bool(args.trace), expected
            )
            attempted += checker.attempted
            failed += len(checker.failures)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
