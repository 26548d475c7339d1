"""One repetition of one benchmark workload, in a fresh process.

Run by ``run.py``; not meant to be started by hand.  Usage::

    python3 exhibit_bench/exhibit.py PARAMS_JSON OUT_JSON

``PARAMS_JSON`` names the workload, its seed and size, the result-cache
directory and whether to trace.  The process imports ``repro``, builds the
workload's specs, hands them to the sweep engine, prints the exhibit table
to stdout, and writes timings, per-spec digests, summed statistics and
(when tracing) the recorded spans to ``OUT_JSON``.

A fresh process per repetition matters: the sweep engine memoizes traces
per process, so a second repetition in the same process would skip trace
synthesis.
"""

import contextlib
import dataclasses
import hashlib
import json
import resource
import sys
import time

#: schemes whose gain over the best static base is a model outcome:
#: metric key -> (workload, scheme label)
GAIN_SCHEMES = {
    "explore": ("fig6_dynamic", "interval-explore"),
    "finegrain": ("fig6_dynamic", "finegrain-branch"),
    "decentral": ("seed_sweep_pool", "explore"),
}

BASE_SCHEMES = ("static-4", "static-16")


def _schemes(name):
    from repro.experiments.sweep import ControllerSpec

    if name == "fig3_static":
        return {f"static-{n}": ControllerSpec.static(n) for n in (2, 4, 8, 16)}
    # Figure 6's scheme set
    return {
        "static-4": ControllerSpec.static(4),
        "static-16": ControllerSpec.static(16),
        "interval-explore": ControllerSpec.explore(),
        "finegrain-branch": ControllerSpec.finegrain(),
        "finegrain-subroutine": ControllerSpec.subroutine(),
    }


def pool_specs(params):
    """{static-4, static-16, explore} x profiles x derived seeds, each spec
    on its own trace (its own seed), on the decentralized-cache machine."""
    from repro.api import SimSpec
    from repro.config import decentralized_config
    from repro.experiments.runner import DEFAULT_WARMUP

    config = decentralized_config(16)
    specs = []
    serial = 0
    for profile in params["profiles"]:
        for _ in range(params["pool_seeds"]):
            for scheme in ("static-4", "static-16", "explore"):
                seed = params["seed"] * 1000 + serial
                serial += 1
                specs.append(
                    SimSpec(
                        workload=profile,
                        seed=seed,
                        processor=config,
                        reconfig_policy=scheme,
                        trace_length=params["length"],
                        warmup=DEFAULT_WARMUP,
                        label=f"{scheme}@{seed}",
                    )
                )
    return specs


def digest(result) -> str:
    """Digest of every SimStats field plus the steady-state result."""
    stats = dataclasses.astuple(result.stats)
    steady = (result.ipc, result.committed, result.cycles, result.reconfigurations)
    return hashlib.sha256(repr((stats, steady)).encode()).hexdigest()[:20]


def gain_pct(view, scheme):
    """Gain of ``scheme`` over the best static base, as the exhibit
    tables compute it: geomean IPCs, best base chosen by geomean."""
    from repro.experiments.reporting import geomean

    gm = {s: geomean(by[s] for by in view.values()) for s in BASE_SCHEMES + (scheme,)}
    best = max(gm[s] for s in BASE_SCHEMES)
    return (gm[scheme] / best - 1.0) * 100.0


def _outcome_rows(outcomes, length):
    """Per-spec rows from (id, status, error, result) outcomes."""
    return [
        {
            "id": spec_id,
            "status": status,
            "error": error,
            "digest": digest(result) if result is not None else None,
            "complete": result is not None and result.stats.committed == length,
        }
        for spec_id, status, error, result in outcomes
    ]


def _record_outcomes(records):
    return [
        (f"{r.spec.profile}/{r.spec.label}", r.status, r.error, r.result if r.ok else None)
        for r in records
    ]


def _run(params, recorder):
    """Hand the specs to the sweep engine and print the exhibit table.

    Returns (handover time, done time, outcomes, ipc view, sweep metrics).
    """
    from repro.errors import SweepError

    workload = params["workload"]
    length = params["length"]
    if workload == "seed_sweep_pool":
        from repro.api import sweep
        from repro.experiments.reporting import geomean, ipc_table

        specs = pool_specs(params)
        t_hand = time.monotonic()
        outcome = sweep(
            specs, backend="process-pool", jobs=2, cache=True,
            cache_dir=params["cache_dir"],
        )
        ipcs = {}
        for record in outcome.records:
            if record.ok:
                scheme = record.spec.label.split("@")[0]
                ipcs.setdefault(record.spec.profile, {}).setdefault(scheme, []).append(
                    record.result.ipc
                )
        view = {p: {s: geomean(v) for s, v in by.items()} for p, by in ipcs.items()}
        with _maybe_span(recorder, "experiments.report"):
            print(ipc_table(
                view, ["static-4", "static-16", "explore"],
                "Seed sweep: decentralized cache, one trace per spec "
                "(geomean IPC over seeds)",
                baseline_schemes=BASE_SCHEMES,
            ))
            sys.stdout.flush()
        outcomes = _record_outcomes(outcome.records)
        return t_hand, time.monotonic(), outcomes, view, outcome.metrics

    from repro.config import default_config
    from repro.experiments import figures
    from repro.experiments.sweep import SweepConfig, SweepRunner

    schemes = _schemes(workload)
    runner = SweepRunner(SweepConfig(backend="serial", use_cache=False))
    report = figures.print_figure3 if workload == "fig3_static" else figures.print_figure6
    t_hand = time.monotonic()
    try:
        results = figures.run_matrix(
            schemes, lambda s: default_config(16), params["profiles"], length,
            seed=params["seed"], runner=runner,
        )
    except SweepError as exc:
        return t_hand, time.monotonic(), _record_outcomes(exc.records), {}, runner.metrics
    with _maybe_span(recorder, "experiments.report"):
        print(report(results))
        sys.stdout.flush()
    t_done = time.monotonic()
    view = {b: {s: r.ipc for s, r in by.items()} for b, by in results.items()}
    outcomes = [
        (f"{bench}/{scheme}", "ok", "", results[bench][scheme])
        for bench in params["profiles"]
        for scheme in schemes
    ]
    return t_hand, t_done, outcomes, view, runner.metrics


def _maybe_span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _merged_stats(outcomes):
    from repro.stats import SimStats

    merged = SimStats.merged(o[3].stats for o in outcomes if o[3] is not None)
    return dataclasses.asdict(merged)


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        params = json.load(fh)
    recorder = None
    if params["trace"]:
        from spans import SpanRecorder, install_simulation_spans, install_sweep_spans

        recorder = SpanRecorder()
        install_sweep_spans(recorder)
        if params["workload"] != "seed_sweep_pool":
            install_simulation_spans(recorder)

    t_hand, t_done, outcomes, view, metrics = _run(params, recorder)
    out = {
        "t_hand": t_hand,
        "t_done": t_done,
        "instructions": params["length"] * len(outcomes),
        "peak_rss_mb": _peak_rss_mb(),
        "specs": _outcome_rows(outcomes, params["length"]),
        "stats": _merged_stats(outcomes),
        "gains": {
            key: gain_pct(view, scheme)
            for key, (workload, scheme) in GAIN_SCHEMES.items()
            if workload == params["workload"] and view
        },
        "sweep": metrics.snapshot(),
    }
    if recorder is not None:
        if params["workload"] == "seed_sweep_pool":
            # the pool hid the simulation layers in its workers: replay the
            # same specs in this process with every layer wrapped
            from repro.api import sweep

            install_simulation_spans(recorder)
            recorder.set_phase("replay")
            t0 = time.monotonic()
            replay = sweep(pool_specs(params), backend="serial", cache=False)
            out["replay_wall_s"] = time.monotonic() - t0
            replayed = _record_outcomes(replay.records)
            out["replay_specs"] = _outcome_rows(replayed, params["length"])
            out["stats"] = _merged_stats(replayed)
        out["trace"] = recorder.export()
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
