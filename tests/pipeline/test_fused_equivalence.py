"""The fused cycle loop must be bit-identical to the staged ``step()`` loop.

Every production run goes through :class:`repro.pipeline.fused.FusedCore`,
a flattened transcription of ``ClusteredProcessor.step()`` that also skips
idle cycles.  The staged loop survives as the readable reference, and this
property holds the two together: for any topology, controller, wrong-path
setting, fault schedule, tracer, steering override, warmup and commit
bound, ``run()`` and ``run_trace`` must return the same statistics whether
their cycles come from the fused loop or from ``step()`` (swapped in by
:func:`tests.staged.staged_loop`).  Two draws aim at what the fused loop
adds: the fused run may sit under a far-future run deadline (the poll is
passive), and a *skip-focused* case takes long unchecked traces on a
starved decentralized machine, where dispatch blocks on steering and the
idle skip leaps furthest.

The 200-example sweep is ``slow`` (it runs in the CI slow job); a small
smoke sample rides in the fast tier.  The remaining tests pin the edges
the property draws from rarely, and check that production entry points
really take the fused loop.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import deadline
from repro.api import simulate
from repro.clusters.steering import ModNSteering
from repro.config import (
    decentralized_config,
    default_config,
    grid_config,
    torus_config,
)
from repro.core import ExploreConfig, NoExploreConfig
from repro.errors import SimulationError
from repro.experiments.runner import run_trace
from repro.experiments.sweep import ControllerSpec
from repro.observability import MemoryTracer
from repro.pipeline.fused import FusedCore
from repro.pipeline.processor import ClusteredProcessor
from repro.resilience import FaultEvent, FaultSchedule
from repro.workloads import generate_trace, get_profile
from repro.workloads.blocks import PhaseParams
from repro.workloads.generator import Profile

from ..staged import staged_loop

_CONFIGS = {
    "ring": default_config,
    "grid": grid_config,
    "torus": torus_config,
    "decentralized": decentralized_config,
}

_CONTROLLERS = {
    "none": ControllerSpec.none(),
    "static-2": ControllerSpec.static(2),
    "static-4": ControllerSpec.static(4),
    "static-8": ControllerSpec.static(8),
    "explore": ControllerSpec.explore(ExploreConfig.scaled(initial_interval=200)),
    "no-explore": ControllerSpec.no_explore(NoExploreConfig.scaled(interval_length=300)),
    "finegrain": ControllerSpec.finegrain(),
}

_FAULTS = {
    "none": None,
    "kill-restore": FaultSchedule((
        FaultEvent(cycle=300, kind="cluster_kill", cluster=3),
        FaultEvent(cycle=900, kind="cluster_restore", cluster=3),
    )),
    "link-degrade": FaultSchedule((
        FaultEvent(cycle=250, kind="link_degrade", src=1, dst=2, factor=4),
        FaultEvent(cycle=600, kind="fu_disable", cluster=2, unit="int_alu"),
    )),
}


def _trace(body, cross, frac_load, seed, length):
    phase = PhaseParams(
        name="f",
        body_size=body,
        cross_iter_dep=cross,
        frac_load=frac_load,
        frac_store=min(0.2, frac_load / 2),
        inner_branches=2,
        random_branch_frac=0.05,
    )
    return generate_trace(
        Profile(name="f", phases=(phase,), schedule="steady"), length, seed=seed
    )


def _config(topology, wrong_path, checked=True, starved=False):
    """``checked=False`` turns the sampled invariant checks off for this
    run.  They are on suite-wide (``REPRO_CHECK_INVARIANTS``), and every
    check point is an event the idle skip stops at, so only unchecked
    runs exercise the long skips production runs take.  ``starved``
    shrinks each cluster's issue queue, register file and LSQ slice, so
    steering saturates the active clusters and dispatch blocks often."""
    config = _CONFIGS[topology](16)
    if not checked:
        config = dataclasses.replace(config, check_invariants=False)
    if starved:
        config = dataclasses.replace(
            config,
            cluster=dataclasses.replace(
                config.cluster, issue_queue_size=4, regfile_size=8
            ),
            memory=dataclasses.replace(config.memory, lsq_size_per_cluster=3),
        )
    if wrong_path:
        config = dataclasses.replace(
            config,
            front_end=dataclasses.replace(config.front_end, model_wrong_path=True),
        )
    return config


def _mod_n(clusters):
    return ModNSteering(clusters, 3)


#: a run deadline no test run reaches
_FAR_FUTURE = 3_600.0


def _both(run, deadlined=False):
    """``run()`` once on the fused loop and once on the staged loop; the
    fused run sits under a far-future deadline when ``deadlined``."""
    with deadline.scope(_FAR_FUTURE if deadlined else None):
        fused = run()
    with staged_loop() as core:
        staged = run()
        assert core.steps > 0  # the staged loop really ran
    return fused, staged


def _check_run_trace(trace, config, controller, fault, traced, mod_n, warmup,
                     limit, deadlined=False):
    tracers = []

    def run():
        tracer = MemoryTracer(sample_period=97) if traced else None
        tracers.append(tracer)
        return run_trace(
            trace,
            config,
            _CONTROLLERS[controller].build(),
            warmup=warmup,
            steering=_mod_n if mod_n else None,
            max_instructions=limit,
            tracer=tracer,
            fault_schedule=_FAULTS[fault],
        )

    fused, staged = _both(run, deadlined)
    assert dataclasses.asdict(fused) == dataclasses.asdict(staged)
    if traced:
        assert tracers[0].events == tracers[1].events
    commit_width = config.front_end.commit_width
    bound = len(trace) if limit is None else min(limit, len(trace))
    assert bound <= fused.stats.committed < bound + commit_width


def _check_run(trace, config, controller, fault, limit, deadlined=False):
    def run():
        return ClusteredProcessor(
            trace,
            config,
            _CONTROLLERS[controller].build(),
            fault_schedule=_FAULTS[fault],
        ).run(limit)

    fused, staged = _both(run, deadlined)
    assert fused == staged  # SimStats is a dataclass: field-wise equality


_cases = given(
    profile=st.sampled_from(["synthetic", "gzip", "vpr", "parser", "swim"]),
    body=st.integers(min_value=4, max_value=40),
    cross=st.floats(min_value=0.0, max_value=0.9),
    frac_load=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=100_000),
    topology=st.sampled_from(sorted(_CONFIGS)),
    controller=st.sampled_from(sorted(_CONTROLLERS)),
    wrong_path=st.booleans(),
    checked=st.booleans(),
    fault=st.sampled_from(sorted(_FAULTS)),
    traced=st.booleans(),
    mod_n=st.booleans(),
    warmup=st.sampled_from([0, 300, 6_000]),
    limit=st.sampled_from([None, 555, 1_100, 5_000]),
    skip_focused=st.booleans(),
    deadlined=st.booleans(),
)


def _check(profile, body, cross, frac_load, seed, topology, controller,
           wrong_path, checked, fault, traced, mod_n, warmup, limit,
           skip_focused, deadlined):
    scale = 1
    if skip_focused:
        # the idle skip's proof obligations one by one: long unchecked
        # runs, decentralized memory, saturated steering
        scale, topology, checked = 4, "decentralized", False
    if profile == "synthetic":
        trace = _trace(body, cross, frac_load, seed, 1_500 * scale)
    else:
        trace = generate_trace(get_profile(profile), 2_500 * scale, seed=seed)
    config = _config(topology, wrong_path, checked, starved=skip_focused)
    _check_run_trace(
        trace, config, controller, fault, traced, mod_n, warmup, limit, deadlined
    )
    _check_run(trace, config, controller, fault, limit, deadlined)


class TestFusedEqualsStaged:
    @_cases
    @settings(max_examples=8, deadline=None)
    def test_smoke(self, **case):
        _check(**case)

    @pytest.mark.slow
    @_cases
    @settings(max_examples=200, deadline=None)
    def test_exhaustive(self, **case):
        _check(**case)


class TestEdges:
    @pytest.mark.parametrize("warmup", [0, 499, 500, 6_000])
    def test_warmup_boundary(self, warmup):
        """Warmup ends exactly where the staged loop would end it, across
        the clamp to ``len(trace) - 1000`` (500 on this trace)."""
        trace = generate_trace(get_profile("gzip"), 1_500, seed=7)
        _check_run_trace(
            trace, default_config(16), "static-8", "none", False, False, warmup, None
        )

    @pytest.mark.parametrize("limit", [1, 15, 16, 17, 999, 1_000])
    def test_max_instructions_overshoot(self, limit):
        """The commit bound overshoots by less than ``commit_width`` and by
        the same amount on both loops, with the warmup clamped to it."""
        trace = generate_trace(get_profile("vpr"), 1_200, seed=7)
        _check_run_trace(
            trace, grid_config(16), "explore", "none", False, False, 300, limit
        )
        _check_run(trace, grid_config(16), "explore", "none", limit)

    @pytest.mark.parametrize("topology", sorted(_CONFIGS))
    def test_mod_n_steering_override(self, topology):
        """A non-default heuristic takes the ordinary ``choose`` call."""
        trace = generate_trace(get_profile("parser"), 1_500, seed=3)
        _check_run_trace(
            trace, _config(topology, False), "none", "none", True, True, 300, None
        )

    def test_unminted_bank_prediction_is_not_skipped(self):
        """A decentralized load at the fetch head, blocked only by
        steering, mints its bank prediction on its first engaged cycle;
        the idle skip must not jump past that cycle and mint it later,
        against a predictor that commits have trained since."""
        trace = generate_trace(get_profile("vpr"), 3_000, seed=7030)
        config = _config("decentralized", False, checked=False)
        _check_run_trace(trace, config, "static-4", "none", False, False, 300, None)

    def test_naive_issue_rejected(self):
        """The fused loop transcribes the event-driven issue stage only;
        the naive oracle must be refused, not silently mis-run."""
        processor = ClusteredProcessor(
            generate_trace(get_profile("gzip"), 600, seed=7),
            default_config(16),
            None,
            naive_issue=True,
        )
        with pytest.raises(SimulationError, match="naive_issue"):
            FusedCore(processor)


class TestProductionPathsAreFused:
    """``simulate()`` and ``run_trace`` take the fused loop (every backend
    does too: see ``tests/experiments/test_backends.py``)."""

    @pytest.fixture
    def broken_core(self, monkeypatch):
        def refuse(self, target_committed, max_cycles=None):
            raise SimulationError("fused loop entered")

        monkeypatch.setattr(FusedCore, "advance", refuse)

    def test_simulate(self, broken_core):
        with pytest.raises(SimulationError, match="fused loop entered"):
            simulate("gzip", trace_length=1_200)

    def test_run_trace_warmup_and_measure(self, monkeypatch):
        calls = []
        advance = FusedCore.advance

        def spy(self, target_committed, max_cycles=None):
            calls.append(max_cycles is None)
            return advance(self, target_committed, max_cycles)

        monkeypatch.setattr(FusedCore, "advance", spy)
        trace = generate_trace(get_profile("gzip"), 1_500, seed=7)
        run_trace(trace, default_config(16), warmup=300)
        # guardless warmup leg, then run()'s guarded measure leg
        assert calls == [True, False]
