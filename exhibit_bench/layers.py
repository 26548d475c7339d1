"""Per-layer metrics of a traced run, and what each one should move.

Each metric is computed from one traced repetition: the span aggregates
(``[calls, total_s, self_s]`` per span name, see ``spans.py``), the
``SimStats`` counters summed over the workload's specs, and the sweep
engine's own ``SweepMetrics.snapshot()``.  Host times come from the traced
run and so include the wrappers' own cost; ``trace.overhead_pct`` says how
much that is.

``MOVES`` is the rationale the benchmark records for each layer: which
end-to-end metric the layer's numbers should move, on which workload, and
where they should stay flat.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: (aggregates, stats, sweep snapshot, rep) -> value, or None when
    #: the workload has nothing to measure for it
    compute: Callable


def _self(agg, prefix: str) -> float:
    return sum(row[2] for name, row in agg.items() if name.startswith(prefix))


def _calls(agg, prefix: str) -> int:
    return int(sum(row[0] for name, row in agg.items() if name.startswith(prefix)))


def _total(agg, name: str) -> float:
    return agg.get(name, [0, 0.0, 0.0])[1]


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def _gain(key: str):
    return lambda agg, st, sw, rep: rep["gains"].get(key)


METRICS: List[LayerMetric] = [
    # workloads: trace synthesis
    LayerMetric("workloads.generate_s", "s", "lower",
                lambda agg, st, sw, rep: _total(agg, "workloads.generate_trace")),
    LayerMetric("workloads.traces", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "workloads.")),
    LayerMetric("workloads.instrs_per_s", "instr/s", "higher",
                lambda agg, st, sw, rep: _ratio(
                    _calls(agg, "workloads.") * rep["length"],
                    _total(agg, "workloads.generate_trace"))),
    # experiments: the sweep engine and the exhibit table
    LayerMetric("experiments.dispatch_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "experiments.runner")),
    LayerMetric("experiments.cache_put_s", "s", "lower",
                lambda agg, st, sw, rep: _total(agg, "experiments.cache_put")),
    LayerMetric("experiments.cache_puts", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "experiments.cache_put")),
    LayerMetric("experiments.queue_wait_s", "s", "lower",
                lambda agg, st, sw, rep: sum(t["queue_seconds"] for t in sw["specs"])),
    LayerMetric("experiments.worker_busy_ratio", "ratio", "higher",
                lambda agg, st, sw, rep: sw["worker_utilization"]),
    LayerMetric("experiments.report_s", "s", "lower",
                lambda agg, st, sw, rep: _total(agg, "experiments.report")),
    # pipeline: the cycle loop itself, minus every wrapped child layer
    LayerMetric("pipeline.self_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "pipeline.run_trace")),
    LayerMetric("pipeline.cycles", "count", "lower",
                lambda agg, st, sw, rep: st["cycles"]),
    LayerMetric("pipeline.instrs", "count", "higher",
                lambda agg, st, sw, rep: st["committed"]),
    LayerMetric("pipeline.ns_per_cycle", "ns/cycle", "lower",
                lambda agg, st, sw, rep: 1e9 * _ratio(
                    _self(agg, "pipeline.run_trace"), st["cycles"])),
    LayerMetric("pipeline.cycles_per_s", "cycles/s", "higher",
                lambda agg, st, sw, rep: _ratio(
                    st["cycles"], _total(agg, "pipeline.run_trace"))),
    # frontend: fetch and branch prediction
    LayerMetric("frontend.fetch_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "frontend.")),
    LayerMetric("frontend.fetch_calls", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "frontend.")),
    LayerMetric("frontend.branches", "count", "lower",
                lambda agg, st, sw, rep: st["branches"]),
    LayerMetric("frontend.mispredict_ratio", "ratio", "lower",
                lambda agg, st, sw, rep: _ratio(st["mispredicts"], st["branches"])),
    # clusters: steering
    LayerMetric("clusters.steer_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "clusters.")),
    LayerMetric("clusters.steer_calls", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "clusters.")),
    LayerMetric("clusters.avg_active", "clusters", "lower",
                lambda agg, st, sw, rep: _ratio(
                    st["cluster_cycle_product"], st["cycles"])),
    # interconnect: register and memory transfers
    LayerMetric("interconnect.transfer_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "interconnect.")),
    LayerMetric("interconnect.transfer_calls", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "interconnect.")),
    LayerMetric("interconnect.register_transfers", "count", "lower",
                lambda agg, st, sw, rep: st["register_transfers"]),
    LayerMetric("interconnect.memory_transfers", "count", "lower",
                lambda agg, st, sw, rep: st["memory_transfers"]),
    LayerMetric("interconnect.avg_transfer_cycles", "cycles", "lower",
                lambda agg, st, sw, rep: _ratio(
                    st["register_transfer_cycles"] + st["memory_transfer_cycles"],
                    st["register_transfers"] + st["memory_transfers"])),
    # memory: cache, LSQ and (decentralized) banks
    LayerMetric("memory.s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "memory.")),
    LayerMetric("memory.calls", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "memory.")),
    LayerMetric("memory.l1_hit_ratio", "ratio", "higher",
                lambda agg, st, sw, rep: _ratio(
                    st["l1_hits"], st["l1_hits"] + st["l1_misses"])),
    LayerMetric("memory.bank_conflict_cycles", "cycles", "lower",
                lambda agg, st, sw, rep: st["bank_conflict_cycles"]),
    LayerMetric("memory.store_broadcasts", "count", "lower",
                lambda agg, st, sw, rep: st["store_broadcasts"]),
    LayerMetric("memory.bank_pred_accuracy", "ratio", "higher",
                lambda agg, st, sw, rep: _ratio(
                    st["bank_predictions"] - st["bank_mispredictions"],
                    st["bank_predictions"], empty=None)),
    LayerMetric("memory.flush_writebacks", "count", "lower",
                lambda agg, st, sw, rep: st["flush_writebacks"]),
    # core: the reconfiguration controllers
    LayerMetric("core.hook_s", "s", "lower",
                lambda agg, st, sw, rep: _self(agg, "core.")),
    LayerMetric("core.hook_calls", "count", "lower",
                lambda agg, st, sw, rep: _calls(agg, "core.")),
    LayerMetric("core.reconfigurations", "count", "lower",
                lambda agg, st, sw, rep: st["reconfigurations"]),
    LayerMetric("core.flush_stall_cycles", "cycles", "lower",
                lambda agg, st, sw, rep: st["flush_stall_cycles"]),
    # model outcome (simulated, exact): gain over the best static base
    LayerMetric("core.explore_gain_pct", "%", "higher", _gain("explore")),
    LayerMetric("core.finegrain_gain_pct", "%", "higher", _gain("finegrain")),
    LayerMetric("core.decentral_gain_pct", "%", "higher", _gain("decentral")),
]

#: layer -> (end-to-end metric it should move, on which workload, flat on)
MOVES: Dict[str, str] = {
    "workloads": "wall_s on seed_sweep_pool; flat on fig3_static "
                 "(9 traces serve 36 specs)",
    "experiments": "wall_s on seed_sweep_pool; ~0 on fig3_static and fig6_dynamic",
    "pipeline": "sim_instr_per_s on fig3_static (its largest share), "
                "fig6_dynamic and seed_sweep_pool",
    "frontend": "sim_instr_per_s on fig3_static (branchy integer profiles)",
    "clusters": "sim_instr_per_s on fig3_static",
    "interconnect": "sim_instr_per_s on fig3_static (traffic grows with "
                    "cluster count)",
    "memory": "sim_instr_per_s on seed_sweep_pool (decentralized) or "
              "fig3_static (centralized); flat on the other organization",
    "core": "sim_instr_per_s on fig6_dynamic; flat on fig3_static",
    "model": "simulated and exact: no host-time change may move these; "
             "unvalidated against hardware (the paper's simulator is the "
             "only reference)",
    "trace": "traced wall_s vs untraced wall_s",
}

#: the paper's own figure beside each model-outcome metric
PAPER = {
    "core.explore_gain_pct": "+11 (interval-explore, Figure 6 / Section 4)",
    "core.finegrain_gain_pct": "+15 (fine-grained branch, Figure 6)",
    "core.decentral_gain_pct": "+10 (interval-explore, decentralized, Figure 7; "
                               "here each scheme runs on its own seeds)",
}

#: the tracing overhead metric (computed across a pair of repetitions)
OVERHEAD = LayerMetric("trace.overhead_pct", "%", "lower", None)


def moves(metric: str) -> str:
    if metric in PAPER:
        return MOVES["model"]
    return MOVES[metric.split(".")[0]]


def compute(agg, stats, snapshot, rep) -> Dict[str, object]:
    """Every per-layer metric of one traced repetition (None = n/a)."""
    return {m.name: m.compute(agg, stats, snapshot, rep) for m in METRICS}
