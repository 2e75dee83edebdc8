"""Names, units and expectations of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test (``test_perfbench.py``) keeps the two in step.
"""

from __future__ import annotations

TABLE1, MATRIX, FUZZ = "dlx-table1", "dlx-matrix", "dlx-fuzz"
WORKLOADS = (TABLE1, MATRIX, FUZZ)

#: (name, unit, better, bound).  Measured with tracing off.
END_TO_END = (
    # Errors decided (TG'd or dropped, or classified) per wall second on
    # dlx-table1 and dlx-matrix; fuzz programs co-simulated per wall second
    # on dlx-fuzz.  One name, so that every run reports every metric.
    ("ops_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Human-readable name of ``ops_per_s`` per workload.
OPS_ALIAS = {
    TABLE1: "errors_per_s",
    MATRIX: "errors_per_s",
    FUZZ: "programs_per_s",
}

#: (name, unit, workloads it does most work on).  Measured by the traced
#: run.  A count or a time of a layer must be nonzero on the workloads
#: named here (the zero-counter guard); ratios and exact outputs are not
#: guarded.  Times are inclusive of nested calls, except ``tg.generate_s``
#: (self time).
PER_LAYER = (
    ("ctrljust.justify_s", "s", (TABLE1,)),
    ("ctrljust.calls", "count", (TABLE1,)),
    ("ctrljust.backtracks", "count", (TABLE1,)),
    ("ctrljust.success_ratio", "ratio", ()),
    ("ctrljust.refuted", "count", (TABLE1,)),
    ("clauses.refute_s", "s", (TABLE1,)),
    ("clauses.hit_ratio", "ratio", ()),
    ("nogoods.hit_ratio", "ratio", ()),
    ("nogoods.justify_memo_hits", "count", (TABLE1,)),
    ("dptrace.select_s", "s", (TABLE1,)),
    ("dptrace.calls", "count", (TABLE1,)),
    ("dptrace.backtracks", "count", (TABLE1,)),
    ("dptrace.path_cache_hit_ratio", "ratio", ()),
    ("dptrace.sweeps_avoided", "count", (TABLE1,)),
    ("tg.generate_s", "s", (TABLE1,)),
    ("tg.generate_calls", "count", (TABLE1,)),
    ("tg.attempts", "count", (TABLE1,)),
    ("tg.detect_ratio", "ratio", ()),
    ("dprelax.relax_s", "s", (TABLE1,)),
    ("dprelax.calls", "count", (TABLE1,)),
    ("dprelax.converged_ratio", "ratio", ()),
    ("cosim.golden_s", "s", (TABLE1,)),
    ("cosim.golden_hit_ratio", "ratio", ()),
    ("cosim.run_s", "s", (TABLE1,)),
    ("cosim.runs", "count", (TABLE1,)),
    ("campaign.drop_s", "s", (TABLE1,)),
    ("campaign.dropped", "count", (TABLE1,)),
    ("campaign.realize_s", "s", (TABLE1,)),
    ("campaign.isa_check_s", "s", (TABLE1,)),
    ("campaign.detected", "count", ()),
    ("campaign.avg_test_len", "instructions", ()),
    ("campaign.deadline_hits", "count", ()),
    ("faultsim.fork_s", "s", (MATRIX,)),
    ("faultsim.forks", "count", (MATRIX,)),
    ("faultsim.decided_ratio", "ratio", ()),
    ("env.run_s", "s", (MATRIX,)),
    ("env.runs", "count", (MATRIX,)),
    ("env.batch_detects_s", "s", (MATRIX,)),
    ("controller.evaluate_s", "s", (FUZZ, MATRIX)),
    ("controller.evaluate_calls", "count", (FUZZ, MATRIX)),
    ("lanes.run_s", "s", (FUZZ,)),
    ("lanes.batch_calls", "count", (FUZZ,)),
    ("lanes.fill_rate", "ratio", ()),
    ("fuzz.spec_s", "s", (FUZZ,)),
    ("fuzz.coverage_s", "s", (FUZZ,)),
    ("fuzz.divergences", "count", ()),
    ("conformance.reach_s", "s", (MATRIX,)),
    ("conformance.golden_s", "s", (MATRIX,)),
    ("conformance.detected", "count", ()),
    ("conformance.proven_benign", "count", ()),
    ("setup.build_s", "s", WORKLOADS),
    ("setup.compile_s", "s", WORKLOADS),
    # Only TG builds path analyzers and unrolled controllers.
    ("setup.analyzer_s", "s", (TABLE1,)),
    ("setup.unroll_s", "s", (TABLE1,)),
    ("trace.overhead_pct", "%", ()),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, batch_counters: dict, outputs: dict) -> dict:
    """Every per-layer metric from one traced pass.

    ``batch_counters`` is the batched-kernel counter delta over the pass;
    ``outputs`` holds the exact outputs of the pass's first unit.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    questions = (counts["tg.clause_hits"] + counts["tg.justify_memo_hits"]
                 + counts["ctrljust.calls"])
    lane_cycles = batch_counters.get("lane_cycles", 0)
    return {
        "ctrljust.justify_s": total("ctrljust.justify"),
        "ctrljust.calls": counts["ctrljust.calls"],
        "ctrljust.backtracks": counts["ctrljust.backtracks"],
        "ctrljust.success_ratio": _ratio(counts["ctrljust.success"],
                                         counts["ctrljust.calls"]),
        "ctrljust.refuted": counts["ctrljust.refuted"],
        "clauses.refute_s": total("clauses.refute"),
        "clauses.hit_ratio": _ratio(counts["tg.clause_hits"], questions),
        "nogoods.hit_ratio": _ratio(
            counts["tg.nogood_hits"],
            counts["tg.nogood_hits"] + counts["tg.nogood_misses"]),
        "nogoods.justify_memo_hits": counts["tg.justify_memo_hits"],
        "dptrace.select_s": total("dptrace.select"),
        "dptrace.calls": counts["dptrace.calls"],
        "dptrace.backtracks": counts["dptrace.backtracks"],
        "dptrace.path_cache_hit_ratio": _ratio(
            counts["tg.path_cache_hits"],
            counts["tg.path_cache_hits"] + counts["tg.path_cache_misses"]),
        "dptrace.sweeps_avoided": counts["tg.sweeps_avoided"],
        "tg.generate_s": totals.get("tg.generate", {}).get("self", 0.0),
        "tg.generate_calls": counts["tg.generate_calls"],
        "tg.attempts": counts["tg.attempts"],
        "tg.detect_ratio": _ratio(counts["tg.detected"],
                                  counts["tg.generate_calls"]),
        "dprelax.relax_s": total("dprelax.relax"),
        "dprelax.calls": counts["dprelax.calls"],
        "dprelax.converged_ratio": _ratio(counts["dprelax.converged"],
                                          counts["dprelax.calls"]),
        "cosim.golden_s": total("cosim.golden"),
        "cosim.golden_hit_ratio": _ratio(
            counts["tg.golden_hits"],
            counts["tg.golden_hits"] + counts["tg.golden_misses"]),
        "cosim.run_s": total("cosim.run"),
        "cosim.runs": calls("cosim.run"),
        "campaign.drop_s": total("campaign.drop"),
        "campaign.dropped": outputs.get("dropped", 0),
        "campaign.realize_s": total("campaign.realize"),
        # The ISA check is a ``detects`` call of its own; the ones inside
        # ``batch_detects`` are fault-simulation fallbacks.
        "campaign.isa_check_s": tracer.total_where(
            "env.detects", lambda parent: parent != "env.batch_detects"),
        "campaign.detected": outputs.get("campaign_detected", 0),
        "campaign.avg_test_len": outputs.get("avg_test_len", 0.0),
        "campaign.deadline_hits": outputs.get("deadline_hits", 0),
        "faultsim.fork_s": total("faultsim.fork"),
        "faultsim.forks": counts["faultsim.forks"],
        "faultsim.decided_ratio": _ratio(counts["faultsim.clean"],
                                         counts["faultsim.forks"]),
        "env.run_s": total("env.run"),
        "env.runs": calls("env.run"),
        "env.batch_detects_s": total("env.batch_detects"),
        "controller.evaluate_s": total("controller.evaluate"),
        "controller.evaluate_calls": calls("controller.evaluate"),
        "lanes.run_s": total("lanes.run"),
        "lanes.batch_calls": batch_counters.get("batch_calls", 0),
        "lanes.fill_rate": _ratio(batch_counters.get("active_lane_cycles", 0),
                                  lane_cycles),
        "fuzz.spec_s": total("spec.run"),
        "fuzz.coverage_s": total("fuzz.coverage"),
        "fuzz.divergences": outputs.get("divergences", 0),
        "conformance.reach_s": total("conformance.reach"),
        "conformance.golden_s": tracer.under("lanes.run",
                                             "conformance.matrix"),
        "conformance.detected": outputs.get("matrix_detected", 0),
        "conformance.proven_benign": outputs.get("proven_benign", 0),
        "setup.build_s": total("setup.build"),
        "setup.compile_s": total("setup.compile"),
        "setup.analyzer_s": total("setup.analyzer"),
        "setup.unroll_s": total("setup.unroll"),
    }


def zero_guard(workload: str, values: dict) -> list[str]:
    """Names of guarded per-layer counts and times that read zero."""
    return [
        name for name, unit, most in PER_LAYER
        if workload in most and unit in ("count", "s") and not values[name]
    ]


def phase_cross_check(tracer) -> dict[str, tuple[float, float]]:
    """Per TG phase: (outside-measured span seconds, the program's own
    ``TGResult.phase_seconds``).

    Both sides count the blame probes' ``CtrlJust.justify`` calls in
    ``ctrljust``.  Exposure is the golden trace, cone fork and bad-machine
    co-simulation called directly from ``TestGenerator.generate``.
    """
    def top(name: str) -> float:
        return tracer.total_where(name,
                                  lambda parent: parent == "tg.generate")

    totals = tracer.totals()
    counts = tracer.counts
    return {
        "ctrljust": (totals.get("ctrljust.justify", {}).get("total", 0.0),
                     counts["phase.ctrljust"]),
        "dptrace": (totals.get("dptrace.select", {}).get("total", 0.0),
                    counts["phase.dptrace"]),
        "dprelax": (totals.get("dprelax.relax", {}).get("total", 0.0),
                    counts["phase.dprelax"]),
        "exposure": (top("cosim.golden") + top("faultsim.fork")
                     + top("cosim.run"), counts["phase.cosim"]),
    }
