"""Per-layer timing from the benchmark's side of each call.

The tracer replaces public trailkit functions by timing wrappers in the
modules that call them (``cli``, ``giant``, ``sgraph``, and ``linalg`` for
the LP).  Spans nest through a stack: a span's self time is its duration
minus the durations of the wrapped spans opened inside it.  The wrappers
only time and count, so a traced run must compute the same reports; the
benchmark checks that their digests match the untraced ones.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from trailkit import (bj_crystal, cli, giant, linalg, rep_builder, sgraph,
                      sl2_engine, trails)


class Tracer:
    """Accumulates inclusive time per span name and self time per layer."""

    def __init__(self):
        self._open: list[float] = []    # wrapped-child time of open spans
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, layer: str, fn, on_result=None):
        """A wrapper of ``fn`` that records a span; ``on_result(tracer,
        result)`` may add counts once the span is closed."""

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.raised[name, type(e).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.inclusive[name] += elapsed
                self.self_time[layer] += elapsed - children
                self.calls[name] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return traced


def _count_build(tracer: Tracer, module) -> None:
    # Batches run one call at a time, so a miss during this call raises the
    # cache's miss total above the builds counted so far.
    misses = rep_builder.build_fundamental.cache_info().misses
    if misses > tracer.counts["builds"]:
        tracer.counts["builds"] = misses
        tracer.counts["dim_built"] += module.dim


def _count_envelope(tracer: Tracer, env) -> None:
    tracer.counts["step_blocks"] += sum(len(L.blocks) for L in env.layers)
    tracer.counts["global_blocks"] += len(env.global_blocks)
    tracer.counts["discarded"] += sum(len(L.discarded) for L in env.layers)


def _counter(name: str, measure=len):
    def on_result(tracer: Tracer, result) -> None:
        tracer.counts[name] += measure(result)
    return on_result


def install(tracer: Tracer) -> None:
    """Put the wrappers in place for the rest of the process."""
    spans = [
        ("build_fundamental", "rep_builder", rep_builder.build_fundamental,
         _count_build, (cli,)),
        ("in_convex_hull", "linalg", linalg.in_convex_hull,
         _counter("lp_inside", int), (linalg,)),
        ("enumerate_trails", "trails", trails.enumerate_trails,
         _counter("trails_found"), (cli, giant)),
        ("group_ts_classes", "trails", trails.group_ts_classes,
         None, (cli, giant)),
        ("construct_envelope", "giant", giant.construct_envelope,
         _count_envelope, (cli, giant)),
        ("check_constructibility", "giant", giant.check_constructibility,
         None, (cli,)),
        ("extremality_report", "giant", giant.extremality_report,
         None, (cli,)),
        ("epsilon_star", "giant", giant.epsilon_star, None, (cli,)),
        ("binary_fusion", "sgraph", sgraph.binary_fusion, None, (cli, giant)),
        ("integer_points", "sgraph", sgraph.integer_points,
         _counter("points"), (cli, giant, sgraph)),
        ("extremal_functions", "sgraph", sgraph.extremal_functions,
         None, (cli,)),
        ("generate_binf", "bj_crystal", bj_crystal.generate_binf,
         _counter("elements"), (cli,)),
        ("coefficient_A", "sl2_engine", sl2_engine.coefficient_A,
         None, (cli,)),
        ("coefficient_A_oracle", "sl2_engine",
         sl2_engine.coefficient_A_oracle, None, (cli,)),
    ]
    for name, layer, fn, on_result, callers in spans:
        wrapped = tracer.wrap(name, layer, fn, on_result)
        for module in callers:
            setattr(module, name, wrapped)


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """The per-layer figures of one traced batch, by metric name."""
    inc, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    lp_calls = calls["in_convex_hull"]
    step_blocks = counts["step_blocks"]
    candidates = step_blocks + counts["discarded"]
    return {
        "rep_builder.build_s": inc["build_fundamental"],
        "rep_builder.builds": counts["builds"],
        "rep_builder.dim_built": counts["dim_built"],
        "trails.enumerate_s": inc["enumerate_trails"],
        "trails.enumerate_calls": calls["enumerate_trails"],
        "trails.trails_found": counts["trails_found"],
        "trails.group_s": inc["group_ts_classes"],
        "linalg.lp_s": inc["in_convex_hull"],
        "linalg.lp_calls": lp_calls,
        "linalg.lp_extremal_frac":
            (lp_calls - counts["lp_inside"]) / lp_calls if lp_calls else 0.0,
        "giant.envelope_s": inc["construct_envelope"],
        "giant.envelopes": calls["construct_envelope"],
        "giant.constructibility_s": inc["check_constructibility"],
        "giant.self_s": tracer.self_time["giant"],
        "giant.extremality_s": inc["extremality_report"],
        "giant.blocks": step_blocks + counts["global_blocks"],
        "giant.discard_frac":
            counts["discarded"] / candidates if candidates else 0.0,
        "giant.false_trails":
            tracer.raised["construct_envelope", "FalseTrailDetected"],
        "sgraph.fusion_s": inc["binary_fusion"],
        "sgraph.fusions": calls["binary_fusion"],
        "sgraph.points_s": inc["integer_points"],
        "sgraph.points": counts["points"],
        "bj_crystal.generate_s": inc["generate_binf"],
        "bj_crystal.elements": counts["elements"],
        "giant.epsilon_star_s": inc["epsilon_star"],
        "giant.epsilon_star_calls": calls["epsilon_star"],
        "sl2_engine.coeff_s":
            inc["coefficient_A"] + inc["coefficient_A_oracle"],
        "sl2_engine.coeff_calls":
            calls["coefficient_A"] + calls["coefficient_A_oracle"],
        "cli.main_s": inc["main"],
        "cli.self_s": tracer.self_time["cli"],
        "cli.report_bytes": report_bytes,
    }
