"""Spans around quadinv's public functions, recorded from outside the program.

Each wrapper replaces a function in the namespace where its caller looks it
up (``horizon.sym_eig``, ``verifier.best_K``, ...), so calls between modules
are caught without touching the program.  Spans are kept in memory; a span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

MATCORE_FNS = (
    "sym_eig",
    "solve_linear",
    "lyapunov_solve",
    "inv_sqrt",
    "weighted_opnorm",
    "generalized_lmax",
)


def _kstrict_steps(args, kwargs, result):
    cap = args[1] if len(args) > 1 else kwargs.get("cap", 10_000)
    steps = cap + 1 if result is None else result + 1
    return steps, steps * args[0].init.n_vertices


def _nu_steps(args, kwargs, result):
    steps = (args[1] if len(args) > 1 else kwargs["k_max"]) + 1
    return steps, steps * args[0].init.n_vertices


def _count(args, kwargs, result):
    return len(result)


# span name -> (modules whose namespace holds a caller, function name, result hook)
SPANS = {
    **{
        f"matcore.{fn}": (("matcore", "horizon", "verifier", "model"), fn, None)
        for fn in MATCORE_FNS
    },
    "horizon.stability_certificate": (("verifier", "cli"), "stability_certificate", None),
    "horizon.find_k_strict": (("horizon",), "find_k_strict", _kstrict_steps),
    "horizon.s_value": (("horizon",), "s_value", None),
    "horizon.candidate_Ps": (("horizon",), "candidate_Ps", _count),
    "horizon.evaluate_candidates": (("horizon", "cli"), "evaluate_candidates", _count),
    "horizon.objective_scores": (("horizon",), "objective_scores", None),
    "horizon.best_K": (("verifier",), "best_K", None),
    "horizon.nu_sequence": (("verifier",), "nu_sequence", _nu_steps),
    "verifier.verify": (("verifier", "cli"), "verify", None),
    "verifier.optimize": (("verifier",), "optimize", None),
    "verifier.trajectory": (("verifier",), "trajectory", None),
    "model.homogenize": (("verifier", "cli"), "homogenize", None),
    "model.box_to_vertices": (("model", "cli"), "box_to_vertices", None),
    "cli.main": (("cli",), "main", None),
    "cli.run": (("cli",), "run", None),
    "cli.parse_input": (("cli",), "parse_input", None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0
    info: object = None
    task: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    task: int = -1  # index of the task being run, stamped on every span
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent=parent, task=self.task)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_time += span.duration
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced


class Instrumented:
    """Context manager that installs a tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, (homes, fn, hook) in SPANS.items():
            for home in homes:
                module = self.modules[home]
                if not hasattr(module, fn):
                    continue
                original = getattr(module, fn)
                self.saved.append((module, fn, original))
                setattr(module, fn, self.tracer.wrap(name, original, hook))
        return self.tracer

    def __exit__(self, *exc):
        for module, fn, original in reversed(self.saved):
            setattr(module, fn, original)
        self.saved.clear()
        return False


def self_test(tracer: Tracer, root: str = "verifier.verify") -> list[str]:
    """Check the span tree: children nest inside their parent, and the self
    times of a ``root`` span and all its descendants add up to its duration."""
    spans = tracer.spans
    totals = [span.self_time for span in spans]
    problems = []
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        if span.self_time < -1e-9:  # allow rounding in the subtraction
            problems.append(f"{span.name} span {index} has negative self time")
        if span.parent >= 0:
            outer = spans[span.parent]
            if not outer.start <= span.start <= span.end <= outer.end:
                problems.append(f"{span.name} span {index} leaks out of its parent {outer.name}")
            totals[span.parent] += totals[index]
    for index, span in enumerate(spans):
        if span.name == root and abs(totals[index] - span.duration) > 1e-9 * (1.0 + span.duration):
            problems.append(
                f"{root} span {index}: self times sum to {totals[index]!r}, span lasts {span.duration!r}"
            )
    return problems


def group_breakdown(tracer: Tracer, group_of: list[str]) -> dict[str, dict[str, float]]:
    """Per task group: verify time and the shares of the stages that dominate it.

    Candidate evaluation is ``evaluate_candidates`` minus its ``find_k_strict``
    and ``s_value`` children; enumeration is ``nu_sequence``.
    """
    sums: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        if span.task < 0:
            continue
        row = sums.setdefault(group_of[span.task], {})
        row[span.name] = row.get(span.name, 0.0) + span.duration
        row[span.name + "#"] = row.get(span.name + "#", 0.0) + 1
    out = {}
    for group, row in sums.items():
        verify = row.get("verifier.verify", 0.0)
        runs = row.get("verifier.verify#", 0.0)
        if not runs:
            continue
        kstrict = row.get("horizon.find_k_strict", 0.0)
        candidates = (
            row.get("horizon.evaluate_candidates", 0.0) - kstrict - row.get("horizon.s_value", 0.0)
        )
        out[group] = {
            "verify_ms": 1e3 * verify / runs,
            "candidates_share": candidates / verify,
            "enumeration_share": row.get("horizon.nu_sequence", 0.0) / verify,
            "find_k_strict_share": kstrict / verify,
            "sym_eig_per_verify": row.get("matcore.sym_eig#", 0.0) / runs,
        }
    return out


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, float]:
    """Per-task means of calls, times and work counts, named as in BENCHMARK.json."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    info: dict[str, list] = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + span.self_time
        if span.info is not None:
            info.setdefault(span.name, []).append(span.info)

    def per_task(values: dict, name: str, scale: float = 1.0) -> float:
        return values.get(name, 0.0) * scale / tasks

    def per_call_ms(name: str) -> float:
        return 1e3 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    out = {}
    for fn in MATCORE_FNS:
        out[f"matcore.{fn}.calls"] = per_task(calls, f"matcore.{fn}")
        out[f"matcore.{fn}.self_ms"] = per_task(own, f"matcore.{fn}", 1e3)
    kstrict = info.get("horizon.find_k_strict", [])
    nu = info.get("horizon.nu_sequence", [])
    out.update({
        "horizon.stability_certificate.calls": per_task(calls, "horizon.stability_certificate"),
        "horizon.stability_certificate.ms": per_task(total, "horizon.stability_certificate", 1e3),
        "horizon.find_k_strict.ms": per_task(total, "horizon.find_k_strict", 1e3),
        "horizon.find_k_strict.steps": sum(s for s, _ in kstrict) / tasks,
        "horizon.s_value.ms": per_task(total, "horizon.s_value", 1e3),
        "horizon.candidate_Ps.ms": per_task(total, "horizon.candidate_Ps", 1e3),
        "horizon.evaluate_candidates.self_ms": per_task(own, "horizon.evaluate_candidates", 1e3),
        "horizon.objective_scores.ms": per_task(total, "horizon.objective_scores", 1e3),
        "horizon.candidates.proposed": sum(info.get("horizon.candidate_Ps", [])) / tasks,
        "horizon.candidates.feasible": sum(info.get("horizon.evaluate_candidates", [])) / tasks,
        "horizon.nu_sequence.ms": per_task(total, "horizon.nu_sequence", 1e3),
        "horizon.steps_scanned": sum(s for s, _ in kstrict + nu) / tasks,
        "horizon.vertex_steps": sum(v for _, v in kstrict + nu) / tasks,
        "verifier.verify.self_ms": per_task(own, "verifier.verify", 1e3),
        "verifier.trajectory.ms": per_task(total, "verifier.trajectory", 1e3),
        "model.homogenize.ms": per_task(total, "model.homogenize", 1e3),
        "model.box_to_vertices.ms": per_call_ms("model.box_to_vertices"),
        "cli.parse_input.ms": per_call_ms("cli.parse_input"),
        "cli.run.ms": per_call_ms("cli.run"),
        "cli.render.ms": 1e3 * own.get("cli.main", 0.0) / calls["cli.main"] if calls.get("cli.main") else 0.0,
    })
    return out


def quantile_summary(values: list[float]) -> tuple[float, float]:
    """(median, max) of a non-empty list; (0, 0) when empty."""
    if not values:
        return 0.0, 0.0
    return float(statistics.median(values)), float(max(values))
