"""Command-line surface: parse task files, run pipelines, emit reports.

Input is a single JSON document:

    {
      "dimension": 2,
      "A": [[0.9, 0.1], [-0.1, 0.9]],
      "b": [0.0, 0.0],
      "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
      "property": {"Q": [[1, 0], [0, 0]], "q": [0, 0], "alpha": 1.0}
    }

``b`` defaults to zero, ``initial_set`` alternatively takes
``{"vertices": [[...], ...]}``, and ``property`` alternatively takes
``{"linear_range": {"c": [...], "lower": a, "upper": b}}``.

Every subcommand takes ``--report``; ``verify`` and ``bound`` add
``--kstrict-cap``, ``verify`` also ``--horizon-cap`` and
``--alpha-override``, ``bound`` ``--user-P`` and ``--epsilon``, ``simulate``
``--oracle-horizon``, and ``export`` ``--epsilon``.  Any other flag is a
usage error.  The parsed arguments are the run's configuration.
``verify`` cuts off with the identity shape alone, and ``bound`` lists the
cutoff of every built-in shape (plus ``--user-P``).

Exit codes: 0 proved (directly or by tail bound), 1 disproved,
2 inconclusive, 3 bad input, 4 unstable system, 5 other engine errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    InvalidUserP,
    ModelError,
    NotSymmetric,
    ParseError,
    QuadinvError,
    Unstable,
)
from .horizon import (
    DEFAULT_EPSILON,
    DEFAULT_KSTRICT_CAP,
    HorizonBound,
    _candidates,
    _stage,
    objective_scores,
)
from .model import (
    AffineSystem,
    InitialSet,
    QuadraticObjective,
    VerificationTask,
    box_to_vertices,
    homogenize,
    linear_range_property,
)
from .verifier import (
    DEFAULT_TAIL_CAP,
    Verdict,
    VerdictStatus,
    brute_force_oracle,
    verify,
)

__all__ = ["parse_input", "run", "main"]

VERDICT_EXIT_CODES = {
    VerdictStatus.PROVED: 0,
    VerdictStatus.PROVED_TAIL: 0,
    VerdictStatus.DISPROVED: 1,
    VerdictStatus.INCONCLUSIVE: 2,
}


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r} in {where}")
    return doc[key]


def _section(doc: dict, key: str, where: str) -> dict:
    value = _field(doc, key, where)
    if not isinstance(value, dict):
        raise ParseError(f"field {key!r} in {where} must be a JSON object")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _numeric(doc: dict, key: str, where: str, ndim: int | None = None) -> np.ndarray:
    """The numeric leaf ``doc[key]`` as a float array.

    Raises :class:`ParseError` naming the field when it is missing or not
    finite numbers or, with ``ndim`` given, has another number of dimensions.
    A boolean or a string leaf is not a number either, though numpy reads
    ``true`` as 1 and ``"2"`` as 2, even among numbers.
    """
    value = _field(doc, key, where)
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {key!r} in {where} is not numeric: {exc}") from exc
    if any(isinstance(leaf, (bool, str)) for leaf in np.array(value, dtype=object).flat):
        raise ParseError(f"field {key!r} in {where} holds a boolean or a string")
    if not np.all(np.isfinite(array)):
        raise ParseError(f"field {key!r} in {where} is not finite")
    if ndim is not None and array.ndim != ndim:
        raise ParseError(f"field {key!r} in {where} has shape {array.shape}, not {ndim}-D")
    return array


def parse_input(path: str) -> VerificationTask:
    """Load and validate a task document.

    Raises :class:`ParseError` for malformed documents and lets dimensional
    inconsistencies surface as :class:`DimensionMismatch`.
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")

    a = _numeric(doc, "A", "document", ndim=2)
    d = a.shape[0]
    if doc.get("dimension") is not None and _numeric(doc, "dimension", "document", ndim=0) != d:
        raise ParseError(f"declared dimension {doc['dimension']} does not match A ({d} rows)")
    b = _numeric(doc, "b", "document") if "b" in doc else np.zeros(d)
    system = AffineSystem(A=a, b=b)

    init_doc = _section(doc, "initial_set", "document")
    if "box" in init_doc:
        box = _section(init_doc, "box", "initial_set")
        init = box_to_vertices(
            _numeric(box, "lower", "initial_set.box"),
            _numeric(box, "upper", "initial_set.box"),
        )
    elif "vertices" in init_doc:
        vertices = _numeric(init_doc, "vertices", "initial_set")
        init = InitialSet.from_vertices(vertices)
    else:
        raise ParseError("initial_set needs either 'box' or 'vertices'")

    prop = _section(doc, "property", "document")
    if "linear_range" in prop:
        band = _section(prop, "linear_range", "property")
        objective = linear_range_property(
            _numeric(band, "c", "property.linear_range"),
            _numeric(band, "lower", "property.linear_range", ndim=0),
            _numeric(band, "upper", "property.linear_range", ndim=0),
        )
    elif "Q" in prop:
        alpha = prop.get("alpha")
        objective = QuadraticObjective(
            Q=_numeric(prop, "Q", "property"),
            q=_numeric(prop, "q", "property") if "q" in prop else np.zeros(d),
            alpha=None if alpha is None else _numeric(prop, "alpha", "property", ndim=0),
        )
    else:
        raise ParseError("property needs either 'Q' or 'linear_range'")

    return VerificationTask(system=system, init=init, objective=objective)


def load_user_matrix(path: str | None) -> np.ndarray | None:
    """Read a user-supplied shape matrix (bare nested array or {"P": ...}), if any."""
    if path is None:
        return None
    doc = _load_json(path)
    return _numeric(doc if isinstance(doc, dict) else {"P": doc}, "P", path)


def _bound_dict(bound: HorizonBound) -> dict:
    return {
        "K": bound.K,
        "strategy": bound.strategy_id,
        "t": bound.scalars.t,
        "S": bound.scalars.S,
        "V": bound.scalars.V,
        "mu": bound.scalars.mu,
        "k_strict": bound.scalars.k_strict,
        "norm_A_P": bound.certificate.norm_A_P,
        "lmin_P": bound.certificate.lmin_P,
        "residual_margin": bound.certificate.residual_margin,
    }


def _verdict_dict(verdict: Verdict) -> dict:
    out: dict = {
        "command": "verify",
        "status": verdict.status.value,
        "alpha": verdict.alpha,
        "message": verdict.message,
        "optimum": None,
        "witness": None,
        "tail": None,
    }
    if verdict.optimum is not None:
        out["optimum"] = {
            "value": verdict.optimum.value,
            "k": verdict.optimum.arg_k,
            "vertex": verdict.optimum.arg_vertex.tolist(),
            "bound": _bound_dict(verdict.optimum.bound),
            "stop": verdict.optimum.stop,
        }
    if verdict.witness is not None:
        out["witness"] = verdict.witness.tolist()
    if verdict.tail_info is not None:
        out["tail"] = {
            "horizon": verdict.tail_info.horizon,
            "bound": verdict.tail_info.bound,
            "stop": verdict.tail_info.stop,
        }
    return out


def _candidate_dict(bound: HorizonBound, hom: VerificationTask) -> dict:
    entry = _bound_dict(bound)
    scores = objective_scores(bound.certificate.P, hom.objective.Q, hom.init)
    entry["scores"] = {f"F{i}": score for i, score in enumerate(scores)}
    return entry


def _run_verify(task: VerificationTask, args) -> tuple[int, dict]:
    verdict = verify(
        task, alpha=args.alpha_override, kstrict_cap=args.kstrict_cap, tail_cap=args.horizon_cap
    )
    return VERDICT_EXIT_CODES[verdict.status], _verdict_dict(verdict)


def _run_bound(task: VerificationTask, args) -> tuple[int, dict]:
    user_P, staged = load_user_matrix(args.user_p), _stage(task)
    bounds = _candidates(staged, user_P, args.epsilon, args.kstrict_cap)
    hom = staged.scan.task  # the scores are taken at the homogenized vertices
    candidates = [_candidate_dict(bound, hom) for bound in bounds]
    return 0, {
        "command": "bound",
        "best": min(candidates, key=lambda entry: entry["K"]),
        "candidates": candidates,
    }


def _run_simulate(task: VerificationTask, args) -> tuple[int, dict]:
    report = brute_force_oracle(task, args.oracle_horizon)
    return 0, {
        "command": "simulate",
        "horizon": report.horizon,
        "nu": report.nu_samples.tolist(),
        "sup": report.sup_emp,
        "arg_sup": int(np.argmax(report.nu_samples)),
        "k_strict": report.k_strict_emp,
        "k_geq": report.k_geq_emp,
        "K_strict": report.K_strict_emp,
        "K_geq": report.K_geq_emp,
    }


def _run_export(task: VerificationTask, args) -> tuple[int, dict]:
    hom = homogenize(task)
    objectives = [
        {"id": "F0", "kind": "max-vertex-energy", "of": "P"},
        {"id": "F1", "kind": "max-vertex-energy", "of": "P - Q"},
        {"id": "F2", "kind": "sum-vertex-energy", "of": "P"},
        {"id": "F3", "kind": "sum-vertex-energy", "of": "P - Q"},
        {"id": "F4", "kind": "largest-eigenvalue", "of": "P"},
    ]
    problems = [
        {
            "id": "unit-scale",
            "description": "minimize F_i over P with P - Q >= 0, "
            "P - A^T P A - epsilon*Id >= 0, P >= 0; a returned P is paired "
            "with its smallest t = lmax(P^-1/2 Q P^-1/2), which is at most 1",
            "constraints": [
                {"type": "psd", "expr": "P - Q"},
                {"type": "psd", "expr": "P - A^T P A - epsilon*Id"},
                {"type": "psd", "expr": "P"},
            ],
        },
        {
            "id": "min-scale",
            "description": "minimize F_i over P with P - A^T P A - epsilon*Id >= 0, "
            "P >= 0; use with t = lmax(P^-1/2 Q P^-1/2)",
            "constraints": [
                {"type": "psd", "expr": "P - A^T P A - epsilon*Id"},
                {"type": "psd", "expr": "P"},
            ],
        },
    ]
    return 0, {
        "command": "export",
        "dimension": task.dim,
        "epsilon": args.epsilon,
        "system": {"A": task.system.A.tolist(), "b": task.system.b.tolist()},
        "property": {
            "Q": task.objective.Q.tolist(),
            "q": task.objective.q.tolist(),
            "alpha": task.objective.alpha,
        },
        "homogenized": {
            "q": hom.objective.q.tolist(),
            "constant": hom.objective.constant,
            "vertices": hom.init.vertices.tolist(),
        },
        "objectives": objectives,
        "problems": problems,
        "feedback": "solve either problem externally and pass P back via --user-P",
    }


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Run a subcommand parsed by :func:`build_parser`; returns (exit_code, report)."""
    for name in ("horizon_cap", "kstrict_cap", "oracle_horizon", "epsilon"):
        if name in args and not getattr(args, name) > 0:  # NaN fails too
            raise ParseError(f"--{name.replace('_', '-')} must be positive")
    if not math.isfinite(getattr(args, "alpha_override", None) or 0.0):  # None passes
        raise ParseError("--alpha-override must be finite")
    return args.handler(parse_input(args.input), args)


def render_text(report: dict) -> str:
    """Human-readable rendering of a report dictionary."""
    if "error" in report:
        err = report["error"]
        return f"error ({err['type']}): {err['message']}"
    command = report.get("command")
    if command == "verify":
        lines = [f"verdict: {report['status']}", f"alpha:   {report['alpha']:.12g}"]
        if report["optimum"] is not None:
            opt = report["optimum"]
            lines.append(
                f"optimum: {opt['value']:.12g} at step {opt['k']} "
                f"from vertex {opt['vertex']}"
            )
            bound = opt["bound"]
            lines.append(
                f"cutoff:  K = {bound['K']} via {bound['strategy']} "
                f"(t = {bound['t']:.6g}, S = {bound['S']:.6g}, "
                f"k_strict = {bound['k_strict']}, |A|_P = {bound['norm_A_P']:.9g}), "
                f"scanned to step {opt['stop']}"
            )
        if report["tail"] is not None:
            lines.append(
                f"tail:    horizon {report['tail']['horizon']}, "
                f"envelope {report['tail']['bound']:.6g}, "
                f"scanned to step {report['tail']['stop']}"
            )
        if report["witness"] is not None:
            lines.append("witness trajectory:")
            for k, state in enumerate(report["witness"]):
                lines.append(f"  k={k:<4d} {state}")
        lines.append(report["message"])
        return "\n".join(lines)
    if command == "bound":
        best = report["best"]
        lines = [
            f"best cutoff K = {best['K']} via {best['strategy']} (t = {best['t']:.6g})",
            f"k_strict = {best['k_strict']}, S = {best['S']:.6g}",
            "candidates:",
            f"  {'strategy':<14} {'t':>10} {'K':>6} {'F0':>10} {'F1':>10} "
            f"{'F2':>10} {'F3':>10} {'F4':>10}",
        ]
        for cand in report["candidates"]:
            scores = cand["scores"]
            lines.append(
                f"  {cand['strategy']:<14} {cand['t']:>10.4g} {cand['K']:>6d} "
                + " ".join(f"{scores[f'F{i}']:>10.4g}" for i in range(5))
            )
        return "\n".join(lines)
    if command == "simulate":
        return "\n".join(
            [
                f"horizon:  {report['horizon']} ({len(report['nu'])} samples)",
                f"sup:      {report['sup']:.12g} at step {report['arg_sup']}",
                f"k_strict: {report['k_strict']}   k_geq: {report['k_geq']}",
                f"K_strict: {report['K_strict']}   K_geq: {report['K_geq']}",
            ]
        )
    return json.dumps(report, indent=2)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The ``quadinv`` parser; each subcommand registers only the flags it reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="path to the JSON task document")
    common.add_argument("--report", choices=("text", "json"), default="text")

    cutoff = argparse.ArgumentParser(add_help=False)
    cutoff.add_argument("--kstrict-cap", type=int, default=DEFAULT_KSTRICT_CAP)
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--user-P", dest="user_p", default=None, metavar="PATH")
    margin = argparse.ArgumentParser(add_help=False)
    margin.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    decide = argparse.ArgumentParser(add_help=False)
    decide.add_argument("--horizon-cap", type=int, default=DEFAULT_TAIL_CAP)
    decide.add_argument("--alpha-override", type=float, default=None)
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--oracle-horizon", type=int, default=500)

    parser = _Parser(
        prog="quadinv",
        description=(
            "Decide quadratic sublevel invariants of stable discrete-time "
            "affine systems, exactly and in finite time."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, handler, help_text in [
        ("verify", [common, cutoff, decide], _run_verify,
         "decide the property; exit 0 proved, 1 disproved, 2 inconclusive"),
        ("bound", [common, cutoff, shape, margin], _run_bound,
         "report the certified cutoff K of every candidate shape"),
        ("simulate", [common, oracle], _run_simulate,
         "scan raw step values and report empirical stopping ranks"),
        ("export", [common, margin], _run_export,
         "emit constraint data for an external semidefinite solver"),
    ]:
        cmd = sub.add_parser(name, parents=parents, help=help_text)
        cmd.set_defaults(handler=handler)
    return parser


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ParseError, ModelError, InvalidUserP, NotSymmetric, ValueError)):
        return 3
    if isinstance(exc, Unstable):
        return 4
    return 5


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report = run(args)
    except (QuadinvError, ValueError) as exc:
        code = _exit_code_for(exc)
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if args.report == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), file=sys.stderr if "error" in report else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
