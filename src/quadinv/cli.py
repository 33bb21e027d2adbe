"""Command-line surface: parse task files, run pipelines, emit reports.

Input is a single JSON document:

    {
      "dimension": 2,
      "A": [[1.0, 0.01], [-0.01, 0.99]],
      "b": [0.0, 0.0],
      "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
      "property": {"Q": [[1, 0], [0, 0]], "q": [0, 0], "alpha": 1.0}
    }

``b`` defaults to zero, ``initial_set`` alternatively takes
``{"vertices": [[...], ...]}``, and ``property`` alternatively takes
``{"linear_range": {"c": [...], "lower": a, "upper": b}}``.

Exit codes: 0 proved (directly or by tail bound), 1 disproved,
2 inconclusive, 3 bad input, 4 unstable system, 5 other engine errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import (
    InvalidUserP,
    ModelError,
    NotSymmetric,
    ParseError,
    QuadinvError,
    Unstable,
)
from .horizon import (
    STRATEGIES,
    CandidateBound,
    HorizonBound,
    evaluate_candidates,
    stability_certificate,
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
from .verifier import Verdict, VerdictStatus, brute_force_oracle, verify

__all__ = ["RunConfig", "parse_input", "run", "main"]

VERDICT_EXIT_CODES = {
    VerdictStatus.PROVED: 0,
    VerdictStatus.PROVED_TAIL: 0,
    VerdictStatus.DISPROVED: 1,
    VerdictStatus.INCONCLUSIVE: 2,
}
DEFAULT_ORACLE_HORIZON = 500


@dataclass
class RunConfig:
    """Resolved invocation: command, input file and every knob."""

    command: str
    input_path: str
    horizon_cap: int = 10_000
    kstrict_cap: int = 10_000
    oracle_horizon: int | None = None
    epsilon: float = 0.01
    report: str = "text"
    strategy: str = "auto"
    user_p_path: str | None = None
    alpha_override: float | None = None
    tol: Tolerances = field(default_factory=lambda: DEFAULTS)

    def __post_init__(self):
        if self.horizon_cap <= 0 or self.kstrict_cap <= 0:
            raise ParseError("caps must be positive")
        if self.oracle_horizon is not None and self.oracle_horizon < 1:
            raise ParseError("--oracle-horizon must be at least 1")
        if self.epsilon <= 0:
            raise ParseError("--epsilon must be positive")
        if self.strategy not in STRATEGIES:
            raise ParseError(f"unknown strategy {self.strategy!r}")


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r} in {where}")
    return doc[key]


def _section(doc: dict, key: str, where: str) -> dict:
    value = _field(doc, key, where)
    if not isinstance(value, dict):
        raise ParseError(f"field {key!r} in {where} must be a JSON object")
    return value


def parse_input(path: str, tol: Tolerances = DEFAULTS) -> VerificationTask:
    """Load and validate a task document.

    Raises :class:`ParseError` for malformed documents and lets dimensional
    inconsistencies surface as :class:`DimensionMismatch`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")

    try:
        a = np.array(_field(doc, "A", "document"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field 'A' is not a numeric matrix: {exc}") from exc
    if a.ndim != 2:
        raise ParseError(f"field 'A' must be a nested array, got shape {a.shape}")
    d = a.shape[0]
    declared = doc.get("dimension")
    if declared is not None and declared != d:
        raise ParseError(f"declared dimension {declared} does not match A ({d} rows)")
    b = np.array(doc.get("b", np.zeros(d)), dtype=float)
    system = AffineSystem(A=a, b=b)

    init_doc = _section(doc, "initial_set", "document")
    if "box" in init_doc:
        box = _section(init_doc, "box", "initial_set")
        init = box_to_vertices(
            _field(box, "lower", "initial_set.box"),
            _field(box, "upper", "initial_set.box"),
            tol,
        )
    elif "vertices" in init_doc:
        init = InitialSet.from_vertices(init_doc["vertices"], tol)
    else:
        raise ParseError("initial_set needs either 'box' or 'vertices'")

    prop = _section(doc, "property", "document")
    if "linear_range" in prop:
        band = _section(prop, "linear_range", "property")
        objective = linear_range_property(
            _field(band, "c", "property.linear_range"),
            _field(band, "lower", "property.linear_range"),
            _field(band, "upper", "property.linear_range"),
        )
    elif "Q" in prop:
        q_mat = np.array(prop["Q"], dtype=float)
        objective = QuadraticObjective(
            Q=q_mat,
            q=np.array(prop.get("q", np.zeros(d)), dtype=float),
            alpha=prop.get("alpha"),
        )
    else:
        raise ParseError("property needs either 'Q' or 'linear_range'")

    return VerificationTask(system=system, init=init, objective=objective)


def load_user_matrix(path: str) -> np.ndarray:
    """Read a user-supplied shape matrix (bare nested array or {"P": ...})."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = _field(doc, "P", path)
    try:
        return np.array(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path} does not hold a numeric matrix: {exc}") from exc


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
        }
    if verdict.witness is not None:
        out["witness"] = verdict.witness.tolist()
    if verdict.tail_info is not None:
        out["tail"] = {
            "horizon": verdict.tail_info.horizon,
            "bound": verdict.tail_info.bound,
        }
    return out


def _candidate_dict(cb: CandidateBound) -> dict:
    entry = _bound_dict(cb.bound)
    entry["scores"] = {f"F{i}": cb.scores[i] for i in range(5)}
    return entry


def _run_verify(task: VerificationTask, config: RunConfig, user_p) -> tuple[int, dict]:
    verdict = verify(
        task,
        alpha=config.alpha_override,
        kstrict_cap=config.kstrict_cap,
        tail_cap=config.horizon_cap,
        strategy=config.strategy,
        user_P=user_p,
        epsilon=config.epsilon,
        tol=config.tol,
    )
    return VERDICT_EXIT_CODES[verdict.status], _verdict_dict(verdict)


def _run_bound(task: VerificationTask, config: RunConfig, user_p) -> tuple[int, dict]:
    cert = stability_certificate(task.system.A, config.tol)
    hom = homogenize(task, config.tol)
    candidates = evaluate_candidates(
        hom,
        strategy=config.strategy,
        user_P=user_p,
        epsilon=config.epsilon,
        kstrict_cap=config.kstrict_cap,
        tol=config.tol,
        certificate=cert,
    )
    best = min(candidates, key=lambda cb: cb.bound.K)
    return 0, {
        "command": "bound",
        "best": _candidate_dict(best),
        "candidates": [_candidate_dict(cb) for cb in candidates],
    }


def _run_simulate(task: VerificationTask, config: RunConfig) -> tuple[int, dict]:
    horizon = config.oracle_horizon or DEFAULT_ORACLE_HORIZON
    report = brute_force_oracle(task, horizon, config.tol)
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


def _run_export(task: VerificationTask, config: RunConfig) -> tuple[int, dict]:
    hom = homogenize(task, config.tol)
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
            "P - A^T P A - epsilon*Id >= 0, P >= 0; use with t = 1",
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
        "epsilon": config.epsilon,
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


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one subcommand; returns (exit_code, report)."""
    task = parse_input(config.input_path, config.tol)
    user_p = None
    if config.user_p_path is not None:
        user_p = load_user_matrix(config.user_p_path)
    if config.command == "verify":
        return _run_verify(task, config, user_p)
    if config.command == "bound":
        return _run_bound(task, config, user_p)
    if config.command == "simulate":
        return _run_simulate(task, config)
    if config.command == "export":
        return _run_export(task, config)
    raise ParseError(f"unknown command {config.command!r}")


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
                f"k_strict = {bound['k_strict']}, |A|_P = {bound['norm_A_P']:.9g})"
            )
        if report["tail"] is not None:
            lines.append(
                f"tail:    scanned to step {report['tail']['horizon']}, "
                f"envelope {report['tail']['bound']:.6g}"
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
    parser = _Parser(
        prog="quadinv",
        description=(
            "Decide quadratic sublevel invariants of stable discrete-time "
            "affine systems, exactly and in finite time."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify", "decide the property; exit 0 proved, 1 disproved, 2 inconclusive"),
        ("bound", "report the certified cutoff K for every candidate strategy"),
        ("simulate", "scan raw step values and report empirical stopping ranks"),
        ("export", "emit constraint data for an external semidefinite solver"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="path to the JSON task document")
        cmd.add_argument("--horizon-cap", type=int, default=10_000)
        cmd.add_argument("--kstrict-cap", type=int, default=10_000)
        cmd.add_argument("--oracle-horizon", type=int, default=None)
        cmd.add_argument("--epsilon", type=float, default=0.01)
        cmd.add_argument("--report", choices=("text", "json"), default="text")
        cmd.add_argument("--strategy", choices=STRATEGIES, default="auto")
        cmd.add_argument("--user-P", dest="user_p", default=None, metavar="PATH")
        cmd.add_argument("--alpha-override", type=float, default=None)
        cmd.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a tolerance field (repeatable)",
        )
    return parser


def _tolerances_from(pairs: list[str]) -> Tolerances:
    overrides = {}
    valid = {f.name: f.type for f in dataclasses.fields(Tolerances)}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        if not _ or name not in valid:
            raise ParseError(f"unknown tolerance override {pair!r}")
        try:
            overrides[name] = int(raw) if valid[name] is int else float(raw)
        except ValueError as exc:
            raise ParseError(f"bad tolerance value in {pair!r}") from exc
    return DEFAULTS.override(**overrides)


def _config_from(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=ns.command,
        input_path=ns.input,
        horizon_cap=ns.horizon_cap,
        kstrict_cap=ns.kstrict_cap,
        oracle_horizon=ns.oracle_horizon,
        epsilon=ns.epsilon,
        report=ns.report,
        strategy=ns.strategy,
        user_p_path=ns.user_p,
        alpha_override=ns.alpha_override,
        tol=_tolerances_from(ns.tol),
    )


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ParseError, ModelError, InvalidUserP, NotSymmetric, ValueError)):
        return 3
    if isinstance(exc, Unstable):
        return 4
    return 5


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    report_mode = getattr(ns, "report", "text")
    try:
        config = _config_from(ns)
        code, report = run(config)
    except (QuadinvError, ValueError) as exc:
        code = _exit_code_for(exc)
        report = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if report_mode == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report), file=sys.stderr if "error" in report else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
