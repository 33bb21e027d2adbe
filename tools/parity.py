#!/usr/bin/env python3
"""Record verify and CLI outcomes on the benchmark's tasks and compare two records.

Usage, from the root of a source checkout:

    python3 tools/parity.py dump OUT.json [--repo PATH]
    python3 tools/parity.py diff A.json B.json

``dump`` runs ``quadinv.verify`` on seeds 1-3 of every workload in
``bench/workloads.py``, the known-defect probes included, and writes one
record per task: status, optimum value, its step and vertex, K, the
enumeration's stopping step, strategy, the winning pair's t, S, mu,
|A|_P and lmax(P), tail horizon, the tail fallback's last sampled step,
witness length and, when verify raises, the error type.  It also records
the work of that verify: the steps its scan computed, the ``computed``
count of every scan it built (collected by ``scans_built`` from the
checkout's ``tests/support.py``).
For each task on the cutoff path it also records the candidate table of the
bound command: ``horizon.evaluate_candidates`` on the homogenized task, as
(strategy, K, t, V, mu) rows in order, or the error type; and the row of a
user P, twice the identity shape P0, from the same call with ``user_P``.
Both calls take the homogenized task, which every checkout accepts.  Every
task's document is also written to a temporary directory and run through
``quadinv.cli.main`` in-process as ``verify --report json``, text ``verify``,
``bound --report json``, ``simulate --report json`` and ``export --report
json`` (:data:`COMMANDS`), so every subcommand is covered; each run records
its exit code, stdout (parsed when it is JSON) and stderr.  quadinv, the
workload generators and ``tests/support.py`` are imported from the checkout
at ``--repo`` (default: the one holding this script); a checkout older than
the scan's ``computed`` count is recorded with its own copy of this script.
The generators are only read.

``diff`` compares two records field by field.  It prints every differing
exact field (status, the optimum's step and vertex, K, stop, strategy, tail
horizon and stop, witness length, error, the strategies and K of the
candidate and user rows, and every CLI exit code, text output and non-float
JSON leaf), one line each, and exits 1 when any differs.  The optimum's
step and vertex show how each checkout breaks ties between vertices.  For
each float field (value, t, S, mu, norm_A_P, lmax_P, the t, V and mu of
the candidate and user rows, and the float JSON leaves of each CLI run) it
prints the number of tasks where it differs and the largest relative
difference, and exits 1 when that exceeds ``FLOAT_REL`` (1e-12), or when a
value is present in one record only.  A difference is relative to the
larger magnitude, except for a CLI leaf named ``residual_margin``: that is
lmin(P - A^T P A), which cancels, so it moves far more than P does, and it
is read relative to the larger of its magnitudes and the task's lmax(P).
``diff`` then prints, for each workload and each record, the sums of the
steps verify computed and of the steps it read (``stop + 1`` or
``tail_stop + 1``), as information: they do not change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)
ROWS = ("bound", "user")  # candidate tables: all shapes, and the user P's row
COLUMNS = ("strategy", "K", "t", "V", "mu")
FLOAT_FIELDS = ("value", "t", "S", "mu", "norm_A_P", "lmax_P") + tuple(
    f"{rows}_{column}" for rows in ROWS for column in ("t", "V", "mu")
)
FLOAT_REL = 1e-12  # last-bit differences of a reordered sum stay far below this
WORK = "steps_computed"  # information, never compared
# CLI runs by record name: the subcommand and the flags after the document path
COMMANDS = {
    "verify_json": ("verify", "--report", "json"),
    "verify_text": ("verify",),
    "bound_json": ("bound", "--report", "json"),
    "simulate_json": ("simulate", "--report", "json"),
    "export_json": ("export", "--report", "json"),
}


def _task(model, spec):
    if spec.box is not None:
        init = model.box_to_vertices(spec.box[0], spec.box[1])
    else:
        init = model.InitialSet.from_vertices(spec.vertices)
    return model.VerificationTask(
        system=model.AffineSystem(A=spec.A, b=spec.b),
        init=init,
        objective=model.QuadraticObjective(Q=spec.Q, q=spec.q, alpha=spec.alpha),
    )


def _candidates(horizon, model, task, user: bool = False):
    """The bound command's (strategy, K, t, V, mu) rows, or the error type; with
    ``user``, the user-min-scale row of a user P twice the identity shape P0."""
    try:
        hom = model.homogenize(task)
        user_P = 2.0 * horizon.stability_certificate(hom.system.A).P if user else None
        bounds = horizon.evaluate_candidates(hom, user_P=user_P)
    except Exception as exc:
        return type(exc).__name__
    return [
        [bound.strategy_id, bound.K, bound.scalars.t, bound.scalars.V, bound.scalars.mu]
        for bound in bounds
        if not user or bound.strategy_id == "user-min-scale"
    ]


def _cli_runs(cli, path: str) -> dict:
    """Each :data:`COMMANDS` run of ``cli.main`` on the document at ``path``."""
    runs = {}
    for name, (command, *flags) in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path, *flags])
        stdout = json.loads(out.getvalue()) if "json" in flags else out.getvalue()
        runs[name] = {"exit": code, "stdout": stdout, "stderr": err.getvalue()}
    return runs


def _leaves(value, path: str):
    """``(path, leaf)`` for every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _fields(record: dict) -> dict:
    """A record's fields, each table of candidate rows split into columns: strategy
    and K exact, t, V and mu float; and each CLI run split into its leaves,
    named ``cli.<run>.<path>``."""
    out = dict(record)
    for name in ROWS:
        rows = out.pop(name, None)
        if isinstance(rows, list):
            for i, column in enumerate(COLUMNS):
                out[f"{name}_{column}"] = [row[i] for row in rows if i < len(row)]
        elif rows is not None:
            out[f"{name}_error"] = rows
    for name, run in out.pop("cli", {}).items():
        out.update(_leaves(run, f"cli.{name}"))
    return out


def _float_group(field: str, x, y) -> str | None:
    """The float summary a field counts in, None for an exact field: a float field
    by its name, a float CLI leaf by its run."""
    if field in FLOAT_FIELDS:
        return field
    if field.startswith("cli.") and (isinstance(x, float) or isinstance(y, float)):
        return ".".join(field.split(".")[:2])
    return None


def _record(verifier, scans_built, task) -> dict:
    with scans_built() as scans:
        try:
            verdict = verifier.verify(task)
        except Exception as exc:  # every failure is recorded by its type
            verdict = exc
    steps = sum(scan.computed for scan in scans)
    if isinstance(verdict, Exception):
        return {"error": type(verdict).__name__, WORK: steps}
    opt, tail = verdict.optimum, verdict.tail_info
    return {
        WORK: steps,
        "status": verdict.status.value,
        "value": None if opt is None else opt.value,
        "arg_k": None if opt is None else opt.arg_k,
        "vertex": None if opt is None else opt.arg_vertex.tolist(),
        "K": None if opt is None else opt.bound.K,
        "stop": None if opt is None else opt.stop,
        "strategy": None if opt is None else opt.bound.strategy_id,
        "t": None if opt is None else opt.bound.scalars.t,
        "S": None if opt is None else opt.bound.scalars.S,
        "mu": None if opt is None else opt.bound.scalars.mu,
        "norm_A_P": None if opt is None else opt.bound.certificate.norm_A_P,
        "lmax_P": None if opt is None else opt.bound.certificate.lmax_P,
        "tail_horizon": None if tail is None else tail.horizon,
        "tail_stop": None if tail is None else tail.stop,
        "witness_len": None if verdict.witness is None else len(verdict.witness),
        "error": None,
    }


def dump(out: str, repo: Path) -> None:
    sys.path[:0] = [str(repo / "src"), str(repo / "bench"), str(repo / "tests")]
    import workloads
    from quadinv import cli, horizon, model, verifier
    from support import scans_built

    if repo / "src" not in Path(verifier.__file__).resolve().parents:
        raise RuntimeError(f"quadinv was imported from {verifier.__file__}, not from {repo}")

    records = {}
    with tempfile.TemporaryDirectory() as docs:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                specs = workloads.generate(workload, seed)
                for i, spec in enumerate(specs + workloads.defect_probes(workload, seed)):
                    key = f"{workload}/{seed}/{i}/{spec.name}"
                    path = Path(docs) / f"{len(records)}.json"
                    path.write_text(json.dumps(spec.doc()), encoding="utf-8")
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        task = _task(model, spec)
                        record = _record(verifier, scans_built, task)
                        if record.get("K") is not None:
                            record["bound"] = _candidates(horizon, model, task)
                            record["user"] = _candidates(horizon, model, task, user=True)
                        record["cli"] = _cli_runs(cli, str(path))
                    records[key] = record
    Path(out).write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    print(f"{len(records)} tasks written to {out}")


def _relative(x, y, scale: float = 0.0) -> float:
    """|x - y| relative to the larger of the magnitudes and ``scale``, the largest
    over the entries of lists of equal length; inf when only one is None or
    the lengths differ."""
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            return math.inf
        return max((_relative(u, v, scale) for u, v in zip(x, y)), default=0.0)
    if x is None or y is None:
        return 0.0 if x is y else math.inf
    return abs(x - y) / max(abs(x), abs(y), scale) if x != y else 0.0


def _work(records: dict) -> dict:
    """Per workload, the sums of the steps computed and of the steps read."""
    sums = {}
    for key, record in records.items():
        stop = record.get("stop")
        stop = record.get("tail_stop") if stop is None else stop
        total = sums.setdefault(key.split("/")[0], [0, 0])
        total[0] += record.get(WORK) or 0
        total[1] += 0 if stop is None else stop + 1
    return sums


def diff(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    exact, floats = 0, {field: [] for field in FLOAT_FIELDS}
    for key in sorted(a.keys() | b.keys()):
        ra, rb = _fields(a.get(key, {})), _fields(b.get(key, {}))
        ra.pop(WORK, None)
        rb.pop(WORK, None)
        lmax_P = max(ra.get("lmax_P") or 0.0, rb.get("lmax_P") or 0.0)
        for field in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(field), rb.get(field)
            group = _float_group(field, x, y)
            if group is not None:
                rel = _relative(x, y, lmax_P if field.endswith(".residual_margin") else 0.0)
                floats.setdefault(group, [])
                if rel:
                    floats[group].append(rel)
            elif x != y:
                exact += 1
                print(f"{key} {field}: {x!r} -> {y!r}")
    for field, rels in floats.items():
        print(f"{field}: {len(rels)} differing, largest relative difference "
              f"{max(rels, default=0.0):.3g}")
    work_a, work_b = _work(a), _work(b)
    for workload in sorted(work_a.keys() | work_b.keys()):
        (computed_a, read_a), (computed_b, read_b) = (
            work.get(workload, (0, 0)) for work in (work_a, work_b)
        )
        print(f"{workload}: steps computed {computed_a} -> {computed_b}, "
              f"read {read_a} -> {read_b}")
    print(f"{len(a.keys() | b.keys())} tasks, {exact} differing exact fields")
    beyond = any(rel > FLOAT_REL for rels in floats.values() for rel in rels)
    return 1 if exact or beyond else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="record verify and CLI outcomes on every workload task")
    p_dump.add_argument("out")
    p_dump.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and bench/ are used")
    p_diff = sub.add_parser("diff", help="compare two records: exact fields, then float fields")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.repo.resolve())
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
