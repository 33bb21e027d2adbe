#!/usr/bin/env python3
"""Record verify outcomes on the benchmark's tasks and compare two records.

Usage, from the root of a source checkout:

    python3 tools/parity.py dump OUT.json [--repo PATH]
    python3 tools/parity.py diff A.json B.json

``dump`` runs ``quadinv.verify`` on seeds 1-3 of every workload in
``bench/workloads.py``, the known-defect probes included, and writes one
record per task: status, optimum value, K, the enumeration's stopping step,
strategy, the winning pair's t and |A|_P, tail horizon, the tail fallback's
last sampled step, witness length and, when verify raises, the error type.  quadinv and the workload generators
are imported from the checkout at ``--repo`` (default: the one holding this
script), so one copy of the script can record an older checkout.  The
generators are only read.

``diff`` compares two records field by field.  It prints every differing
exact field (status, K, stop, strategy, tail horizon and stop, witness
length, error), one line each, and exits 1 when any differs.  For each float
field (value, t, norm_A_P) it prints the number of tasks where it differs and
the largest relative difference, and exits 1 when that exceeds
``FLOAT_REL`` (1e-12), or when a value is present in one record only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

SEEDS = (1, 2, 3)
FLOAT_FIELDS = ("value", "t", "norm_A_P")
FLOAT_REL = 1e-12  # last-bit differences of a reordered sum stay far below this


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


def _record(verifier, task) -> dict:
    try:
        verdict = verifier.verify(task)
    except Exception as exc:  # every failure is recorded by its type
        return {"error": type(exc).__name__}
    opt, tail = verdict.optimum, verdict.tail_info
    return {
        "status": verdict.status.value,
        "value": None if opt is None else opt.value,
        "K": None if opt is None else opt.bound.K,
        "stop": None if opt is None else opt.stop,
        "strategy": None if opt is None else opt.bound.strategy_id,
        "t": None if opt is None else opt.bound.scalars.t,
        "norm_A_P": None if opt is None else opt.bound.certificate.norm_A_P,
        "tail_horizon": None if tail is None else tail.horizon,
        "tail_stop": None if tail is None else tail.stop,
        "witness_len": None if verdict.witness is None else len(verdict.witness),
        "error": None,
    }


def dump(out: str, repo: Path) -> None:
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    import workloads
    from quadinv import model, verifier

    if repo / "src" not in Path(verifier.__file__).resolve().parents:
        raise RuntimeError(f"quadinv was imported from {verifier.__file__}, not from {repo}")

    records = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            specs = workloads.generate(workload, seed)
            for i, spec in enumerate(specs + workloads.defect_probes(workload, seed)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    record = _record(verifier, _task(model, spec))
                records[f"{workload}/{seed}/{i}/{spec.name}"] = record
    Path(out).write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    print(f"{len(records)} tasks written to {out}")


def _relative(x, y) -> float:
    """|x - y| relative to the larger magnitude; inf when only one is None."""
    if x is None or y is None:
        return 0.0 if x is y else math.inf
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def diff(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    exact, floats = 0, {field: [] for field in FLOAT_FIELDS}
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key, {}), b.get(key, {})
        for field in sorted(ra.keys() | rb.keys()):
            if field in floats:
                rel = _relative(ra.get(field), rb.get(field))
                if rel:
                    floats[field].append(rel)
            elif ra.get(field) != rb.get(field):
                exact += 1
                print(f"{key} {field}: {ra.get(field)!r} -> {rb.get(field)!r}")
    for field, rels in floats.items():
        print(f"{field}: {len(rels)} differing, largest relative difference "
              f"{max(rels, default=0.0):.3g}")
    print(f"{len(a.keys() | b.keys())} tasks, {exact} differing exact fields")
    beyond = any(rel > FLOAT_REL for rels in floats.values() for rel in rels)
    return 1 if exact or beyond else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="record verify outcomes on every workload task")
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
