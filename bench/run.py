#!/usr/bin/env python3
"""quadinv benchmark: four workloads, end-to-end metrics, per-layer spans.

Usage, from the root of a source checkout (quadinv is imported from ./src):

    python3 bench/run.py --workload boxes --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``boxes``, ``near-boundary`` and ``tail`` call
``quadinv.verifier.verify`` in this process; ``cli`` runs
``python -m quadinv.cli verify <task> --report json`` in a subprocess per task.
Tasks run one after another (a closed loop with one client), cycling through
the workload's pass until ``--seconds`` have elapsed and at least one pass is
done.  A pass runs each task once, except that untraced ``cli`` runs its two
slowest tasks, on which the p90 rests, three times (``Spec.runs_per_pass``).
Every distinct task's output is checked against the numpy reference in
reference.py outside the timed region; repeats must agree with it.

``--trace 0`` prints the end-to-end metrics.  On a shared machine the same
code can run 1.3-2x slower for tens of seconds at a time, so every task run
is paired with a calibration run that does not depend on quadinv: a numpy
kernel in this process for the API workloads, and a child ``python -c pass``
for ``cli`` (interpreter start-up and imports are most of a CLI call, and an
in-process kernel does not track them).  A run's time is
divided by the rolling median of the calibration times around it and
multiplied by the calibration's time on the reference machine
(``CAL_REF_S``); a task's time is the trimmed mean of its runs' scaled
times.
``tasks_per_s`` is the tasks over the scaled time of one pass;
``task_ms_p50``/``p90`` are percentiles of the tasks' scaled times.  The
``raw:`` line gives percentiles of every run's own wall time, and the
``calibration:`` line the calibration times.  ``setup_s`` is the median of
several set-ups, each a fresh interpreter's ``import quadinv`` plus
generating the workload (and, for ``cli``, writing the task files), scaled
the same way by a child calibration run after each; the ``setup:`` line
gives the unscaled times.

``--trace 1`` runs every task twice, untraced and traced, and prints the
per-layer metrics (per-task means over the traced runs) and the tracing
overhead (best-case traced over untraced pass time, minus one).

``near-boundary`` has a known defect: verify raises ``NotSymmetric`` on
nearly all rotations at radius 0.99999 under a similarity, and on a rare one
at 0.9999.  Its radius-0.99999 tasks (``workloads.defect_probes``) run once
per run after the timed loop and peak-memory reading; a timed task that raises it leaves
the loop at its first run.  Neither counts in ``attempted``/``failed``, and
the ``known defect:`` line reports both counts.  A probe that passes is
reference-checked like any task; any other error makes the run incorrect.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it record the
environment, failures, and (traced) the per-group stage split.  The exit code
is 0 when every output is correct; a task that raises, exits with the wrong
code, or disagrees with the reference counts as failed and makes the run
incorrect.
"""

from __future__ import annotations

import os

# pinned before numpy loads OpenBLAS; children inherit them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DECLARED = ROOT / "BENCHMARK.json"  # names and units of the metrics printed

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
CLI_PROBE_TASKS = 3
CHILD_TIMEOUT_S = 120
KNOWN_DEFECT = "NotSymmetric"  # what verify raises on near-boundary's defect probes
EXIT_CODES = {
    workloads.PROVED: 0,
    workloads.PROVED_TAIL: 0,
    workloads.DISPROVED: 1,
    workloads.INCONCLUSIVE: 2,
}
# Calibration kernel: a Python loop of small numpy updates (like the Jacobi
# sweeps) and einsum over a large vertex array (like the scans).  Its time
# next to a task run measures how fast the machine ran that task.
_CAL_RNG = np.random.default_rng(0)
CAL_A = _CAL_RNG.standard_normal((8, 8))
CAL_V = _CAL_RNG.standard_normal((4096, 12))
CAL_Q = _CAL_RNG.standard_normal((12, 12))
CAL_SNIPPET = "pass"  # the cli workload's calibration, in a child
# typical calibration times on the reference machine (2-core x86-64 VM)
CAL_REF_S = {"kernel": 0.0035, "child": 0.06}
CAL_WINDOW = 3  # calibration runs on each side in the rolling median
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import quadinv; print(time.perf_counter() - t)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def import_quadinv() -> dict:
    sys.path.insert(0, str(SRC))
    import quadinv  # noqa: F401  (loads every submodule)
    from quadinv import cli, horizon, matcore, model, verifier

    if Path(quadinv.__file__).resolve().parent != SRC / "quadinv":
        raise RuntimeError(f"quadinv was imported from {quadinv.__file__}, not from {SRC}")
    return {"cli": cli, "horizon": horizon, "matcore": matcore, "model": model, "verifier": verifier}


def environment(seed: int, workload: str) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------------- set-up


def child_import_seconds() -> float:
    done = run_child([sys.executable, "-c", IMPORT_SNIPPET])
    if done.returncode != 0:
        raise RuntimeError(f"importing quadinv in a child failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def child_calibration_seconds() -> float:
    start = time.perf_counter()
    done = run_child([sys.executable, "-c", CAL_SNIPPET])
    if done.returncode != 0:
        raise RuntimeError(f"calibration child failed: {done.stderr.strip()}")
    return time.perf_counter() - start


def build(mods: dict, workload: str, seed: int, workdir: Path | None):
    """Generate the workload: quadinv tasks for API workloads, task files for ``cli``."""
    specs = workloads.generate(workload, seed)
    if workload == "cli":
        paths = []
        for i, spec in enumerate(specs):
            path = workdir / f"task{i:02d}.json"
            path.write_text(json.dumps(spec.doc()), encoding="utf-8")
            paths.append(str(path))
        return specs, paths
    return specs, to_tasks(mods, specs)


def to_tasks(mods: dict, specs) -> list:
    model = mods["model"]
    tasks = []
    for spec in specs:
        if spec.box is not None:
            init = model.box_to_vertices(spec.box[0], spec.box[1])
        else:
            init = model.InitialSet.from_vertices(spec.vertices)
        tasks.append(
            model.VerificationTask(
                system=model.AffineSystem(A=spec.A, b=spec.b),
                init=init,
                objective=model.QuadraticObjective(Q=spec.Q, q=spec.q, alpha=spec.alpha),
            )
        )
    return tasks


def set_up(mods: dict, workload: str, seed: int, workdir: Path):
    """Set-up time at the reference machine's speed, and the built workload.

    Each repeat is a child's import time plus the in-process generation time,
    divided by the child calibration run that follows it; the median ratio
    is scaled by the calibration's reference time.
    """
    child_import_seconds()  # compile bytecode and warm the file cache first
    samples, ratios = [], []
    built = None
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        start = time.perf_counter()
        built = build(mods, workload, seed, workdir)
        samples.append(imported + time.perf_counter() - start)
        ratios.append(samples[-1] / child_calibration_seconds())
    print(f"setup: {len(samples)} repeats, raw median {1e3 * statistics.median(samples):.1f} ms, "
          f"min {1e3 * min(samples):.1f} ms")
    return CAL_REF_S["child"] * statistics.median(ratios), built


# ----------------------------------------------------------------------------- runners


def outcome_of_verdict(verdict) -> reference.Outcome:
    opt = verdict.optimum
    return reference.Outcome(
        status=verdict.status.value,
        value=None if opt is None else opt.value,
        arg_k=None if opt is None else opt.arg_k,
        vertex=None if opt is None else opt.arg_vertex,
        K=None if opt is None else opt.bound.K,
        witness=verdict.witness,
        tail_horizon=None if verdict.tail_info is None else verdict.tail_info.horizon,
    )


def outcome_of_report(code: int, text: str):
    """Outcome from a CLI JSON report, or (error type, message) on failure."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ("BadOutput", f"exit {code}, output is not JSON: {text[:200]!r}")
    if "error" in report:
        return (report["error"]["type"], f"exit {code}: {report['error']['message']}")
    opt = report.get("optimum")
    out = reference.Outcome(
        status=report["status"],
        value=None if opt is None else opt["value"],
        arg_k=None if opt is None else opt["k"],
        vertex=None if opt is None else np.array(opt["vertex"]),
        K=None if opt is None else opt["bound"]["K"],
        witness=None if report["witness"] is None else np.array(report["witness"]),
        tail_horizon=None if report["tail"] is None else report["tail"]["horizon"],
    )
    if code != EXIT_CODES.get(out.status):
        return ("WrongExitCode", f"exit {code} for status {out.status}")
    return out


class ApiRunner:
    """Calls verify() in this process; results are converted after timing."""

    def __init__(self, mods, tasks):
        self.verifier = mods["verifier"]
        self.tasks = tasks

    def __call__(self, i):
        try:
            return self.verifier.verify(self.tasks[i])
        except Exception as exc:  # a failed task is counted, not fatal
            return (type(exc).__name__, str(exc))

    @staticmethod
    def outcome(raw):
        return raw if isinstance(raw, tuple) else outcome_of_verdict(raw)


class CliProcessRunner:
    """One ``python -m quadinv.cli verify`` process per task."""

    def __init__(self, paths):
        self.paths = paths

    def __call__(self, i):
        done = run_child([sys.executable, "-m", "quadinv.cli", "verify", self.paths[i], "--report", "json"])
        return done.returncode, done.stdout

    @staticmethod
    def outcome(raw):
        return outcome_of_report(*raw)


class CliInProcessRunner:
    """``quadinv.cli.main`` called in this process, so spans can be recorded."""

    def __init__(self, mods, paths):
        self.cli = mods["cli"]
        self.paths = paths

    def __call__(self, i):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(["verify", self.paths[i], "--report", "json"])
        return code, buffer.getvalue()

    @staticmethod
    def outcome(raw):
        return outcome_of_report(*raw)


def calibration_seconds() -> float:
    start = time.perf_counter()
    a = CAL_A.copy()
    for _ in range(50):
        for p in range(7):
            a[:, p] = 0.6 * a[:, p] - 0.8 * a[:, p + 1]
    for _ in range(2):
        np.einsum("ni,ij,nj->n", CAL_V, CAL_Q, CAL_V)
    return time.perf_counter() - start


def timed_loop(runner, order: list[int], seconds: float, tracing=None, calibrate=None, known_defect=None):
    """Run tasks in pass ``order`` (task indices) until the time is up and one pass is done.

    Returns (records, elapsed, dropped) with one (task index, seconds,
    outcome, traced) record per run.  Only a task's first passing outcome is
    kept in full for the reference check; repeats keep status and value, so
    memory does not grow with the number of runs.  With ``tracing`` (an
    :class:`spans.Instrumented`) each task runs twice, untraced and traced,
    in an order that alternates from task to task and pass to pass, so both
    modes see the same mix.  With ``calibrate`` (a function returning
    seconds), each run is followed by one calibration run and the records
    are (index, seconds, outcome, traced, calibration seconds).  A task
    that raises ``known_defect`` leaves the loop at once, without a record,
    and its index goes into ``dropped``; the same input raises it every time.
    """
    records = []
    kept, dropped = set(), set()
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for index in order:
            if index in dropped:
                continue
            if passes > 0 and time.perf_counter() >= deadline:
                break
            modes = [False]
            if tracing is not None:
                modes = [False, True] if (index + passes) % 2 == 0 else [True, False]
            for traced in modes:
                if traced:
                    tracing.tracer.task = index
                with tracing if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    raw = runner(index)
                    seconds_taken = time.perf_counter() - t0
                outcome = runner.outcome(raw)
                if isinstance(outcome, tuple) and outcome[0] == known_defect:
                    dropped.add(index)
                    break
                if not isinstance(outcome, tuple):
                    if index in kept:
                        outcome = reference.Outcome(outcome.status, outcome.value)
                    kept.add(index)
                record = (index, seconds_taken, outcome, traced)
                if calibrate is not None:
                    record += (calibrate(),)
                records.append(record)
        passes += 1
    return records, time.perf_counter() - start, dropped


# ----------------------------------------------------------------------------- checks


class Checker:
    """Reference-checks each distinct task once; repeats must match the first result."""

    def __init__(self, specs):
        self.specs = specs
        self.first: dict[int, object] = {}
        self.problems: dict[int, list[str]] = {}
        self.k_pairs: dict[int, tuple[int, int]] = {}

    def failure(self, index: int, outcome) -> str | None:
        """Why this run of task ``index`` failed, or None when it passed."""
        spec = self.specs[index]
        if isinstance(outcome, tuple):
            return f"{spec.name}: raised {outcome[0]}: {outcome[1]}"
        if index not in self.first:
            self.first[index] = outcome
            self.problems[index], k_emp = reference.check(spec, outcome)
            if k_emp is not None:
                self.k_pairs[index] = (outcome.K, k_emp)
        if self.problems[index]:
            return f"{spec.name}: " + "; ".join(self.problems[index])
        first = self.first[index]
        same_value = (first.value is None and outcome.value is None) or (
            first.value is not None
            and outcome.value is not None
            and abs(first.value - outcome.value) <= reference.VALUE_RTOL * (1.0 + abs(first.value))
        )
        if outcome.status != first.status or not same_value:
            return f"{spec.name}: repeat gave {outcome.status} {outcome.value!r}, first {first.status} {first.value!r}"
        return None


def check_records(checker: Checker, records):
    """(indices of tasks that failed, failure count, failure messages, failure kinds)."""
    failed_tasks, failed, messages, kinds = set(), 0, [], {}
    for index, _, outcome, *_ in records:
        why = checker.failure(index, outcome)
        if why is None:
            continue
        failed_tasks.add(index)
        failed += 1
        kind = outcome[0] if isinstance(outcome, tuple) else "ReferenceMismatch"
        kinds[kind] = kinds.get(kind, 0) + 1
        if why not in messages:
            messages.append(why)
    return failed_tasks, failed, messages, kinds


def best_times(records, traced: bool = False) -> dict[int, float]:
    """Each task's fastest run: timeit's rule, since slower runs of the same
    task measure interference from other processes, not the program."""
    best: dict[int, float] = {}
    for index, seconds, _, was_traced, *_ in records:
        if was_traced == traced:
            best[index] = min(seconds, best.get(index, seconds))
    return best


# ----------------------------------------------------------------------------- metrics


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the process that ran the tasks: this one, or the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def scaled_times(records, reference_s: float) -> dict[int, float]:
    """Each task's time at the reference machine's speed.

    A run's time is divided by the rolling median of the calibration times
    within CAL_WINDOW runs of it, which tracks slow swings in the machine's
    speed without following each calibration run's own jitter; a task's time
    is the trimmed mean over its runs, times ``reference_s``.
    """
    cal = [r[4] for r in records]
    ratios: dict[int, list[float]] = {}
    for i, (index, seconds, *_) in enumerate(records):
        local = statistics.median(cal[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1])
        ratios.setdefault(index, []).append(seconds / local)
    return {index: reference_s * trimmed_mean(r) for index, r in ratios.items()}


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest fifth (at least one each, given three or more).

    Steadier than the median for the few runs a task gets, and as robust to
    the odd run slowed by another process.
    """
    ordered = sorted(values)
    cut = max(1, len(ordered) // 5) if len(ordered) >= 3 else 0
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def end_to_end(times: dict[int, float], failed_tasks: set, setup_s: float, rss_mb: float) -> dict:
    """Throughput and latency percentiles over the distinct tasks' scaled times.

    Throughput is the tasks per second of one pass; percentiles are over the
    tasks.  Any failed task makes the run incorrect, so none are reported.
    """
    if failed_tasks:
        return {}  # the failures are reported; the run is incorrect anyway
    ms = [1e3 * t for t in times.values()]
    return {
        "tasks_per_s": len(ms) / sum(times.values()),
        "task_ms_p50": statistics.median(ms),
        "task_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def raw_summary(records, failed_tasks: set, elapsed: float) -> str:
    """Every run's own time, for comparison with the best-time metrics."""
    ms = [1e3 * r[1] for r in records if r[0] not in failed_tasks]
    if len(ms) < 2:
        return "raw: fewer than two passed runs"
    p90 = statistics.quantiles(ms, n=10)[-1]
    return (f"raw: {len(records)} runs in {elapsed:.2f} s, {len(ms)} passed; "
            f"p50 {statistics.median(ms):.2f} ms, p90 {p90:.2f} ms "
            f"({sum(1 for x in ms if x > p90)} runs beyond it)")


def import_cli_ms() -> float:
    """Median wall time of ``python -c "import quadinv.cli"``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        done = run_child([sys.executable, "-c", "import quadinv.cli"])
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"importing quadinv.cli failed: {done.stderr.strip()}")
    return 1e3 * statistics.median(samples)


def cli_probe(mods, specs, workdir: Path) -> dict:
    """cli.* spans for API workloads: the first few tasks through ``cli.main`` in process."""
    paths = []
    for i, spec in enumerate(specs[:CLI_PROBE_TASKS]):
        path = workdir / f"probe{i}.json"
        path.write_text(json.dumps(spec.doc()), encoding="utf-8")
        paths.append(str(path))
    runner = CliInProcessRunner(mods, paths)
    tracer = spans.Tracer()
    with spans.Instrumented(tracer, mods):
        for i in range(len(paths)):
            runner(i)
    probe = spans.layer_metrics(tracer, len(paths))
    return {name: probe[name] for name in ("cli.parse_input.ms", "cli.run.ms", "cli.render.ms")}


def probe_defects(mods: dict, workload: str, seed: int) -> tuple[int, int, list[str]]:
    """Run the workload's known-defect tasks once, untimed.

    Returns how many raise the known defect, how many ran, and the problems
    that are not the defect: another error, or a result that disagrees with
    the reference.
    """
    specs = workloads.defect_probes(workload, seed)
    runner = ApiRunner(mods, to_tasks(mods, specs))
    checker = Checker(specs)
    raised, problems = 0, []
    for i in range(len(specs)):
        outcome = runner.outcome(runner(i))
        if isinstance(outcome, tuple) and outcome[0] == KNOWN_DEFECT:
            raised += 1
            continue
        why = checker.failure(i, outcome)
        if why is not None:
            problems.append(f"defect probe {why}")
    return raised, len(specs), problems


def cutoff_metrics(checker: Checker) -> dict:
    """K and K / K_emp over distinct tasks with an optimum.

    The ratio is (K + 1) / (K_emp + 1): steps enumerated over steps needed
    to reach the maximum, both counted from step 0.
    """
    ks = [k for k, _ in checker.k_pairs.values()]
    ratios = [(k + 1) / (k_emp + 1) for k, k_emp in checker.k_pairs.values()]
    k_p50, k_max = spans.quantile_summary(ks)
    r_p50, r_max = spans.quantile_summary(ratios)
    return {
        "horizon.K.p50": k_p50,
        "horizon.K.max": k_max,
        "horizon.K_over_Kemp.p50": r_p50,
        "horizon.K_over_Kemp.max": r_max,
    }


# ----------------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadinv" / "__init__.py").is_file():
        print(f"error: no quadinv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    mods = import_quadinv()
    print("env: " + json.dumps(environment(args.seed, args.workload)))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        return measure(args, mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, mods, workdir: Path) -> int:
    setup_s, (specs, tasks) = set_up(mods, args.workload, args.seed, workdir)
    has_defect = args.workload in workloads.DEFECT_PROBES
    checker = Checker(specs)
    n = len(specs)
    if args.workload == "cli":
        # spans are recorded in this process, so the traced run calls cli.main here
        runner = CliInProcessRunner(mods, tasks) if args.trace else CliProcessRunner(tasks)
    else:
        runner = ApiRunner(mods, tasks)

    known_defect = KNOWN_DEFECT if has_defect else None
    if not args.trace:
        cal_name, calibrate = ("child", child_calibration_seconds) if args.workload == "cli" else (
            "kernel", calibration_seconds)
        calibrate()  # warm up
        records, elapsed, dropped = timed_loop(runner, workloads.pass_order(specs), args.seconds,
                                               calibrate=calibrate, known_defect=known_defect)
        rss_mb = peak_rss_mb(args.workload)
        failed_tasks, failed, unexpected, kinds = check_records(checker, records)
        times = scaled_times(records, CAL_REF_S[cal_name])
        metrics = end_to_end(times, failed_tasks, setup_s, rss_mb)
        print(raw_summary(records, failed_tasks, elapsed))
        cal_ms = sorted(1e3 * r[4] for r in records)
        print(f"calibration ({cal_name}): {len(cal_ms)} runs, min {cal_ms[0]:.3f} ms, "
              f"median {statistics.median(cal_ms):.3f} ms, max {cal_ms[-1]:.3f} ms; "
              f"reference {1e3 * CAL_REF_S[cal_name]:.3f} ms")
    else:
        tracer = spans.Tracer()
        # each task once per pass, so the per-task means weigh every task alike
        records, _, dropped = timed_loop(runner, list(range(n)), args.seconds, spans.Instrumented(tracer, mods),
                                         known_defect=known_defect)
        _, failed, unexpected, kinds = check_records(checker, records)
        traced_s = sum(best_times(records, traced=True).values())
        plain_s = sum(best_times(records).values())
        layers = spans.layer_metrics(tracer, sum(1 for r in records if r[3]))
        tracer.task = -1
        with spans.Instrumented(tracer, mods):
            build(mods, args.workload, args.seed, workdir)  # box_to_vertices spans from set-up
        layers["model.box_to_vertices.ms"] = spans.layer_metrics(tracer, 1)["model.box_to_vertices.ms"]
        if args.workload != "cli":
            layers.update(cli_probe(mods, specs, workdir))
        layers["cli.import_ms"] = import_cli_ms()
        layers.update(cutoff_metrics(checker))
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
        unexpected += spans.self_test(tracer)
        split = spans.group_breakdown(tracer, [spec.group for spec in specs])
        for group in sorted(split):
            print(f"stages {group}: " + json.dumps({k: round(v, 4) for k, v in split[group].items()}))
        metrics = layers
    if has_defect:
        raised, probed, defect_problems = probe_defects(mods, args.workload, args.seed)
        unexpected += defect_problems
        left = ", ".join(specs[i].name for i in sorted(dropped)) or "none"
        print(f"known defect: {KNOWN_DEFECT} raised by {raised} of {probed} probe tasks (run once, untimed) "
              f"and by {len(dropped)} timed tasks, which left the loop ({left}); "
              f"none counted in attempted/failed")
    attempted = len(records)

    print(f"tasks: {attempted} attempted, {failed} failed (fail_frac {failed / attempted:.4f}) "
          f"by kind {json.dumps(kinds)}; {n} distinct tasks per pass")
    if checker.k_pairs:
        pairs = sorted(checker.k_pairs.items())
        print("cutoffs (task: K, K_emp): " + ", ".join(
            f"{specs[i].name}: {k}, {k_emp}" for i, (k, k_emp) in pairs))
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        unexpected.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from {DECLARED.name}")
    for why in unexpected:
        print(f"FAILED {why}", file=sys.stderr)
    correct = not unexpected and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
