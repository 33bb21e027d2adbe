import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from quadinv import verifier
from support import counterexample_task, harmonic_task, scans_built

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py"
)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def record(margin=0.8, K=5, lmax_P=1e4):
    """One task's record, with a verify run whose JSON report carries the margin."""
    bound = {"K": K, "residual_margin": margin, "norm_A_P": 0.9}
    return {"task": {
        "status": "Proved", "K": K, "value": 1.5, "lmax_P": lmax_P,
        "cli": {"verify_json": {"exit": 0, "stdout": {"optimum": {"bound": bound}}, "stderr": ""}},
    }}


def diff(tmp_path, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (a, b)):
        path.write_text(json.dumps(rec))
    return parity.diff(*map(str, paths))


class TestDiff:
    def test_record_against_itself_passes(self, tmp_path, capsys):
        assert diff(tmp_path, record(), record()) == 0
        assert "1 tasks, 0 differing exact fields" in capsys.readouterr().out

    def test_changed_exact_field_fails(self, tmp_path, capsys):
        assert diff(tmp_path, record(), record(K=6)) == 1
        assert "task K: 5 -> 6" in capsys.readouterr().out

    @pytest.mark.parametrize("move, code", [(1e-8, 0), (1e-3, 1)])
    def test_margin_is_read_against_lmax_P(self, tmp_path, capsys, move, code):
        # 0.8 moved 1e-8 relative is 8e-13 of lmax_P = 1e4, within FLOAT_REL
        assert diff(tmp_path, record(), record(margin=0.8 * (1.0 + move))) == code
        capsys.readouterr()

    def test_other_float_leaves_are_read_against_themselves(self, tmp_path, capsys):
        b = record()
        b["task"]["cli"]["verify_json"]["stdout"]["optimum"]["bound"]["norm_A_P"] *= 1.0 + 1e-8
        assert diff(tmp_path, record(), b) == 1
        capsys.readouterr()

    def test_work_is_printed_not_compared(self, tmp_path, capsys):
        a, b = record(), record()
        a["task"].update(steps_computed=1365, stop=3)
        b["task"].update(steps_computed=819, stop=3)
        assert diff(tmp_path, a, b) == 0
        assert "task: steps computed 1365 -> 819, read 4 -> 4" in capsys.readouterr().out


class TestRecord:
    @pytest.mark.parametrize(
        "task, read",
        [(harmonic_task(np.diag([1.0, 0.0]), alpha=1.0), "stop"),
         (counterexample_task(alpha=0.1), "tail_stop")],
        ids=["cutoff", "tail-path"],
    )
    def test_work_covers_the_steps_read(self, task, read):
        # the work column counts what the verify's scan drew: at least every
        # step up to the last one it read
        record = parity._record(verifier, scans_built, task)
        assert record["error"] is None and record[read] is not None
        assert record[parity.WORK] >= record[read] + 1
