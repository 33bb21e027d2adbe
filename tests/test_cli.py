import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadinv
from quadinv import horizon
from quadinv.cli import build_parser, main, parse_input, render_text
from quadinv.errors import DimensionMismatch, ParseError
from quadinv.horizon import evaluate_candidates, objective_scores
from quadinv.model import homogenize, linear_range_property
from support import HARMONIC_A, ROTATION_A, ROTATION_B, tail_style_task


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def harmonic_doc(Q, q=(0.0, 0.0), alpha=None):
    prop = {"Q": np.asarray(Q).tolist(), "q": list(q)}
    if alpha is not None:
        prop["alpha"] = alpha
    return {
        "dimension": 2,
        "A": HARMONIC_A.tolist(),
        "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
        "property": prop,
    }


def rotation_doc(Q, alpha=None, translated=True):
    prop = {"Q": np.asarray(Q).tolist(), "q": [0.0, 0.0]}
    if alpha is not None:
        prop["alpha"] = alpha
    lo, hi = ([-1, -1], [2, 2]) if translated else ([-1, -1], [1, 1])
    doc = {
        "dimension": 2,
        "A": ROTATION_A.tolist(),
        "initial_set": {"box": {"lower": lo, "upper": hi}},
        "property": prop,
    }
    if translated:
        doc["b"] = ROTATION_B.tolist()
    return doc


class TestParseInput:
    def test_harmonic_file(self, tmp_path):
        path = write_json(tmp_path / "task.json", harmonic_doc(np.eye(2), alpha=2.0))
        task = parse_input(path)
        assert task.dim == 2
        assert task.init.n_vertices == 4
        assert task.objective.alpha == 2.0
        assert task.system.is_linear

    def test_rectangular_a_rejected(self, tmp_path):
        doc = harmonic_doc(np.eye(2))
        doc["A"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(DimensionMismatch):
            parse_input(path)

    def test_dimension_cross_check(self, tmp_path):
        for declared in (3, [1]):
            doc = harmonic_doc(np.eye(2))
            doc["dimension"] = declared
            path = write_json(tmp_path / "bad.json", doc)
            with pytest.raises(ParseError):
                parse_input(path)

    @pytest.mark.parametrize(
        "section, value",
        [
            ("initial_set", 5),
            ("initial_set", {"box": 5}),
            ("property", 5),
            ("property", {"linear_range": 5}),
        ],
        ids=["initial_set", "box", "property", "linear_range"],
    )
    def test_non_object_section_exit_three(self, tmp_path, capsys, section, value):
        doc = harmonic_doc(np.eye(2), alpha=2.0)
        doc[section] = value
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["verify", path, "--report", "json"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "section, value",
        [
            ("property", {"Q": np.eye(2).tolist(), "alpha": [1]}),
            ("initial_set", {"box": {"lower": {"a": 1}, "upper": [1, 1]}}),
            ("property", {"Q": {"x": 1}, "alpha": 1.0}),
            ("property", {"linear_range": {"c": {"a": 1}, "lower": 0, "upper": 1}}),
        ],
        ids=["alpha", "box-lower", "Q", "linear-range-c"],
    )
    def test_non_numeric_leaf_exit_three(self, tmp_path, capsys, section, value):
        doc = harmonic_doc(np.eye(2), alpha=2.0)
        doc[section] = value
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["verify", path, "--report", "json"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"

    def test_linear_range_matches_constructor(self, tmp_path):
        doc = {
            "A": HARMONIC_A.tolist(),
            "initial_set": {"vertices": [[-1, -1], [1, 1], [1, -1], [-1, 1]]},
            "property": {
                "linear_range": {"c": [1.0, -0.5], "lower": -2.0, "upper": 3.0}
            },
        }
        task = parse_input(write_json(tmp_path / "band.json", doc))
        want = linear_range_property([1.0, -0.5], -2.0, 3.0)
        np.testing.assert_allclose(task.objective.Q, want.Q)
        np.testing.assert_allclose(task.objective.q, want.q)
        assert task.objective.alpha == want.alpha

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_input("/nonexistent/task.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_input(str(path))


class TestVerifyCommand:
    def test_proved_exit_and_report(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "v.json", harmonic_doc(np.diag([0.0, 1.0]), alpha=1.0)
        )
        code = main(["verify", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Proved" in out
        assert "optimum: 1 " in out
        assert "K = " in out
        assert "via identity" in out or "via q-augmented" in out or "via blend" in out
        assert ", scanned to step " in out

    def test_json_reports_stop_next_to_cutoff(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "s.json", harmonic_doc(np.diag([1.0, 0.0]), alpha=1.0)
        )
        assert main(["verify", path, "--report", "json"]) == 1
        optimum = json.loads(capsys.readouterr().out)["optimum"]
        assert (optimum["bound"]["K"], optimum["stop"], optimum["k"]) == (188, 96, 61)

    def test_disproved_with_witness(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "w.json", rotation_doc(np.diag([0.0, 1.0]), alpha=16.0)
        )
        code = main(["verify", path, "--report", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "Disproved"
        assert report["optimum"]["value"] == pytest.approx(21.1427, abs=1e-3)
        assert len(report["witness"]) == 5

    def test_alpha_override(self, tmp_path):
        path = write_json(
            tmp_path / "o.json", rotation_doc(np.diag([0.0, 1.0]), alpha=16.0)
        )
        assert main(["verify", path, "--alpha-override", "22"]) == 0

    def test_tail_bound_exit_zero(self, tmp_path, capsys):
        doc = {
            "A": [[0.5]],
            "initial_set": {"vertices": [[0.25], [0.5]]},
            "property": {"Q": [[1.0]], "q": [-1.0], "alpha": 0.1},
        }
        path = write_json(tmp_path / "tail.json", doc)
        code = main(["verify", path, "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ProvedByTailBound"
        assert report["tail"]["bound"] <= 0.1

    def test_json_and_text_report_tail_stop(self, tmp_path, capsys):
        doc = {
            "A": [[0.5]],
            "initial_set": {"vertices": [[0.25], [0.5]]},
            "property": {"Q": [[1.0]], "q": [-1.0], "alpha": -0.05},
        }
        path = write_json(tmp_path / "tail.json", doc)
        assert main(["verify", path, "--report", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["tail"]["horizon"], report["tail"]["stop"]) == (10_000, 3)
        assert main(["verify", path]) == 1
        assert ", scanned to step 3" in capsys.readouterr().out

    def test_zero_map_exit_zero(self, tmp_path):
        doc = {
            "A": [[0.0, 0.0], [0.0, 0.0]],
            "b": [0.5, -0.25],
            "initial_set": {"vertices": [[1.0, 1.0], [-1.0, 1.0]]},
            "property": {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0], "alpha": 3.0},
        }
        assert main(["verify", write_json(tmp_path / "zero.json", doc)]) == 0

    def test_inconclusive_exit_two(self, tmp_path):
        doc = {
            "A": [[0.5]],
            "initial_set": {"vertices": [[0.25], [0.5]]},
            "property": {"Q": [[1.0]], "q": [-1.0], "alpha": 0.0},
        }
        path = write_json(tmp_path / "inc.json", doc)
        assert main(["verify", path]) == 2

    def test_unstable_exit_four(self, tmp_path, capsys):
        doc = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "property": {"Q": [[1.0, 0.0], [0.0, 1.0]], "alpha": 4.0},
        }
        path = write_json(tmp_path / "u.json", doc)
        code = main(["verify", path, "--report", "json"])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "Unstable"

    def test_missing_alpha_exit_three(self, tmp_path):
        path = write_json(tmp_path / "na.json", harmonic_doc(np.eye(2)))
        assert main(["verify", path]) == 3

    def test_missing_file_exit_three(self):
        assert main(["verify", "/nonexistent.json"]) == 3


def task_doc(task):
    return {
        "A": task.system.A.tolist(),
        "b": task.system.b.tolist(),
        "initial_set": {"vertices": task.init.vertices.tolist()},
        "property": {
            "Q": task.objective.Q.tolist(),
            "q": task.objective.q.tolist(),
            "alpha": task.objective.alpha,
        },
    }


class TestBoundStaging:
    """bound stages its cutoff as verify does: certificate, scan and envelope."""

    def test_tail_task_scans_no_more_than_verify(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "tail.json", task_doc(tail_style_task(3, 0.05)))
        steps = []
        original = horizon._step_value_blocks

        def counting(task, bound):
            for block in original(task, bound):
                steps[-1] += len(block[1])
                yield block

        monkeypatch.setattr(horizon, "_step_value_blocks", counting)
        for command, code in (("verify", 0), ("bound", 5)):
            steps.append(0)
            assert main([command, path]) == code
        assert 0 < steps[1] <= steps[0]

    @pytest.mark.parametrize(
        "doc",
        [
            harmonic_doc(np.diag([1.0, 0.0]), alpha=1.0),
            harmonic_doc(np.eye(2), alpha=2.0),
            rotation_doc(np.diag([1.0, 0.0]), alpha=16.0),
            rotation_doc(np.eye(2), alpha=16.0),
        ],
        ids=["harmonic-x1", "harmonic-norm", "rotation-x1", "rotation-norm"],
    )
    def test_best_cutoff_is_verify_cutoff(self, tmp_path, capsys, doc):
        path = write_json(tmp_path / "paper.json", doc)
        assert main(["bound", path, "--report", "json"]) == 0
        candidates = json.loads(capsys.readouterr().out)["candidates"]
        [identity] = [c for c in candidates if c["strategy"] == "identity"]
        main(["verify", path, "--report", "json"])
        bound = json.loads(capsys.readouterr().out)["optimum"]["bound"]
        assert (identity["K"], identity["strategy"]) == (bound["K"], bound["strategy"])


class TestBoundCommand:
    def test_candidate_table(self, tmp_path, capsys):
        path = write_json(tmp_path / "b.json", harmonic_doc(np.diag([1.0, 0.0])))
        code = main(["bound", path, "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"]["K"] == min(c["K"] for c in report["candidates"])
        strategies = {c["strategy"] for c in report["candidates"]}
        assert "identity" in strategies and "q-augmented" in strategies
        for cand in report["candidates"]:
            assert set(cand["scores"]) == {"F0", "F1", "F2", "F3", "F4"}

    def test_scores_are_objective_scores(self, tmp_path, capsys):
        path = write_json(tmp_path / "b.json", rotation_doc(np.eye(2)))
        assert main(["bound", path, "--report", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        hom = homogenize(parse_input(path))
        shapes = {bound.strategy_id: bound.certificate.P for bound in evaluate_candidates(hom)}
        assert [c["strategy"] for c in report["candidates"]] == list(shapes)
        for cand in report["candidates"]:
            scores = objective_scores(shapes[cand["strategy"]], hom.objective.Q, hom.init)
            assert [cand["scores"][f"F{i}"] for i in range(5)] == list(scores)

    def test_scores_reuse_certificate_eigenvalues(self, tmp_path, monkeypatch):
        # F4 = lmax(P) comes from each shape's certificate, not from a sixth
        # decomposition per shape: 25 eigh/eigvalsh calls instead of 30,
        # besides the objective's one eigh(Q)
        q, calls = np.diag([1.0, 0.0]), []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(m, *args, _original=original, **kwargs):
                if not np.array_equal(m, q):
                    calls.append(1)
                return _original(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        path = write_json(tmp_path / "b.json", harmonic_doc(q))
        assert main(["bound", path]) == 0
        assert len(calls) == 25

    @pytest.mark.parametrize("command", ["verify", "bound"])
    def test_unstable_reported_before_singular_shift(self, tmp_path, capsys, command):
        # Id - A is singular too, but A's certificate is staged first
        doc = {
            "A": [[1.0, 0.0], [0.0, 0.5]],
            "b": [1.0, 0.0],
            "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "property": {"Q": [[1.0, 0.0], [0.0, 1.0]], "alpha": 4.0},
        }
        path = write_json(tmp_path / "u.json", doc)
        assert main([command, path, "--report", "json"]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "Unstable"

    def test_user_p_gives_unit_cutoff(self, tmp_path, capsys):
        task_path = write_json(
            tmp_path / "rot.json", rotation_doc(np.eye(2), translated=False)
        )
        p_path = write_json(tmp_path / "p.json", {"P": [[1.0, 0.0], [0.0, 1.0]]})
        code = main(["bound", task_path, "--user-P", p_path, "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"]["K"] == 1
        assert report["candidates"][-1]["strategy"] == "user-min-scale"
        assert report["candidates"][-1]["K"] == 1

    def test_invalid_user_p_exit_three(self, tmp_path):
        task_path = write_json(tmp_path / "h.json", harmonic_doc(np.eye(2)))
        p_path = write_json(tmp_path / "p.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["bound", task_path, "--user-P", p_path]) == 3

    def test_asymmetric_user_p_is_invalid_user_p(self, tmp_path, capsys):
        task_path = write_json(tmp_path / "h.json", harmonic_doc(np.eye(2), alpha=2.0))
        p_path = write_json(tmp_path / "p.json", [[1.0, 0.5], [0.0, 1.0]])
        code = main(["bound", task_path, "--user-P", p_path, "--report", "json"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "InvalidUserP"

    def test_user_p_checked_on_tail_path(self, tmp_path, capsys):
        # verify takes the tail path here, and bound finds no cutoff (exit 5);
        # a 2x2 P on a 1-D system is still rejected before any step is scanned
        doc = {
            "A": [[0.5]],
            "initial_set": {"vertices": [[0.25], [0.5]]},
            "property": {"Q": [[1.0]], "q": [-1.0], "alpha": 0.1},
        }
        task_path = write_json(tmp_path / "c.json", doc)
        assert main(["verify", task_path]) == 0
        assert main(["bound", task_path]) == 5
        capsys.readouterr()
        p_path = write_json(tmp_path / "p.json", [[1.0, 0.5], [0.0, 1.0]])
        code = main(["bound", task_path, "--user-P", p_path, "--report", "json"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "InvalidUserP"

    def test_singular_user_p_is_invalid_user_p(self, tmp_path, capsys):
        doc = {
            "A": [[0.5, 0.0], [0.0, 0.5]],
            "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "property": {"Q": [[1.0, 0.0], [0.0, 1.0]], "alpha": 2.0},
        }
        task_path = write_json(tmp_path / "half.json", doc)
        p_path = write_json(tmp_path / "p.json", [[1.0, 0.0], [0.0, 0.0]])
        code = main(
            ["bound", task_path, "--user-P", p_path, "--epsilon", "1e-13", "--report", "json"]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "InvalidUserP"

    def test_counterexample_bound_fails_with_engine_code(self, tmp_path):
        doc = {
            "A": [[0.5]],
            "initial_set": {"vertices": [[0.25], [0.5]]},
            "property": {"Q": [[1.0]], "q": [-1.0]},
        }
        path = write_json(tmp_path / "c.json", doc)
        assert main(["bound", path, "--kstrict-cap", "100"]) == 5

    def test_no_positive_step_names_the_cap(self, tmp_path, capsys):
        # with Q = 0 the identity shape's envelope rules out a positive step
        # value at once; the message gives the cap the caller asked for
        doc = {
            "A": [[0.5, 0.1], [0.0, 0.5]],
            "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "property": {"Q": [[0.0, 0.0], [0.0, 0.0]]},
        }
        path = write_json(tmp_path / "zero.json", doc)
        assert main(["bound", path, "--report", "json"]) == 5
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "AssumptionViolated"
        assert error["message"] == (
            "no strictly positive step value within cap 10000; "
            "the envelope rules one out after step 0"
        )


class TestSimulateCommand:
    def test_sample_count_and_sup(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", harmonic_doc(np.eye(2)))
        code = main(["simulate", path, "--oracle-horizon", "300", "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["nu"]) == 301
        assert report["sup"] == pytest.approx(2.0, abs=1e-9)
        assert report["arg_sup"] == 0
        assert report["k_strict"] == 0


class TestExportCommand:
    def test_structure_and_feedback_loop(self, tmp_path, capsys):
        path = write_json(tmp_path / "e.json", rotation_doc(np.eye(2)))
        code = main(["export", path, "--report", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 2
        assert {p["id"] for p in report["problems"]} == {"unit-scale", "min-scale"}
        assert [o["id"] for o in report["objectives"]] == ["F0", "F1", "F2", "F3", "F4"]
        assert report["epsilon"] == 0.01
        np.testing.assert_allclose(report["system"]["A"], ROTATION_A)
        assert len(report["homogenized"]["vertices"]) == 4


class TestReports:
    def test_json_roundtrip(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "r.json", rotation_doc(np.diag([1.0, 0.0]), alpha=16.0)
        )
        main(["verify", path, "--report", "json"])
        report = json.loads(capsys.readouterr().out)
        assert json.loads(json.dumps(report)) == report

    def test_text_rendering_handles_errors(self):
        text = render_text({"error": {"type": "ParseError", "message": "nope"}})
        assert "ParseError" in text and "nope" in text

    def test_tolerance_override_flag(self, tmp_path):
        path = write_json(
            tmp_path / "t.json", harmonic_doc(np.diag([0.0, 1.0]), alpha=1.0)
        )
        assert main(["verify", path, "--tol", "alpha_slack=1e-6"]) == 0
        assert main(["verify", path, "--tol", "no_such_field=1"]) == 3
        assert main(["verify", path, "--tol", "alpha_slack=abc"]) == 3

    def test_integer_tolerance_override(self, tmp_path):
        doc = harmonic_doc(np.diag([0.0, 1.0]), alpha=1.0)
        doc["initial_set"] = {"vertices": [[-1, -1], [1, 1], [1, -1], [-1, 1]]}
        path = write_json(tmp_path / "t.json", doc)
        assert main(["verify", path, "--tol", "vertex_sig_digits=10"]) == 0
        assert main(["verify", path, "--tol", "vertex_sig_digits=10.5"]) == 3

    @pytest.mark.parametrize(
        "alpha, extra, field",
        [
            (1.0, ["--tol", "alpha_slack=nan"], "alpha_slack"),
            (1.0, ["--tol", "strict_pos=nan"], "strict_pos"),
            (1.0, ["--tol", "pd_rel=-1"], "pd_rel"),
            (1.0, ["--alpha-override", "nan"], "--alpha-override"),
            (float("nan"), [], "'alpha'"),
        ],
        ids=["alpha-slack-nan", "strict-pos-nan", "pd-rel-negative",
             "alpha-override-nan", "document-alpha-nan"],
    )
    def test_non_finite_setting_is_json_parse_error(
        self, tmp_path, capsys, alpha, extra, field
    ):
        doc = {
            "A": [[0.5, 0.0], [0.0, 0.5]],
            "initial_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "property": {"Q": [[1.0, 0.0], [0.0, 1.0]], "alpha": 1.0},
        }
        # the optimum 2 is reached at step 0: Disproved with valid settings
        assert main(["verify", write_json(tmp_path / "ok.json", doc)]) == 1
        capsys.readouterr()
        doc["property"]["alpha"] = alpha  # json writes NaN as a bare literal
        path = write_json(tmp_path / "half.json", doc)
        assert main(["verify", path, *extra, "--report", "json"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError" and field in error["message"]

    def test_removed_tolerance_is_a_parse_error(self, tmp_path, capsys):
        path = write_json(tmp_path / "t.json", harmonic_doc(np.eye(2), alpha=2.0))
        code = main(["verify", path, "--tol", "eig_max_sweeps=5", "--report", "json"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"

    def test_usage_error_exit_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])  # missing input path
        assert exc.value.code == 3
        capsys.readouterr()


class TestSurface:
    FLAGS = {
        "verify": {"--report", "--tol", "--kstrict-cap", "--horizon-cap", "--alpha-override"},
        "bound": {"--report", "--tol", "--kstrict-cap", "--user-P", "--epsilon"},
        "simulate": {"--report", "--tol", "--oracle-horizon"},
        "export": {"--report", "--tol", "--epsilon"},
    }

    def test_each_subcommand_registers_only_its_flags(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        registered = {
            name: {s for a in cmd._actions for s in a.option_strings} - {"-h", "--help"}
            for name, cmd in sub.choices.items()
        }
        assert registered == self.FLAGS

    def test_strategy_defaults_per_command(self, tmp_path, capsys):
        # each command has one fixed set of shapes: verify cuts off with the
        # identity shape, bound lists every built-in shape
        path = write_json(tmp_path / "t.json", harmonic_doc(np.eye(2), alpha=2.0))
        main(["verify", path, "--report", "json"])
        assert json.loads(capsys.readouterr().out)["optimum"]["bound"]["strategy"] == "identity"
        assert main(["bound", path, "--report", "json"]) == 0
        candidates = json.loads(capsys.readouterr().out)["candidates"]
        assert [c["strategy"] for c in candidates] == list(horizon.SHAPES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--strategy", "user"],
            ["export", "--user-P", "/nonexistent.json"],
            ["verify", "--strategy", "auto"],
            ["bound", "--strategy", "identity"],
            ["verify", "--user-P", "/nonexistent.json"],
            ["verify", "--epsilon", "0.01"],
        ],
        ids=["simulate-strategy", "export-user-p", "verify-strategy", "bound-strategy",
             "verify-user-p", "verify-epsilon"],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        path = write_json(tmp_path / "s.json", harmonic_doc(np.eye(2), alpha=2.0))
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + [path] + argv[1:])
        assert exc.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("verify", "--horizon-cap", "0"),
            ("bound", "--kstrict-cap", "-1"),
            ("simulate", "--oracle-horizon", "0"),
            ("export", "--epsilon", "nan"),
        ],
    )
    def test_nonpositive_setting_is_json_parse_error(
        self, tmp_path, capsys, command, flag, value
    ):
        path = write_json(tmp_path / "c.json", harmonic_doc(np.eye(2), alpha=2.0))
        assert main([command, path, flag, value, "--report", "json"]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError" and flag in error["message"]


def test_cli_import_does_not_load_scipy():
    src = str(Path(quadinv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = "import quadinv.cli, sys; assert 'scipy' not in sys.modules"
    done = subprocess.run(
        [sys.executable, "-c", check],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
