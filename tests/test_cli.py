"""End-to-end checks of the ``hv`` command line."""

import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
import yaml

from hybrid_volterra import cli, problem_io, solvers
from hybrid_volterra.cli import main
from hybrid_volterra.expressions import EvaluationError
from oracles import read_solution_csv

EXP_FILE = """\
horizon: 1.0
x0: "1"
f1: "x"
lipschitz: {L1: 1.0}
"""

STEP_FILE = """\
horizon: 2.0
x0: "1"
G1: "1"
tau: [1.0]
h: 0.5
"""

CROWDED_FILE = """\
horizon: 2.0
x0: "1"
G1: "1"
tau: [1.0, 1.2]
h: 0.5
"""

SERIES_FILE = """\
kind: series
horizon: 1.0
y0: "1"
kernels: ["x1"]
lipschitz: [1.0]
"""

MOVING_FILE = """\
horizon: 1.0
x0: "0"
sigma: ["0.5*t"]
"""

BLOW_UP_FILE = """\
horizon: 3
x0: "1"
f1: "exp(x)"
"""

DOMAIN_ERROR_FILE = """\
horizon: 1
x0: "0"
f1: "1/x"
"""

# f2 splits into x * (1/x1), and 1/x1 fails at the first node
F2_DOMAIN_ERROR_FILE = """\
horizon: 1
x0: "t"
f2: "x/x1"
"""

# f2 splits into exp(x) * exp(x1), and the iteration overflows
F2_BLOW_UP_FILE = """\
horizon: 3
x0: "1"
f2: "exp(x)*exp(x1)"
"""

FORCING_ERROR_FILE = """\
horizon: 1
x0: "1/t"
f1: "x"
"""

SERIES_BLOW_UP_FILE = """\
kind: series
horizon: 2
y0: "1"
kernels: ["exp(x1)"]
"""

# the order-2 kernel splits into x1 * (x2/(s2 - 0.25)), and the second
# factor fails at the node at 0.25; raised to the power 1 it does not split
# and takes the cube path
SERIES_DOMAIN_ERROR_FILE = """\
kind: series
horizon: 1
y0: "1"
kernels: [null, "{kernel}"]
quadrature: {{nodes_per_segment: 8}}
"""

LOG_FILE = """\
horizon: 1
x0: "1"
f1: "log(x)"
"""

# one sweep takes x from 1 to 1 - 2t, below 0 past t = 0.5, so the image of
# that iterate fails on log(x)
RESIDUAL_ERROR_FILE = """\
horizon: 1
x0: "1"
f1: "-3*log(x) - 2"
quadrature: {nodes_per_segment: 16}
solver: {kmax: 1}
"""

# the series form of RESIDUAL_ERROR_FILE: one sweep takes y to 1 - 2t, and
# its image fails on log(x1)
SERIES_RESIDUAL_ERROR_FILE = """\
kind: series
horizon: 1
y0: "1"
kernels: ["-3*log(x1) - 2"]
quadrature: {nodes_per_segment: 16}
solver: {kmax: 1}
"""

# sigma is 0.5 at every sample point of the schedule but 1.1 at the grid
# node t = 1/3 (partition [0, 0.5, 1], three panels per segment)
SIGMA_BUMP_FILE = """\
horizon: 1.0
x0: "1"
G3: "0.1*beta"
tau: [0.75]
sigma: ["0.5 + 0.6*exp(-((t - 1/3)*100000)^2)"]
quadrature: {nodes_per_segment: 3}
"""

# f2 splits into x1 * (1/(s1 - 0.8)), and the second factor fails at the node
# at 0.8: the march converges on the first segment and stops in the second
LATER_SEGMENT_ERROR_FILE = """\
horizon: 1.0
x0: "1"
f2: "x1/(s1 - 0.8)"
tau: [0.2]
G1: "0.1"
quadrature: {nodes_per_segment: 4}
"""

# x = 1 + int_0^t x^2 ds, plus 0.1 after tau = 0.5, blows up after t = 1:
# the march converges on the first segment and diverges in the second
LATER_BLOW_UP_FILE = """\
horizon: 2.0
x0: "1"
f1: "x*x"
tau: [0.5]
G1: "0.1"
quadrature: {nodes_per_segment: 16}
solver: {tol: 1.0e-10, kmax: 200}
"""

# The same blow-up with more impulses: a march that carries the unsolved
# remainder first fails in segment 1 of 4.
LATER_REMAINDER_BLOW_UP_FILE = LATER_BLOW_UP_FILE.replace("[0.5]", "[0.25, 0.5, 0.75]")

# The same blow-up past an impulse at 0.2: it first fails in the last of
# the two segments, which carries no remainder.
LAST_SEGMENT_BLOW_UP_FILE = LATER_BLOW_UP_FILE.replace("[0.5]", "[0.2]")

# x = 1 + int_0^t (-x + 0.001 log x) ds, near e^-t, past 19 impulse
# times that only cut the horizon into 20 segments.  The march that
# carries the unsolved remainder fails in the first segment: its first
# sweep takes x to 1 - t, and its second fails on the log of the values
# past t = 1.  The march of the segments alone converges.  Picard fails as
# the carrying march does.
RESCUED_BY_RESTART_FILE = """\
horizon: 2.0
x0: "1"
f1: "-x + 0.001*log(x)"
tau: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7,
      1.8, 1.9]
h: 0.1
quadrature: {nodes_per_segment: 16}
"""

HALF = ["0.5", "0", "0", "0", "0.5", "0", "0", "0", "0.5"]

# A declared constant so large that the bound matrix at a given weight has
# an entry that is not a float.  Not a *_FILE: a run without --mu takes
# another path, and tests/output_manifest.py runs this file only with --mu.
BOUND_OVERFLOW_TEXT = """\
horizon: 2.0
x0: "1"
f1: "x"
lipschitz: {L1: 1.0e+308}
"""

# Declared constants whose bound matrix at a given weight has finite
# entries, whose pair sum and determinant are not floats, and whose
# closed-form roots have a modulus past the largest float.
BOUND_PAIR_SUM_TEXT = """\
horizon: 1.0
x0: "1"
f1: "x"
tau: [0.5]
G1: "eta"
lipschitz: {L1: 1.0e+200, LG1: 1.0e+200}
"""

# One such constant: the bound matrix at a given weight has the finite trace
# 9.995e199, whose cube is not a float, and finite other invariants.
BOUND_TRACE_CUBE_TEXT = """\
horizon: 1.0
x0: "1"
f1: "x"
lipschitz: {L1: 1.0e+200}
"""

def _run(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    out, err = capsys.readouterr()
    code = excinfo.value.code
    return (0 if code is None else code), out, err


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("exp", EXP_FILE), ("step", STEP_FILE), ("crowded", CROWDED_FILE),
        ("series", SERIES_FILE), ("moving", MOVING_FILE),
        ("blow_up", BLOW_UP_FILE), ("domain_error", DOMAIN_ERROR_FILE),
        ("f2_blow_up", F2_BLOW_UP_FILE), ("f2_domain_error", F2_DOMAIN_ERROR_FILE),
        ("forcing_error", FORCING_ERROR_FILE), ("series_blow_up", SERIES_BLOW_UP_FILE),
        ("log", LOG_FILE), ("residual_error", RESIDUAL_ERROR_FILE),
        ("series_residual_error", SERIES_RESIDUAL_ERROR_FILE),
        ("later_segment_error", LATER_SEGMENT_ERROR_FILE),
        ("later_blow_up", LATER_BLOW_UP_FILE),
        ("later_remainder_blow_up", LATER_REMAINDER_BLOW_UP_FILE),
        ("last_segment_blow_up", LAST_SEGMENT_BLOW_UP_FILE),
        ("rescued_by_restart", RESCUED_BY_RESTART_FILE),
        ("bound_overflow", BOUND_OVERFLOW_TEXT), ("bound_pair_sum", BOUND_PAIR_SUM_TEXT),
        ("bound_trace_cube", BOUND_TRACE_CUBE_TEXT),
    ]:
        path = tmp_path / f"{name}.yaml"
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestSolve:
    def test_exponential_to_csv(self, capsys, tmp_path, files):
        out_csv = str(tmp_path / "x.csv")
        code, out, _ = _run(capsys, "solve", files["exp"], "--out", out_csv)
        assert code == 0
        assert "converged: true" in out
        assert "note: " in out  # weight picked from the declared constants
        t, left, right = read_solution_csv(out_csv)
        assert t[-1] == 1.0
        assert left[-1] == pytest.approx(math.e, abs=1e-4)
        assert right[-1] == left[-1]

    def test_segment_method_on_step(self, capsys, tmp_path, files):
        out_csv = str(tmp_path / "x.csv")
        code, out, _ = _run(
            capsys, "solve", files["step"], "--method", "segment", "--out", out_csv
        )
        assert code == 0 and "method: segment" in out
        t, left, right = read_solution_csv(out_csv)
        i = list(t).index(1.0)
        assert (left[i], right[i]) == (1.0, 2.0)

    def test_report_file(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        code, _, _ = _run(
            capsys, "solve", files["step"], "--report", str(report_path)
        )
        assert code == 0
        report = yaml.safe_load(report_path.read_text())
        assert report["method"] == "picard" and report["converged"] is True
        assert report["separation"]["ok"] is True
        (jump,) = report["jumps"]
        assert jump["t"] == 1.0
        assert jump["predicted_jump"] == pytest.approx(1.0, abs=1e-12)
        assert jump["mismatch"] < 1e-10
        assert any("strict" in line for line in report["conventions"])

    def test_contraction_block_in_report(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        code, _, _ = _run(
            capsys, "solve", files["exp"], "--report", str(report_path)
        )
        assert code == 0
        block = yaml.safe_load(report_path.read_text())["contraction"]
        assert block["constants"]["L1"] == 1.0
        assert block["contractive_criterion"] is True
        assert block["contractive_eigen"] is True
        assert block["spectral_radius"] < 1.0

    def test_explicit_mu_echoed(self, capsys, files):
        code, out, _ = _run(capsys, "solve", files["exp"], "--mu", "5.0")
        assert code == 0 and "mu: 5.0" in out

    def test_explicit_mu_with_the_march_exits_1(self, capsys, tmp_path, files):
        """The march stops on plain sups and takes no weight; a ``mu`` in
        the file's solver block serves picard and is allowed."""
        code, out, err = _run(capsys, "solve", files["exp"], "--method", "segment",
                              "--mu", "5.0")
        assert code == 1 and out == ""
        assert err == "error: --mu applies to --method picard only\n"
        path = tmp_path / "mu.yaml"
        path.write_text(EXP_FILE + "solver: {mu: 5.0}\n")
        code, out, _ = _run(capsys, "solve", str(path), "--method", "segment")
        assert code == 0 and "method: segment" in out

    @pytest.mark.parametrize("name, sweeps", [
        ("later_blow_up", 27), ("later_remainder_blow_up", 54), ("last_segment_blow_up", 21),
    ])
    def test_march_failure_after_the_first_segment(self, capsys, files, name, sweeps):
        """The failure bytes of a march of the segments alone, on solutions
        that blow up after their first segment, wherever a march that
        carries the remainder first fails."""
        code, out, err = _run(capsys, "solve", files[name], "--method", "segment")
        note = f"diverged: non-finite update in sweep {sweeps + 1}"
        assert code == 4
        assert out == (f"method: segment\niterations: {sweeps}\nconverged: false\n"
                       f"final residual: nan\nnote: {note}\n")
        assert err == f"error: iteration stopped after {sweeps} sweeps: {note}\n"

    def test_march_alone_converges_where_the_carrying_march_fails(
            self, capsys, monkeypatch, tmp_path, files):
        """The restart is not only for failing runs: the march that carries
        the remainder fails here, and the march of the segments alone that
        starts again converges near e^-2, while picard stops as the carrying
        march did."""
        failures = []
        sweep = solvers._sweep

        def recorded(problem, batch, window, deltas, state, solved=None):
            try:
                return sweep(problem, batch, window, deltas, state, solved=solved)
            except EvaluationError as exc:
                # a carrying sweep keeps the values that earlier segments solved
                failures.append((solved is not None, str(exc)))
                raise

        monkeypatch.setattr(solvers, "_sweep", recorded)
        out_csv = str(tmp_path / "x.csv")
        code, out, err = _run(capsys, "solve", files["rescued_by_restart"], "--method",
                              "segment", "--out", out_csv)
        assert code == 0 and err == ""
        assert out.startswith("method: segment\niterations: 159\nconverged: true\n")
        assert failures == [(True, "log of a non-positive value")]
        t, left, _ = read_solution_csv(out_csv)
        assert (t[-1], left[-1]) == (2.0, 0.13419623813917914)
        assert left[-1] == pytest.approx(math.exp(-2.0), rel=0.01)
        code, out, err = _run(capsys, "solve", files["rescued_by_restart"])
        note = "kernel error in sweep 2: log of a non-positive value"
        assert code == 4 and f"note: {note}\n" in out
        assert err == f"error: iteration stopped after 1 sweeps: {note}\n"

    def test_bad_expression_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("horizon: 1.0\nx0: '1 +* t'\n")
        code, _, err = _run(capsys, "solve", str(path))
        assert code == 1
        assert err.startswith("error:") and "position" in err

    @pytest.mark.parametrize("text, message", [
        ("horizon: 1.0\nx0: '1'\nf1: 'x + q'\n", "f1: unknown variable 'q' (position 4)"),
        ("horizon: 1.0\nx0: '2²'\n", "x0: invalid number '2²' (position 0)"),
        ("horizon: 1.0\nx0: '1'\nf1: 'x*1e999'\n", "f1: invalid number '1e999' (position 2)"),
    ], ids=["unknown-variable", "number", "infinite-number"])
    def test_bad_expression_names_its_kernel(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        code, out, err = _run(capsys, "solve", str(path))
        assert code == 1 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("tau", ["[0.5]", ".nan"])
    def test_tau_that_is_no_finite_number_exits_1(self, capsys, tmp_path, tau):
        path = tmp_path / "tau.yaml"
        path.write_text(f"horizon: 1.0\nx0: '1'\nf1: 'x'\nsigma: ['t/2']\ntau: [{tau}]\n")
        code, out, err = _run(capsys, "solve", str(path), "--method", "segment")
        assert code == 1 and err.startswith("error: tau[0]: ") and out == ""

    def test_sigma_above_horizon_at_a_node_exits_1(self, capsys, tmp_path):
        # a bump of width 1e-5 at the node t = 1/3, which neither the
        # schedule's 1025 sample points nor its root scan come near
        path = tmp_path / "bump.yaml"
        path.write_text(SIGMA_BUMP_FILE)
        code, out, err = _run(capsys, "solve", str(path), "--method", "segment")
        assert code == 1 and out == ""
        assert err == "error: sigma values must stay within [0, horizon]\n"

    @pytest.mark.parametrize("tau", ["[0.7, 0.70000000005]", "[5.0e-11, 0.7]"],
                             ids=["near-each-other", "near-zero"])
    def test_tau_within_merge_tolerance_exits_1(self, capsys, tmp_path, tau):
        path = tmp_path / "tau.yaml"
        path.write_text(
            f"horizon: 1\ntau: {tau}\nx0: '1'\nf1: '0.3*x'\n"
            "G1: '0.4*eta + 0.1'\nG2: '0.1*etai*etaj'\nquadrature: {nodes_per_segment: 16}\n"
        )
        code, out, err = _run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "fixed impulse times" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = _run(capsys, "solve", str(tmp_path / "nope.yaml"))
        assert code == 1 and "error:" in err

    def test_series_file_redirected(self, capsys, files):
        code, _, err = _run(capsys, "solve", files["series"])
        assert code == 1 and "series-solve" in err

    def test_nonconvergence_exits_3_after_writing(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        code, _, err = _run(
            capsys, "solve", files["exp"], "--kmax", "1",
            "--report", str(report_path),
        )
        assert code == 3 and "did not converge" in err
        assert yaml.safe_load(report_path.read_text())["converged"] is False

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_blow_up_exits_4_after_writing(self, capsys, tmp_path, files, method):
        report_path = tmp_path / "report.yaml"
        csv_path = tmp_path / "x.csv"
        code, out, err = _run(
            capsys, "solve", files["blow_up"], "--method", method,
            "--report", str(report_path), "--out", str(csv_path),
        )
        assert code == 4 and "Traceback" not in err
        assert "diverged: non-finite update" in err
        report = yaml.safe_load(report_path.read_text())
        assert report["converged"] is False
        assert any(n.startswith("diverged: non-finite update") for n in report["notes"])
        # the last finite iterate is written
        _, left, right = read_solution_csv(csv_path)
        assert left.size and all(map(math.isfinite, [*left, *right]))

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_kernel_domain_error_exits_4_after_writing(
        self, capsys, tmp_path, files, method
    ):
        report_path = tmp_path / "report.yaml"
        code, _, err = _run(
            capsys, "solve", files["domain_error"], "--method", method,
            "--report", str(report_path),
        )
        assert code == 4 and "division by zero" in err
        report = yaml.safe_load(report_path.read_text())
        assert report["converged"] is False
        assert report["iterations"] == 0
        assert report["notes"] == ["kernel error in sweep 1: division by zero"]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_factored_f2_domain_error_exits_4(self, capsys, tmp_path, files, method):
        report_path = tmp_path / "report.yaml"
        code, _, err = _run(
            capsys, "solve", files["f2_domain_error"], "--method", method,
            "--report", str(report_path),
        )
        assert code == 4 and "Traceback" not in err
        report = yaml.safe_load(report_path.read_text())
        assert report["iterations"] == 0
        assert report["notes"] == ["kernel error in sweep 1: division by zero"]

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_factored_f2_blow_up_exits_4(self, capsys, tmp_path, files, method):
        csv_path = tmp_path / "x.csv"
        code, _, err = _run(
            capsys, "solve", files["f2_blow_up"], "--method", method,
            "--out", str(csv_path),
        )
        assert code == 4 and "Traceback" not in err
        assert "diverged: non-finite update" in err
        _, left, right = read_solution_csv(csv_path)
        assert left.size and all(map(math.isfinite, [*left, *right]))

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_forcing_error_exits_4_with_report_only(
        self, capsys, tmp_path, files, method
    ):
        report_path = tmp_path / "report.yaml"
        csv_path = tmp_path / "x.csv"
        code, out, err = _run(
            capsys, "solve", files["forcing_error"], "--method", method,
            "--report", str(report_path), "--out", str(csv_path),
        )
        note = "kernel error in the forcing term x0: division by zero"
        assert code == 4 and "Traceback" not in err and note in err
        report = yaml.safe_load(report_path.read_text())
        assert report["iterations"] == 0
        assert report["converged"] is False
        assert report["notes"] == [note]
        assert report["jumps"] == [] and "solution_csv" not in report
        # there is no iterate, so no CSV
        assert not csv_path.exists() and "wrote solution" not in out

    @pytest.mark.parametrize("method", ["picard", "segment"])
    def test_residual_error_exits_4_after_writing(self, capsys, tmp_path, files, method):
        report_path = tmp_path / "report.yaml"
        csv_path = tmp_path / "x.csv"
        code, out, err = _run(
            capsys, "solve", files["residual_error"], "--method", method,
            "--report", str(report_path), "--out", str(csv_path),
        )
        note = "kernel error in the residual: log of a non-positive value"
        assert code == 4 and "Traceback" not in err
        assert err == f"error: iteration stopped after 1 sweeps: {note}\n"
        assert f"note: {note}" in out and "final residual: nan" in out
        report = yaml.safe_load(report_path.read_text())
        assert report["iterations"] == 1 and report["converged"] is False
        assert report["notes"][-1] == note
        assert math.isnan(report["final_residual"]) and report["jumps"] == []
        # the last iterate, the one the sweep produced, is written
        t, left, right = read_solution_csv(csv_path)
        assert report["solution_csv"] == str(csv_path)
        assert left.tolist() == right.tolist() == pytest.approx((1 - 2 * t).tolist())

    def test_separation_gate(self, capsys, files):
        code, _, _ = _run(capsys, "solve", files["crowded"])
        assert code == 0  # without the flag a crowded schedule still solves
        code, _, err = _run(
            capsys, "solve", files["crowded"], "--require-separation"
        )
        assert code == 2 and "tau" in err

    def test_bad_tol_exits_1(self, capsys, files):
        code, _, _ = _run(capsys, "solve", files["exp"], "--tol", "-1")
        assert code == 1

    @pytest.mark.parametrize("method", ["picard", "segment"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--mu", "-1"), ("--mu", "0"), ("--mu", "inf"), ("--mu", "nan"),
         ("--tol", "0"), ("--kmax", "0")],
    )
    def test_bad_iteration_flag_exits_1(self, capsys, files, method, flag, value):
        code, _, err = _run(
            capsys, "solve", files["exp"], "--method", method, flag, value
        )
        assert code == 1 and err.startswith(f"error: {flag} ")

    def test_usage_errors_exit_1(self, capsys, files):
        assert _run(capsys)[0] == 1
        assert _run(capsys, "solve", files["exp"], "--bad-flag")[0] == 1


class TestAnalyze:
    def test_report_fields(self, capsys, files):
        code, out, _ = _run(capsys, "analyze", files["exp"])
        assert code == 0
        report = yaml.safe_load(out)
        assert report["horizon"] == 1.0
        assert report["separation"]["ok"] is True
        assert report["lipschitz_source"] == "declared in problem file"
        block = report["contraction"]
        assert block["mu_star"] > 0
        assert block["contractive_criterion"] is True
        assert block["contractive_eigen"] is True
        assert len(block["matrix"]) == 3
        assert len(block["criterion_quantities"]) == 4

    def test_explicit_mu_skips_search(self, capsys, files):
        code, out, _ = _run(capsys, "analyze", files["exp"], "--mu", "5.0")
        assert code == 0
        block = yaml.safe_load(out)["contraction"]
        assert block["mu"] == 5.0 and "mu_star" not in block

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_mu_exits_1(self, capsys, files, value):
        code, _, err = _run(capsys, "analyze", files["exp"], "--mu", value)
        assert code == 1 and err.startswith("error: --mu ")

    @pytest.mark.parametrize("value", ["0", "nan", "inf", "-inf"])
    def test_state_bound_must_be_positive_and_finite(self, capsys, files, value):
        code, out, err = _run(capsys, "analyze", files["exp"], "--estimate",
                              "--state-bound", value)
        assert code == 1 and err.startswith("error: --state-bound ") and out == ""

    def test_state_bound_box_must_have_finite_width(self, files):
        # [-1e308, 1e308] is wider than the largest float: exit 1 with one
        # error line, and no numpy warning printed before it
        cmd = [sys.executable, "-m", "hybrid_volterra.cli", "analyze", files["exp"],
               "--estimate", "--state-bound", "1e308"]
        run = subprocess.run(cmd, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.splitlines() == [
            "error: --state-bound must be positive and at most 8.988465674311579e+307"
            " (half the largest float), got 1e+308"
        ]

    def test_schedule_fields(self, capsys, files):
        code, out, _ = _run(capsys, "analyze", files["moving"])
        assert code == 0
        report = yaml.safe_load(out)
        assert report["sigma"] == ["0.5 * t"]
        assert report["sigma_roots"] == [[0.0]]
        assert report["partition"] == [0.0, 1.0]

    def test_without_constants(self, capsys, files):
        code, out, _ = _run(capsys, "analyze", files["step"])
        assert code == 0
        report = yaml.safe_load(out)
        assert report["contraction"] is None and "declare" in report["note"]

    def test_estimate_recovers_linear_slope(self, capsys, files, monkeypatch):
        monkeypatch.setenv("HV_SEED", "0")
        code, out, _ = _run(capsys, "analyze", files["exp"], "--estimate")
        assert code == 0
        report = yaml.safe_load(out)
        assert "seed 0" in report["lipschitz_source"]
        # f1 = x has slope exactly 1; the 1.1 safety factor is reported as-is
        assert report["contraction"]["constants"]["L1"] == pytest.approx(
            1.1, rel=1e-3
        )

    def test_estimate_is_deterministic(self, capsys, files, monkeypatch):
        monkeypatch.setenv("HV_SEED", "7")
        first = _run(capsys, "analyze", files["exp"], "--estimate")
        second = _run(capsys, "analyze", files["exp"], "--estimate")
        assert first == second

    def test_seed_env_changes_label(self, capsys, files, monkeypatch):
        monkeypatch.setenv("HV_SEED", "17")
        _, out, _ = _run(capsys, "analyze", files["exp"], "--estimate")
        assert "seed 17" in yaml.safe_load(out)["lipschitz_source"]

    def test_bad_seed_exits_1(self, capsys, files, monkeypatch):
        monkeypatch.setenv("HV_SEED", "lots")
        code, _, err = _run(capsys, "analyze", files["exp"], "--estimate")
        assert code == 1 and "HV_SEED" in err

    def test_bad_state_bound_exits_1(self, capsys, files):
        code, _, _ = _run(
            capsys, "analyze", files["exp"], "--estimate", "--state-bound", "-2"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "name, flags, why",
        [
            # log(x) is undefined on half of the state box
            ("log", (), "log of a non-positive value"),
            # exp(x) overflows on it
            ("blow_up", ("--state-bound", "1000"), "non-finite difference quotient"),
        ],
    )
    def test_estimate_domain_error_exits_4(self, capsys, files, name, flags, why):
        code, out, err = _run(capsys, "analyze", files[name], "--estimate", *flags)
        assert code == 4 and "Traceback" not in err and out == ""
        assert err.startswith("error: cannot estimate L1 (f1)") and why in err

    def test_require_h7_alias(self, capsys, files):
        code, _, err = _run(capsys, "analyze", files["crowded"], "--require-h7")
        assert code == 2 and "separation requirement failed" in err

    def test_estimate_with_constant_kernel(self, capsys, monkeypatch):
        # G1 is the constant 0.2 there, which evaluates to a 0-d array
        monkeypatch.setenv("HV_SEED", "0")
        path = Path(__file__).resolve().parents[1] / "problems" / "fixed_impulses.yaml"
        code, out, _ = _run(capsys, "analyze", str(path), "--estimate")
        assert code == 0
        report = yaml.safe_load(out)
        assert report["lipschitz_source"].startswith("estimated")
        assert report["contraction"]["constants"]["LG1"] == 0.0

    def test_report_file_matches_stdout(self, capsys, tmp_path, files):
        report_path = tmp_path / "analysis.yaml"
        _, out, _ = _run(
            capsys, "analyze", files["exp"], "--report", str(report_path)
        )
        assert yaml.safe_load(report_path.read_text()) == yaml.safe_load(out)

    def test_report_dumped_once(self, capsys, tmp_path, files, monkeypatch):
        # one dump serves stdout and the file, byte for byte
        dumps = []
        dump = problem_io.dump_report

        def counting(data):
            dumps.append(1)
            return dump(data)

        monkeypatch.setattr(problem_io, "dump_report", counting)
        monkeypatch.setattr(cli, "dump_report", counting)
        report_path = tmp_path / "analysis.yaml"
        code, out, _ = _run(
            capsys, "analyze", files["step"], "--report", str(report_path)
        )
        assert code == 0 and len(dumps) == 1
        assert report_path.read_bytes() == out.encode()


class TestSeriesSolve:
    def test_exponential(self, capsys, tmp_path, files):
        out_csv = str(tmp_path / "y.csv")
        code, out, _ = _run(capsys, "series-solve", files["series"], "--out", out_csv)
        assert code == 0
        assert "order: 1" in out and "converged: true" in out
        t, left, _ = read_solution_csv(out_csv)
        assert left[-1] == pytest.approx(math.e, abs=1e-4)

    def test_report_has_coefficient(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        code, _, _ = _run(
            capsys, "series-solve", files["series"], "--report", str(report_path)
        )
        assert code == 0
        report = yaml.safe_load(report_path.read_text())
        assert report["method"] == "series" and report["order"] == 1
        assert 0.0 < report["contraction_coefficient"] <= 0.5

    def test_hybrid_file_redirected(self, capsys, files):
        code, _, err = _run(capsys, "series-solve", files["exp"])
        assert code == 1 and "hv solve" in err

    def test_nonconvergence_exits_3(self, capsys, files):
        code, _, _ = _run(capsys, "series-solve", files["series"], "--kmax", "1")
        assert code == 3

    @pytest.mark.parametrize(
        "flag, value", [("--mu", "-1"), ("--mu", "0"), ("--tol", "-1"), ("--kmax", "0")]
    )
    def test_bad_iteration_flag_exits_1(self, capsys, files, flag, value):
        code, _, err = _run(capsys, "series-solve", files["series"], flag, value)
        assert code == 1 and err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize(
        "kernel", ["x1*x2/(s2 - 0.25)", "(x1*x2/(s2 - 0.25))^1"], ids=["split", "cube"]
    )
    def test_kernel_error_exits_4_after_writing(self, capsys, tmp_path, kernel):
        path = tmp_path / "p.yaml"
        path.write_text(SERIES_DOMAIN_ERROR_FILE.format(kernel=kernel))
        report_path = tmp_path / "report.yaml"
        code, out, err = _run(capsys, "series-solve", str(path), "--report", str(report_path))
        assert code == 4 and "Traceback" not in err
        report = yaml.safe_load(report_path.read_text())
        assert report["converged"] is False and report["iterations"] == 0
        assert report["notes"] == ["kernel error in sweep 1: division by zero"]
        assert "note: kernel error in sweep 1: division by zero" in out

    def test_blow_up_exits_4_after_writing(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        csv_path = tmp_path / "y.csv"
        code, out, err = _run(
            capsys, "series-solve", files["series_blow_up"],
            "--report", str(report_path), "--out", str(csv_path),
        )
        assert code == 4 and "Traceback" not in err
        assert "diverged: non-finite update" in err
        report = yaml.safe_load(report_path.read_text())
        assert report["converged"] is False and report["iterations"] >= 1
        assert report["notes"] == [
            f"diverged: non-finite update in sweep {report['iterations'] + 1}"
        ]
        assert f"note: {report['notes'][0]}" in out
        assert report["solution_csv"] == str(csv_path)
        # the last finite iterate is written
        _, left, right = read_solution_csv(csv_path)
        assert left.size and all(map(math.isfinite, [*left, *right]))

    def test_residual_error_exits_4_after_writing(self, capsys, tmp_path, files):
        report_path = tmp_path / "report.yaml"
        csv_path = tmp_path / "y.csv"
        code, out, err = _run(
            capsys, "series-solve", files["series_residual_error"],
            "--report", str(report_path), "--out", str(csv_path),
        )
        note = "kernel error in the residual: log of a non-positive value"
        assert code == 4 and "Traceback" not in err
        assert err == f"error: iteration stopped after 1 sweeps: {note}\n"
        assert f"note: {note}" in out and "final residual: nan" in out
        report = yaml.safe_load(report_path.read_text())
        assert report["iterations"] == 1 and report["converged"] is False
        assert report["notes"] == [note] and math.isnan(report["final_residual"])
        # the last iterate, the one the sweep produced, is written
        t, left, right = read_solution_csv(csv_path)
        assert report["solution_csv"] == str(csv_path)
        assert left.tolist() == right.tolist() == pytest.approx((1 - 2 * t).tolist())


class TestConvergenceReport:
    def test_table_layout_and_ratios(self, capsys, files):
        code, out, _ = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "16,32,64"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["panels", "sup_error", "ratio"]
        rows = [line.split() for line in lines[1:]]
        assert [r[0] for r in rows] == ["16", "32", "64"]
        assert rows[0][2] == "-"
        assert all(3.0 < float(r[2]) < 5.0 for r in rows[1:])

    def test_two_resolutions_note(self, capsys, files):
        code, out, _ = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "16,32"
        )
        assert code == 0 and "degenerate" in out

    def test_single_resolution_exits_1(self, capsys, files):
        code, _, err = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "16"
        )
        assert code == 1 and "error:" in err

    def test_non_doubling_exits_1(self, capsys, files):
        code, _, _ = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "16,24"
        )
        assert code == 1

    def test_malformed_list_exits_1(self, capsys, files):
        code, _, err = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "a,b"
        )
        assert code == 1 and "comma-separated" in err

    @pytest.mark.parametrize("flag, value", [("--kmax", "0"), ("--tol", "-1")])
    def test_bad_iteration_flag_exits_1(self, capsys, files, flag, value):
        code, _, err = _run(capsys, "convergence-report", files["exp"], flag, value)
        assert code == 1 and err.startswith(f"error: {flag} ")

    def test_numerical_failure_exits_4(self, capsys, files):
        code, out, err = _run(
            capsys, "convergence-report", files["domain_error"], "--resolutions", "16,32"
        )
        assert code == 4 and "Traceback" not in err and out == ""
        assert err == (
            "error: iteration stopped after 0 sweeps at 16 panels: "
            "kernel error in sweep 1: division by zero\n"
        )
        # hitting the sweep limit stays exit 3
        code, _, err = _run(
            capsys, "convergence-report", files["exp"], "--resolutions", "16,32",
            "--kmax", "1",
        )
        assert code == 3 and "did not converge within 1 iterations at 16 panels" in err

    def test_numerical_failure_in_a_later_segment_exits_4(self, capsys, files):
        code, out, err = _run(
            capsys, "convergence-report", files["later_segment_error"],
            "--method", "segment", "--resolutions", "4,8",
        )
        assert code == 4 and out == ""
        assert err == (
            "error: iteration stopped after 6 sweeps at 4 panels: "
            "kernel error in sweep 7: division by zero\n"
        )

    def test_report_file_rows(self, capsys, tmp_path, files):
        report_path = tmp_path / "table.yaml"
        code, _, _ = _run(
            capsys, "convergence-report", files["exp"],
            "--resolutions", "16,32,64", "--report", str(report_path),
        )
        assert code == 0
        rows = yaml.safe_load(report_path.read_text())["rows"]
        assert [r["panels"] for r in rows] == [16, 32, 64]
        assert "ratio" not in rows[0] and rows[2]["ratio"] > 3.0


class TestRoots:
    def test_moving_impulse(self, capsys, files):
        code, out, _ = _run(capsys, "roots", files["moving"])
        assert code == 0
        assert "sigma[0] = 0.5 * t: roots [0.0]" in out
        assert "breakpoints: [0.0]" in out

    def test_no_moving_impulses(self, capsys, files):
        code, out, _ = _run(capsys, "roots", files["step"])
        assert code == 0
        assert "no moving impulses" in out and "breakpoints: [1.0]" in out


class TestCheckMatrix:
    def test_contractive_diagonal(self, capsys):
        code, out, _ = _run(capsys, "check-matrix", *HALF)
        assert code == 0
        assert "trace: 1.5" in out
        assert "pair_sum: 0.75" in out
        assert "det: 0.125" in out
        assert "criterion quantities: 0.125, 1.125, 3.375, 3.375" in out
        assert "contractive by criterion: true" in out
        assert "spectral radius: 0.5" in out
        assert "contractive by eigenvalues: true" in out

    def test_identity_not_contractive(self, capsys):
        one = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
        code, out, _ = _run(capsys, "check-matrix", *one)
        assert code == 0
        assert "contractive by criterion: false" in out
        assert "contractive by eigenvalues: false" in out

    def test_wrong_arity_exits_1(self, capsys):
        assert _run(capsys, "check-matrix", "1", "2")[0] == 1

    def test_non_numeric_exits_1(self, capsys):
        bad = ["x"] + ["0"] * 8
        assert _run(capsys, "check-matrix", *bad)[0] == 1

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_exits_1(self, capsys, entry):
        code, out, err = _run(capsys, "check-matrix", entry, *["0"] * 8)
        assert (code, out) == (1, "")
        assert err == f"error: matrix entries must be finite, got {float(entry)!r}\n"

    def test_invariants_that_overflow_exit_4(self, capsys):
        """Finite entries whose invariants are not finite give no verdict."""
        code, out, err = _run(capsys, "check-matrix", *["1e308"] * 9)
        assert (code, out) == (4, "")
        assert err == ("error: the matrix's invariants overflow: trace inf, pair_sum nan, "
                       "det nan, p0 nan, p1 nan, p3 nan, q4 nan, spectral radius inf\n")

    def test_negative_entry_is_a_number(self, capsys):
        code, out, _ = _run(capsys, "check-matrix", "-1e-3", *HALF[1:])
        assert code == 0
        assert "trace: 0.999" in out and "spectral radius: 0.5\n" in out
        code, out, _ = _run(capsys, "check-matrix", "-0.5", *HALF[1:])
        assert code == 0 and "spectral radius: 0.5000000000000001\n" in out

    def test_a_name_is_still_no_number(self, capsys):
        code, out, err = _run(capsys, "check-matrix", "-x", *HALF[1:])
        assert (code, out) == (1, "") and "'-x' is not a valid float" in err

    def test_radius_that_overflows_exits_4(self, capsys):
        # the radius 2e308 is no float, and the trace with it
        code, out, err = _run(capsys, "check-matrix", "1e308", "1e308", "0", "1e308", "1e308",
                              *["0"] * 4)
        assert (code, out) == (4, "")
        assert err == ("error: the matrix's invariants overflow: trace inf, pair_sum nan, "
                       "p0 nan, p1 nan, p3 nan, q4 nan, spectral radius inf\n")

    def test_radius_past_the_closed_form_is_found(self, capsys):
        """The invariants are finite, but the closed-form cubic cubes the
        trace: the radius is that of the matrix scaled by a power of two,
        scaled back, and the verdicts are printed."""
        code, out, err = _run(capsys, "check-matrix", "1e200", *["0"] * 8)
        assert (code, err) == (0, "")
        radius = float(out.split("spectral radius: ")[1].split("\n")[0])
        assert radius == pytest.approx(1e200, rel=1e-15)
        assert "contractive by eigenvalues: false\n" in out
        # a radius found so leaves out only what overflows of its own: the
        # criterion quantity q4 is inf minus inf, so its verdict alone is
        # withheld, while the finite radius decides by eigenvalues
        identity = ["1e100", "0", "0", "0", "1e100", "0", "0", "0", "1e100"]
        code, out, err = _run(capsys, "check-matrix", *identity)
        assert code == 4
        assert out == ("trace: 3.0000000000000002e+100\npair_sum: 3e+200\ndet: 1e+300\n"
                       "spectral radius: 1e+100\ncontractive by eigenvalues: false\n")
        assert err == "error: the matrix's invariants overflow: q4 nan\n"

    def test_a_radius_past_the_closed_form_keeps_its_small_entry(self, capsys):
        """Scaled to entries of order 1 this matrix loses its entry 1e-146,
        and with it the radius, to underflow: the radius 1e52 comes from
        the invariants taken exactly, and both verdicts agree."""
        code, out, err = _run(capsys, "check-matrix", "0", "1e250", "0", "1e-146",
                              *["0"] * 5)
        assert (code, err) == (0, "")
        radius = float(out.split("spectral radius: ")[1].split("\n")[0])
        assert radius == pytest.approx(1e52, rel=1e-15)
        assert "contractive by criterion: false\n" in out
        assert "contractive by eigenvalues: false\n" in out


class TestBoundMatrixOverflow:
    """At ``--mu 1e-3`` the bound matrix of ``BOUND_OVERFLOW_TEXT`` has an
    entry, and so a trace, that is not a float, and that of
    ``BOUND_PAIR_SUM_TEXT`` the finite trace 1.0005e203, whose pair sum and
    determinant overflow: the report notes it in place of the verdicts."""

    NOTE = ("the matrix's invariants overflow: trace inf, pair_sum nan, det nan, p0 nan, "
            "p1 nan, p3 nan, q4 nan, spectral radius nan")

    def _block(self, report_path, note=NOTE, trace=math.inf):
        block = yaml.safe_load(Path(report_path).read_text())["contraction"]
        assert block["note"] == note and block["mu"] == 1e-3
        assert block["invariants"]["trace"] == pytest.approx(trace, rel=1e-4)
        for verdict in ("criterion_quantities", "contractive_criterion", "spectral_radius",
                        "contractive_eigen"):
            assert verdict not in block
        return block

    @pytest.mark.parametrize("kmax, code", [("3", 3), ("200", 0)])
    def test_solve_keeps_its_exit_and_writes_its_outputs(self, capsys, tmp_path, files,
                                                         kmax, code):
        csv, report = tmp_path / "x.csv", tmp_path / "r.yaml"
        got, out, _ = _run(capsys, "solve", files["bound_overflow"], "--mu", "1e-3",
                           "--kmax", kmax, "--out", str(csv), "--report", str(report))
        assert got == code
        assert f"wrote solution: {csv}" in out and f"wrote report: {report}" in out
        assert len(read_solution_csv(str(csv))[0]) > 0
        self._block(report)

    def test_analyze_prints_its_report_and_exits_4(self, capsys, tmp_path, files):
        report = tmp_path / "r.yaml"
        code, out, err = _run(capsys, "analyze", files["bound_overflow"], "--mu", "1e-3",
                              "--report", str(report))
        assert code == 4 and err == f"error: {self.NOTE}\n"
        assert report.read_text() == out
        self._block(report)

    def test_a_radius_past_the_closed_form_is_no_overflow(self, capsys, tmp_path, files):
        """The closed-form roots of the bound matrix of
        ``BOUND_PAIR_SUM_TEXT`` have a modulus past the largest float, where
        ``abs`` raised, but its radius is a float: the note names only the
        invariants that overflow."""
        report = tmp_path / "r.yaml"
        code, out, err = _run(capsys, "analyze", files["bound_pair_sum"], "--mu", "1e-3",
                              "--report", str(report))
        note = ("the matrix's invariants overflow: pair_sum nan, det nan, p0 nan, p1 nan, "
                "p3 nan, q4 nan")
        assert code == 4 and err == f"error: {note}\n"
        assert report.read_text() == out
        self._block(report, note, 1.0005e203)

    def test_a_trace_whose_cube_overflows_gets_verdicts(self, capsys, tmp_path, files):
        """The bound matrix of ``BOUND_TRACE_CUBE_TEXT`` has finite
        invariants and the radius 9.995e199, its trace, which the closed
        form alone gave as inf: the report holds every verdict."""
        report = tmp_path / "r.yaml"
        code, out, err = _run(capsys, "analyze", files["bound_trace_cube"], "--mu", "1e-3",
                              "--report", str(report))
        assert (code, err) == (0, "") and report.read_text() == out
        block = yaml.safe_load(out)["contraction"]
        assert "note" not in block
        trace = block["invariants"]["trace"]
        assert trace == pytest.approx(9.995e199, rel=1e-4)
        assert block["spectral_radius"] == pytest.approx(trace, rel=1e-15)
        assert block["contractive_eigen"] is False and block["contractive_criterion"] is False

    def test_analyze_without_mu_finds_no_weight(self, capsys, files):
        code, out, _ = _run(capsys, "analyze", files["bound_overflow"])
        block = yaml.safe_load(out)["contraction"]
        assert code == 0 and block["mu_star"] is None and "matrix" not in block


class TestUnwritableOutput:
    """An output path that cannot be written ends in one error line, exit 1."""

    @pytest.mark.parametrize(
        "command, problem, flags",
        [
            ("solve", "exp", ["--out"]),
            ("solve", "exp", ["--report"]),
            ("series-solve", "series", ["--out"]),
            ("series-solve", "series", ["--report"]),
            ("analyze", "exp", ["--report"]),
            ("convergence-report", "exp", ["--resolutions", "16,32", "--report"]),
        ],
        ids=["solve-out", "solve-report", "series-out", "series-report",
             "analyze-report", "convergence-report"],
    )
    def test_missing_directory_exits_1(self, capsys, tmp_path, files, command,
                                       problem, flags):
        target = tmp_path / "missing" / "output"
        code, _, err = _run(capsys, command, files[problem], *flags, str(target))
        assert code == 1
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("command, problem", [
        ("solve", "exp"), ("series-solve", "series"), ("analyze", "exp"),
        ("convergence-report", "exp"),
    ])
    def test_directory_as_report_exits_1(self, capsys, tmp_path, files, command,
                                         problem):
        code, _, err = _run(capsys, command, files[problem], "--report", str(tmp_path))
        assert code == 1
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv, code_if_written",
        [
            (["analyze", "crowded", "--require-separation"], 2),
            (["series-solve", "series", "--kmax", "1"], 3),
            (["solve", "blow_up"], 4),
        ],
        ids=["over-2", "over-3", "over-4"],
    )
    def test_exit_1_takes_precedence(self, capsys, tmp_path, files, argv,
                                     code_if_written):
        command, problem, *flags = argv
        target = tmp_path / "report.yaml"
        code, _, _ = _run(capsys, command, files[problem], *flags, "--report", str(target))
        assert code == code_if_written
        code, _, err = _run(capsys, command, files[problem], *flags,
                            "--report", str(tmp_path / "missing" / "report.yaml"))
        assert code == 1 and err.startswith("error: cannot write ")
        assert "Traceback" not in err


def _project_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml.

    Read from the file itself: with ``src`` on ``sys.path``,
    ``importlib.metadata`` may find a stale ``*.egg-info`` record instead.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        scripts, inside = {}, False
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, value = line.split("=", 1)
                scripts[name.strip()] = value.strip().strip("\"'")
        return scripts
    return tomllib.loads(text)["project"].get("scripts", {})


def _assert_prints_help(cmd):
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: hv")


class TestInstalledEntryPoints:
    def test_console_script_on_path(self):
        """The ``hv`` script an install puts on PATH is declared as
        ``hybrid_volterra.cli:main`` and runs as pip's generated script does."""
        value = _project_scripts().get("hv")
        assert value == "hybrid_volterra.cli:main"
        entry = EntryPoint(name="hv", value=value, group="console_scripts")
        assert entry.load() is main
        launcher = (f"import sys; from {entry.module} import {entry.attr}; "
                    f"sys.exit({entry.attr}())")
        _assert_prints_help([sys.executable, "-c", launcher, "--help"])

    @pytest.mark.skipif(shutil.which("hv") is None,
                        reason="hv console script not installed")
    def test_installed_console_script_runs(self):
        _assert_prints_help([shutil.which("hv"), "--help"])

    def test_module_runs_are_byte_identical(self, tmp_path, files):
        env = dict(os.environ, HV_SEED="3")
        cmd = [
            sys.executable, "-m", "hybrid_volterra.cli",
            "analyze", files["exp"], "--estimate",
        ]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert yaml.safe_load(first.stdout)["contraction"]["mu_star"] > 0
