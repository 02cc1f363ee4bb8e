"""Problem files, CSV solution tables, and report dumps."""

import csv
import io
import math
import os
import stat
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TDEP_FILE, TDEP_X0, step_problem
from hybrid_volterra import cli, expressions, problem_io
from hybrid_volterra.expressions import zero_kernel
from hybrid_volterra.problem_io import (
    ProblemFileError,
    dump_report,
    load_problem_file,
    solution_rows,
    write_report,
    write_solution_csv,
)
from oracles import pyyaml_dump, read_solution_csv, to_builtin
from hybrid_volterra.series import series_solve
from hybrid_volterra.solvers import picard_solve

EXP_FILE = """\
horizon: 1.0
x0: "1"
f1: "x"
lipschitz: {L1: 1.0}
quadrature: {nodes_per_segment: 256}
solver: {mu: 2.0, tol: 1.0e-11, kmax: 150}
"""

MIXED_FILE = """\
kind: hybrid
horizon: 2.0
x0: "t"
G1: "0.2"
G2: "0.1*etai*etaj"
tau: [0.5, 1.0, 1.5]
h: 0.4
"""

SERIES_FILE = """\
kind: series
horizon: 0.5
y0: "1"
kernels: ["x1", "x1*x2"]
lipschitz: [1.0, 2.5]
"""


ROOT = Path(__file__).resolve().parents[1]
PROBLEM_FILES = sorted((ROOT / "problems").glob("*.yaml"))

BLOW_UP_FILE = """\
horizon: 3
x0: "1"
f1: "exp(x)"
"""


def _load(tmp_path, text, name="problem.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return load_problem_file(path)


class TestLoadHybrid:
    def test_full_file(self, tmp_path):
        loaded = _load(tmp_path, EXP_FILE)
        assert loaded.kind == "hybrid"
        p = loaded.problem
        assert p.schedule.horizon == 1.0
        assert p.grid.panels == 256
        assert p.lipschitz.L1 == 1.0 and p.lipschitz.Lg1 == 0.0
        s = loaded.settings
        assert (s.mu, s.tol, s.kmax) == (2.0, 1e-11, 150)

    def test_solves_to_exponential(self, tmp_path):
        loaded = _load(tmp_path, EXP_FILE)
        triple, report = picard_solve(
            loaded.problem, mu=loaded.settings.mu, tol=loaded.settings.tol
        )
        assert report.converged
        assert triple.xi.eval(1.0) == pytest.approx(math.e, abs=1e-4)

    def test_two_loads_compare_equal(self):
        path = Path(__file__).resolve().parent.parent / "problems" / "mixed_impulses.yaml"
        a, b = load_problem_file(path).problem, load_problem_file(path).problem
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.grid == b.grid and a.schedule == b.schedule

    def test_defaults(self, tmp_path):
        loaded = _load(tmp_path, "horizon: 2.0\n")
        p = loaded.problem
        assert p.x0.is_zero and p.lipschitz is None
        assert p.schedule.h == 2.0  # h defaults to the horizon
        s = loaded.settings
        assert (s.mu, s.tol, s.kmax) == (None, 1e-10, 200)

    def test_schedule_from_file(self, tmp_path):
        p = _load(tmp_path, MIXED_FILE).problem
        assert tuple(p.schedule.tau) == (0.5, 1.0, 1.5)
        assert p.schedule.h == 0.4

    def test_bare_number_is_constant_kernel(self, tmp_path):
        p = _load(tmp_path, "horizon: 1.0\nx0: 3\n").problem
        assert p.x0(t=0.7) == 3.0

    def test_missing_horizon(self, tmp_path):
        with pytest.raises(ProblemFileError, match="horizon"):
            _load(tmp_path, "x0: '1'\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ProblemFileError, match="forcing"):
            _load(tmp_path, "horizon: 1.0\nforcing: '1'\n")

    def test_bad_expression_reports_position(self, tmp_path):
        with pytest.raises(ProblemFileError, match="position"):
            _load(tmp_path, "horizon: 1.0\nx0: '1 +* t'\n")

    @pytest.mark.parametrize("text, message", [
        ("horizon: 1.0\nx0: '1'\nf1: 'x + q'\n", "f1: unknown variable 'q' (position 4)"),
        ("horizon: 1.0\nx0: '1 +* t'\n", "x0: expected a value, found '*' (position 3)"),
        ("horizon: 1.0\nx0: '2²'\n", "x0: invalid number '2²' (position 0)"),
        ("horizon: 1.0\ntau: [0.3, 0.6]\nG2: 'etai*eta'\n",
         "G2: unknown variable 'eta' (position 5)"),
        ("horizon: 1.0\nsigma: ['t/2', 't +']\n",
         "sigma[1]: expected a value, found 'end of input' (position 3)"),
        ("kind: series\nhorizon: 0.5\nkernels: ['x1', 'x1*x3']\n",
         "kernels[1]: unknown variable 'x3' (position 3)"),
        ("kind: series\nhorizon: 0.5\ny0: 'sin()'\nkernels: ['x1']\n",
         "y0: expected a value, found ')' (position 4)"),
    ], ids=["f1", "x0", "number", "G2", "sigma", "series-kernel", "y0"])
    def test_bad_expression_names_its_key(self, tmp_path, text, message):
        with pytest.raises(ProblemFileError) as info:
            _load(tmp_path, text)
        assert str(info.value) == message

    def test_kernel_with_wrong_variable(self, tmp_path):
        with pytest.raises(ProblemFileError):
            _load(tmp_path, "horizon: 1.0\nx0: 'x'\n")

    def test_sigma_must_be_expressions(self, tmp_path):
        with pytest.raises(ProblemFileError, match="sigma"):
            _load(tmp_path, "horizon: 1.0\nsigma: [0.5]\n")

    def test_tau_must_be_list(self, tmp_path):
        with pytest.raises(ProblemFileError, match="tau"):
            _load(tmp_path, "horizon: 1.0\ntau: 0.5\n")

    @pytest.mark.parametrize("entry", ["[0.5]", "null", "{a: 1}", "true", ".nan", ".inf"])
    def test_tau_entries_must_be_finite_numbers(self, tmp_path, entry):
        with pytest.raises(ProblemFileError, match=r"^tau\[0\]: "):
            _load(tmp_path, f"horizon: 1.0\nx0: '1'\nf1: 'x'\ntau: [{entry}]\n")

    def test_tau_out_of_range(self, tmp_path):
        with pytest.raises(ProblemFileError):
            _load(tmp_path, "horizon: 1.0\ntau: [1.5]\n")

    def test_negative_horizon(self, tmp_path):
        with pytest.raises(ProblemFileError, match="positive"):
            _load(tmp_path, "horizon: -1.0\n")

    def test_lipschitz_unknown_constant(self, tmp_path):
        with pytest.raises(ProblemFileError, match="L99"):
            _load(tmp_path, "horizon: 1.0\nlipschitz: {L99: 1.0}\n")

    def test_lipschitz_negative(self, tmp_path):
        with pytest.raises(ProblemFileError, match="nonnegative"):
            _load(tmp_path, "horizon: 1.0\nlipschitz: {L1: -1.0}\n")

    def test_solver_kmax_validated(self, tmp_path):
        with pytest.raises(ProblemFileError, match="kmax"):
            _load(tmp_path, "horizon: 1.0\nsolver: {kmax: 0}\n")

    def test_solver_mu_positive(self, tmp_path):
        with pytest.raises(ProblemFileError, match="mu"):
            _load(tmp_path, "horizon: 1.0\nsolver: {mu: -2.0}\n")

    def test_quadrature_nodes_validated(self, tmp_path):
        with pytest.raises(ProblemFileError, match="nodes_per_segment"):
            _load(tmp_path, "horizon: 1.0\nquadrature: {nodes_per_segment: 1}\n")


class TestLoadWork:
    @pytest.fixture
    def tokenized(self, monkeypatch):
        """The sources the kernel parser tokenizes, in order."""
        seen = []
        tokenize = expressions._tokenize

        def recording(source):
            seen.append(source)
            return tokenize(source)

        monkeypatch.setattr(expressions, "_tokenize", recording)
        return seen

    def test_each_kernel_source_is_tokenized_once(self, tmp_path, tokenized):
        """The tdep file's four kernels are tokenized once each; its absent
        G2, G3 and g are zero kernels built without a parse."""
        p = _load(tmp_path, TDEP_FILE).problem
        assert tokenized == [TDEP_X0, "0.4*t*x", "0.3*t*x1", "0.3"]
        assert p.G2.is_zero and p.G3.is_zero and p.g.is_zero

    @pytest.mark.parametrize("text", ["horizon: 1.0\n", "horizon: 1.0\nx0: ''\n"],
                             ids=["absent", "empty"])
    def test_absent_or_empty_x0_is_zero_without_a_parse(self, tmp_path, tokenized, text):
        assert _load(tmp_path, text).problem.x0 == zero_kernel(("t",))
        assert tokenized == []


class TestLoadSeries:
    def test_series_file(self, tmp_path):
        loaded = _load(tmp_path, SERIES_FILE)
        assert loaded.kind == "series"
        p = loaded.problem
        assert p.order == 2 and p.lipschitz == (1.0, 2.5)

    def test_null_entry_is_zero_kernel(self, tmp_path):
        text = "kind: series\nhorizon: 1.0\nkernels: [null, 'x1*x2']\n"
        p = _load(tmp_path, text).problem
        assert p.kernels[0].is_zero and not p.kernels[1].is_zero

    def test_hybrid_keys_rejected(self, tmp_path):
        with pytest.raises(ProblemFileError, match="f1"):
            _load(tmp_path, "kind: series\nhorizon: 1.0\nf1: 'x'\n")

    def test_kernels_must_be_list(self, tmp_path):
        with pytest.raises(ProblemFileError, match="kernels"):
            _load(tmp_path, "kind: series\nhorizon: 1.0\nkernels: 'x1'\n")

    def test_order_cap_wording(self, tmp_path):
        # the order-4 kernel does not split, so it would build a nodes^4 array
        text = ("kind: series\nhorizon: 1.0\n"
                "kernels: ['x1', null, null, 'exp(x1*x2*x3*x4)']\n")
        with pytest.raises(ProblemFileError, match="allow_high_order"):
            _load(tmp_path, text)

    def test_allow_high_order_must_be_bool(self, tmp_path):
        with pytest.raises(ProblemFileError, match="allow_high_order"):
            _load(tmp_path, "kind: series\nhorizon: 1.0\nallow_high_order: 1\n")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem_file(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ProblemFileError, match="YAML"):
            _load(tmp_path, "x0: [unclosed\n")

    def test_non_mapping(self, tmp_path):
        with pytest.raises(ProblemFileError, match="mapping"):
            _load(tmp_path, "- 1\n- 2\n")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ProblemFileError, match="kind"):
            _load(tmp_path, "kind: integral\nhorizon: 1.0\n")


PROBLEM_FILES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.yaml"))


def _loop_rows(xi):
    """The node-by-node pairing the vectorised rows replaced."""
    times, values = xi.grid.times, xi.values
    rows, i = [], 0
    while i < times.size:
        t = float(times[i])
        if i + 1 < times.size and times[i + 1] - times[i] <= 1e-12 * max(1.0, abs(t)):
            rows.append((t, float(values[i]), float(values[i + 1])))
            i += 2
        else:
            rows.append((t, float(values[i]), float(values[i])))
            i += 1
    return rows


def _csv_writer_bytes(xi) -> bytes:
    """The solution table as the standard library's csv.writer writes it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "x_left", "x_right"])
    for t, left, right in _loop_rows(xi):
        writer.writerow([repr(t), repr(left), repr(right)])
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def step_solution():
    triple, report = picard_solve(step_problem())
    assert report.converged
    return triple.xi


class TestSolutionTable:
    def test_rows_collapse_breakpoints(self, step_solution):
        xi = step_solution
        rows = solution_rows(xi)
        # one interior breakpoint: two grid nodes share t = 1.0
        assert len(rows) == xi.grid.times.size - 1
        assert rows[0] == (0.0, 1.0, 1.0)
        jump = next(r for r in rows if r[0] == 1.0)
        assert jump == (1.0, 1.0, 2.0)
        assert rows[-1] == (2.0, 2.0, 2.0)

    def test_smooth_rows_coincide(self):
        from hybrid_volterra.piecewise import PiecewiseFn, uniform_grid

        xi = PiecewiseFn.from_expression(uniform_grid(1.0, 16), "sin(t)")
        for t, left, right in solution_rows(xi):
            assert left == right == math.sin(t)

    def test_csv_round_trip_exact(self, tmp_path, step_solution):
        path = tmp_path / "solution.csv"
        write_solution_csv(path, step_solution)
        t, left, right = read_solution_csv(path)
        rows = solution_rows(step_solution)
        assert np.array_equal(t, [r[0] for r in rows])
        assert np.array_equal(left, [r[1] for r in rows])
        assert np.array_equal(right, [r[2] for r in rows])

    def test_greedy_pairing_of_close_nodes(self):
        # three nodes at one time: the first two pair, the third stands alone
        times = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.5])
        xi = SimpleNamespace(grid=SimpleNamespace(times=times),
                             values=np.arange(times.size, dtype=float))
        assert solution_rows(xi) == _loop_rows(xi)
        assert solution_rows(xi) == [
            (0.0, 0.0, 0.0), (0.5, 1.0, 2.0), (0.5, 3.0, 3.0),
            (1.0, 4.0, 5.0), (1.5, 6.0, 6.0),
        ]

    def test_csv_bytes_match_csv_writer_on_edge_values(self, tmp_path):
        # breakpoints, three close nodes, and -0.0 on either side of a
        # breakpoint and alone: each value must keep its own text
        times = np.array([0.0, 0.25, 0.5, 0.5, 0.5, 1.0, 1.0 + 1e-13, 1.5, 1.5, 2.0])
        values = np.array([-0.0, 0.1, 0.0, -0.0, 2.5, -0.0, 0.0, 1 / 3, 1 / 3, -1e-300])
        xi = SimpleNamespace(grid=SimpleNamespace(times=times), values=values)
        out = tmp_path / "solution.csv"
        write_solution_csv(out, xi)
        assert out.read_bytes() == _csv_writer_bytes(xi)
        lines = out.read_text().splitlines()
        assert lines[1:4] == ["0.0,-0.0,-0.0", "0.25,0.1,0.1", "0.5,0.0,-0.0"]
        assert lines[5] == "1.0,-0.0,0.0"

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
    def test_csv_bytes_match_csv_writer(self, tmp_path, path):
        loaded = load_problem_file(path)
        solve = series_solve if loaded.kind == "series" else picard_solve
        solution, report = solve(loaded.problem, tol=loaded.settings.tol,
                                 kmax=loaded.settings.kmax)
        xi = solution if loaded.kind == "series" else solution.xi
        out = tmp_path / "solution.csv"
        write_solution_csv(out, xi)
        assert out.read_bytes() == _csv_writer_bytes(xi)
        t, left, right = read_solution_csv(out)
        assert list(zip(t.tolist(), left.tolist(), right.tolist())) == solution_rows(xi)

    def test_csv_header(self, tmp_path, step_solution):
        path = tmp_path / "solution.csv"
        write_solution_csv(path, step_solution)
        assert path.read_text().splitlines()[0] == "t,x_left,x_right"

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ProblemFileError, match="header"):
            read_solution_csv(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x_left,x_right\n1.0,2.0\n")
        with pytest.raises(ProblemFileError, match="row"):
            read_solution_csv(path)


class TestReports:
    def test_dump_preserves_order(self):
        text = dump_report({"method": "picard", "iterations": 3, "mu": 2.0})
        keys = [line.split(":")[0] for line in text.strip().splitlines()]
        assert keys == ["method", "iterations", "mu"]

    def test_numpy_values_dump_clean(self):
        data = {
            "mu": np.float64(2.0),
            "iterations": np.int64(3),
            "deltas": np.array([1.0, 0.5]),
            "nested": {"flag": np.bool_(True)},
        }
        text = dump_report(data)
        back = yaml.safe_load(text)
        assert back == {
            "mu": 2.0, "iterations": 3, "deltas": [1.0, 0.5],
            "nested": {"flag": True},
        }

    def test_to_builtin_leaves_plain_types(self):
        data = {"a": [1, 2.5, "x"], "b": (np.float64(1.0),)}
        assert to_builtin(data) == {"a": [1, 2.5, "x"], "b": [1.0]}

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.yaml"
        write_report(path, {"converged": True, "iterations": 4})
        assert yaml.safe_load(path.read_text()) == {
            "converged": True, "iterations": 4,
        }


SHORT_REPORT = {"problem": "données/ü.yaml", "converged": True}


class TestRewriteInPlace:
    """The writers rewrite a file over its old bytes, then cut it."""

    @pytest.mark.parametrize("old_size", [0, 10, 100_000])
    def test_bytes_match_a_fresh_path(self, tmp_path, step_solution, old_size):
        write_solution_csv(tmp_path / "fresh.csv", step_solution)
        write_report(tmp_path / "fresh.yaml", SHORT_REPORT)
        for name in ("old.csv", "old.yaml"):
            (tmp_path / name).write_bytes(b"\xff" * old_size)
        write_solution_csv(tmp_path / "old.csv", step_solution)
        write_report(tmp_path / "old.yaml", SHORT_REPORT)
        fresh = (tmp_path / "fresh.csv").read_bytes()
        assert (tmp_path / "old.csv").read_bytes() == fresh == _csv_writer_bytes(step_solution)
        assert (tmp_path / "old.yaml").read_bytes() == (tmp_path / "fresh.yaml").read_bytes()

    def test_report_bytes_are_text_mode_bytes(self, tmp_path):
        path = tmp_path / "report.yaml"
        write_report(path, SHORT_REPORT)
        with open(tmp_path / "text.yaml", "w") as fh:
            fh.write(dump_report(SHORT_REPORT))
        assert path.read_bytes() == (tmp_path / "text.yaml").read_bytes()
        assert yaml.safe_load(path.read_text()) == SHORT_REPORT

    def test_device_is_written_not_cut(self, step_solution):
        write_solution_csv(os.devnull, step_solution)
        write_report(os.devnull, SHORT_REPORT)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_written_not_cut(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        write_report(fifo, SHORT_REPORT)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [dump_report(SHORT_REPORT).encode()]

    def test_new_file_mode_matches_open(self, tmp_path, step_solution):
        old_mask = os.umask(0o027)
        try:
            write_solution_csv(tmp_path / "new.csv", step_solution)
            write_report(tmp_path / "new.yaml", SHORT_REPORT)
            with open(tmp_path / "text", "w"):
                pass
        finally:
            os.umask(old_mask)
        want = stat.S_IMODE((tmp_path / "text").stat().st_mode)
        for name in ("new.csv", "new.yaml"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == want

    def test_opens_without_truncating(self, monkeypatch, tmp_path, step_solution):
        # O_TRUNC on a file with data costs ~15x the whole write on a file
        # system that frees blocks eagerly; keep it from coming back
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        write_solution_csv(tmp_path / "x.csv", step_solution)
        write_report(tmp_path / "r.yaml", SHORT_REPORT)
        assert len(flags) == 2
        assert not any(f & os.O_TRUNC for f in flags)


def _pure_dump(data):
    """The report text of PyYAML's pure-Python dumper."""
    return yaml.dump(to_builtin(data), Dumper=yaml.SafeDumper,
                     sort_keys=False, default_flow_style=False)


def _reports(monkeypatch, tmp_path, *argv):
    """The report mappings one ``hv`` command hands to ``write_report``."""
    seen = []
    monkeypatch.setattr(cli, "write_report", lambda path, data: seen.append(data))
    with pytest.raises(SystemExit):
        cli.main([*argv, "--report", str(tmp_path / "report.yaml")])
    assert seen
    return seen


class TestLibyaml:
    """The C loader and dumper, when present, match the pure-Python ones."""

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
    def test_problem_files_load_equal(self, path):
        text = path.read_text()
        assert yaml.load(text, Loader=problem_io._Loader) == yaml.safe_load(text)

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
    def test_solve_reports_dump_identical(self, monkeypatch, tmp_path, path):
        command = "series-solve" if path.stem.startswith("series") else "solve"
        for data in _reports(monkeypatch, tmp_path, command, str(path)):
            assert dump_report(data) == _pure_dump(data)

    def test_failure_report_dumps_identical(self, monkeypatch, tmp_path):
        path = tmp_path / "blow_up.yaml"
        path.write_text(BLOW_UP_FILE)
        (data,) = _reports(monkeypatch, tmp_path, "solve", str(path))
        assert any(n.startswith("diverged: non-finite update") for n in data["notes"])
        assert dump_report(data) == _pure_dump(data)

    def test_long_notes_dump_identical(self):
        data = {
            "notes": [
                "a note that is longer than eighty characters, so the dumper "
                "folds it: it holds a colon, 'quotes' and \"double quotes\"",
                "x" * 120,
                "word " * 30,
            ]
        }
        assert max(map(len, data["notes"])) > 80
        assert dump_report(data) == _pure_dump(data)


# strings each of which takes one branch of the style choice or the folding
_AWKWARD = [
    "", "yes", "No", "null", "~", "true", "OFF", "=", "<<", "1", "-3", "0x1f",
    "1.5", "1e5", ".inf", "2001-12-14", "12:30:00", "---", "...", "--- x",
    "-", "- x", "-x", "?", "? x", "a ?", ":", ": x", "a:", "a: b", "a:b",
    "a #b", "a#b", "#a", "'a'", '"a"', "it's", "!a", "&a", "*a", "|", ">",
    "%a", "@a", "`a", "[a]", "{a}", "a, b", " a", "a ", "a  b", "a\nb", "a\n",
    "\na", "a \nb", "a\n b", "a\n\n\nb", "a\tb", "a\\b", "ü", "a\x00b",
    "\x7f", "\x85", "\xa0", "\u2028", "\ufeff", "\U0001f600", " ü", " a\nb",
    "0.5 + 0.55 * t",
]
_LINE_CHARS = list("ab09 :#'\"-?,[]{}&*!|>%@`.~=<\\\t") + ["ü"]
_CHARS = st.sampled_from(_LINE_CHARS + ["\n", "\x85"])


def _words(*gaps):
    """Runs of words joined by ``gaps``, long enough to be folded."""
    return st.lists(
        st.text(st.sampled_from("abcxyz'ü"), min_size=1, max_size=12),
        min_size=4, max_size=30,
    ).flatmap(lambda words: st.lists(
        st.sampled_from(gaps), min_size=len(words), max_size=len(words),
    ).map(lambda gaps: "".join(w + g for w, g in zip(words, gaps))))


_STRINGS = st.one_of(
    st.sampled_from(_AWKWARD),
    st.text(_CHARS, max_size=20),
    st.text(_CHARS, min_size=60, max_size=300),
    _words(" ", " ", " ", "  ", "   ", ": ", " #", " '"),
    _words(" ", " ", "  ", "\n", "\n\n", "\n ", " \n"),
    st.text(max_size=100),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e16, 1e22,
                     float("inf"), float("-inf"), float("nan")]),
)
_SCALARS = st.one_of(
    _STRINGS, _FLOATS, st.integers(), st.booleans(), st.none(),
    _FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_KEYS = st.one_of(
    st.sampled_from(["mu", "notes", "final_residual", "yes", "null", "1"]),
    _STRINGS,  # some hold line breaks
    # a simple key is at most 128 bytes
    st.text(st.sampled_from(_LINE_CHARS), min_size=120, max_size=140),
    st.text(st.sampled_from("ab_"), min_size=120, max_size=140),
    st.integers(), _FLOATS, st.booleans(), st.none(),
)


def _trees(depth):
    if depth == 0:
        return _SCALARS
    sub = _trees(depth - 1)
    return st.one_of(
        _SCALARS,
        st.lists(sub, max_size=4),
        st.lists(sub, max_size=4).map(tuple),
        st.lists(_FLOATS, max_size=4).map(np.array),
        st.dictionaries(_KEYS, sub, max_size=4),
    )


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestEmitter:
    """``dump_report`` writes libyaml's bytes without calling PyYAML."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.dictionaries(_KEYS, _trees(3), max_size=5))
    def test_matches_libyaml_on_random_trees(self, tree):
        assert dump_report(tree) == pyyaml_dump(tree)

    @pytest.mark.parametrize("column", [1, 40, 70, 76, 78, 79, 80, 81, 120])
    def test_matches_libyaml_around_the_fold_column(self, column):
        # a key of the given length puts each string at that column; the
        # nested copies run past the width
        for text in _AWKWARD:
            data = {"k" * column: text, "n": [[{"k": (text + " ") * 9 + text}]]}
            assert dump_report(data) == pyyaml_dump(data), text

    @pytest.mark.parametrize("head", ["", "'", "ü", "x\n", "ü\n"])
    def test_matches_libyaml_with_a_space_at_each_column(self, head):
        # plain, single-quoted, double-quoted, and either quoted style
        # with a line break: a space, or two, at every column near the width
        for k in range(70, 90):
            for tail in (" y z", "  y", " 'y"):
                data = {"k": head + "x" * k + tail, "s": [head + "x" * (k - 2) + tail]}
                assert dump_report(data) == pyyaml_dump(data), (k, tail)

    def test_lone_surrogate_is_escaped(self):
        # the one string class not written as PyYAML writes it: PyYAML
        # cannot encode a lone surrogate and raises; the emitter escapes it
        data = {"note": "x\ud800y", "list": ["\udfff" * 50 + " end"]}
        with pytest.raises(UnicodeEncodeError):
            pyyaml_dump(data)
        text = dump_report(data)
        assert text.startswith('note: "x\\uD800y"\n')
        assert yaml.safe_load(text) == data

    def test_numpy_values_read_as_python_values(self):
        data = {"a": np.float64(2.0), "b": np.array([[1.0, np.nan]]),
                "c": (np.int64(3), np.bool_(False)), "d": np.str_("x")}
        assert dump_report(data) == "a: 2.0\nb:\n- - 1.0\n  - .nan\nc:\n- 3\n- false\nd: x\n"

    @pytest.mark.parametrize("data", [[1], "x", None])
    def test_report_is_a_mapping(self, data):
        with pytest.raises(TypeError, match="mapping"):
            dump_report(data)

    def test_unknown_value_type_raises(self):
        with pytest.raises(TypeError, match="set"):
            dump_report({"a": {1, 2}})


def _no_yaml_dump(*args, **kwargs):
    raise AssertionError("yaml.dump called")


class TestNoPyYAMLDump:
    """Every report-writing command runs with ``yaml.dump`` unavailable."""

    @pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
    def test_commands_write_reports(self, monkeypatch, tmp_path, path):
        monkeypatch.setattr(yaml, "dump", _no_yaml_dump)
        monkeypatch.setattr(yaml, "dump_all", _no_yaml_dump)
        report = tmp_path / "report.yaml"
        if path.stem.startswith("series"):
            commands = [["series-solve", str(path)]]
        else:
            commands = [
                ["solve", str(path), "--method", "picard"],
                ["solve", str(path), "--method", "segment"],
                ["analyze", str(path)],
                ["convergence-report", str(path), "--resolutions", "8,16,32"],
            ]
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--report", str(report)])
            assert exc.value.code == 0, argv
            assert isinstance(yaml.safe_load(report.read_text()), dict)
            report.unlink()
