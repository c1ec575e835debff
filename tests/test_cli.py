"""CLI behavior: subcommands, config precedence, determinism, exit codes."""

import json
import subprocess
import sys

from rclab.cli import main


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_gamma_stdout_closed_form():
    code, out, _ = run_cli(["gamma", "--algebra", "sym2", "--nu", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "rc-lab/1"
    assert abs(data["closed"] - 6.66432440723755) < 1e-8


def test_gamma_numeric_rule():
    code, out, _ = run_cli(["gamma", "--algebra", "rank1", "--nu", "3",
                            "--rule", "eigenvalue-quadrature", "--nodes", "60"])
    data = json.loads(out)
    assert abs(data["numeric"] - 2.0) < 1e-10


def test_polys_rank1_k2_table(tmp_path):
    out_path = tmp_path / "c2.csv"
    code, _, _ = run_cli(["polys", "--algebra", "rank1", "--k", "2",
                          "--format", "csv", "--output", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "2 + 3*s^1 + 1*s^2" in text        # (s+2)(s+1)
    assert "-8 + -4*t^1 + -4*s^1 + -2*s^1*t^1" in text


def test_polys_sym2_k0_constant():
    code, out, _ = run_cli(["polys", "--algebra", "sym2", "--k", "0"])
    data = json.loads(out)
    assert data["terms"] == [{"mono": [0, 0, 0, 0, 0, 0],
                              "coef": [[0, 0, "1/1"]]}]


def test_polys_latex_golden(tmp_path):
    code, out, _ = run_cli(["polys", "--algebra", "sym2", "--k", "1",
                            "--format", "latex"])
    assert code == 0
    golden = (tmp_path.parent / "golden.tex")
    assert out.startswith("\\begin{tabular}{ll}")
    assert "$x11\\,x22$" in out and out.rstrip().endswith("\\end{tabular}")
    # every row is monomial & coefficient
    rows = [l for l in out.splitlines() if l.startswith("  $")]
    assert len(rows) == 7
    assert all(r.endswith("\\\\") for r in rows)


def test_polys_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(["polys", "--algebra", "sym2", "--k", "2",
                              "--format", "json", "--output", str(path),
                              "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_polys_restricted_family():
    code, out, _ = run_cli(["polys", "--algebra", "rank1", "--k", "1",
                            "--kind", "restricted",
                            "--lambda", "3", "--mu", "5"])
    data = json.loads(out)
    assert data["kind"] == "restricted-polynomial"
    assert {"mono": [0], "coef": "-1"} in data["terms"]
    assert {"mono": [1], "coef": "5"} in data["terms"]


def test_gram_cli_offdiagonals(tmp_path):
    out_path = tmp_path / "gram.json"
    code, _, _ = run_cli(["gram", "--algebra", "rank1", "--kmax", "4",
                          "--lambda", "1", "--mu", "1",
                          "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["max_off_diagonal_ratio"] < 1e-12


def test_gram_threshold_guard():
    code, _, err = run_cli(["gram", "--algebra", "sym2", "--kmax", "2",
                            "--lambda", "-1", "--mu", "3"])
    assert code == 2
    assert "orthogonality" in err


def test_config_error_unknown_algebra():
    code, _, err = run_cli(["polys", "--algebra", "rank1", "--k", "99"])
    assert code == 2
    assert "feasibility" in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# config\nalgebra = rank1\nk = 2\nformat = csv\n")
    code, out, _ = run_cli(["--config", str(cfg), "polys"])
    assert code == 0 and "2 + 3*s^1 + 1*s^2" in out
    # flags beat the file
    code, out, _ = run_cli(["--config", str(cfg), "polys", "--k", "1"])
    assert code == 0 and "2 + 3*s^1" not in out


def test_config_file_parse_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("algebra rank1\n")
    code, _, err = run_cli(["--config", str(cfg), "gamma", "--nu", "2"])
    assert code == 2


def test_cache_inspect_and_clear(tmp_path):
    cache = tmp_path / "cache"
    run_cli(["polys", "--algebra", "rank1", "--k", "3", "--format", "json",
             "--cache-dir", str(cache), "--output", str(tmp_path / "x.json")])
    code, out, _ = run_cli(["cache", "inspect", "--cache-dir", str(cache)])
    data = json.loads(out)
    assert any(e["file"] == "c_rank1_k3.json" for e in data["entries"])
    code, out, _ = run_cli(["cache", "clear", "--cache-dir", str(cache)])
    data = json.loads(out)
    assert "c_rank1_k3.json" in data["removed"]
    code, out, _ = run_cli(["cache", "inspect", "--cache-dir", str(cache)])
    assert json.loads(out)["entries"] == []


def test_check_suite_exit_zero(tmp_path):
    code, out, _ = run_cli(["check", "cayley", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["schema"] == "rc-lab/1"


def test_polys_recomputes_a_truncated_cache_file(tmp_path, monkeypatch):
    import rclab.brackets as B

    cache = tmp_path / "cache"
    args = ["polys", "--algebra", "rank1", "--k", "2", "--cache-dir", str(cache)]
    code, want, _ = run_cli(args)
    assert code == 0
    path = cache / "c_rank1_k2.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    monkeypatch.setattr(B, "_memory_cache", {})
    code, out, _ = run_cli(args)
    assert code == 0 and out == want
    assert path.read_text() == text


def test_check_cayley_fails_on_a_wrong_constant(monkeypatch):
    from fractions import Fraction

    import rclab.sympoly

    monkeypatch.setattr(rclab.sympoly, "cayley_check", lambda alg, m: Fraction(1, 7))
    code, out, _ = run_cli(["check", "cayley", "--algebra", "sym2"])
    assert code == 1
    assert json.loads(out)["reports"][0]["pass"] is False


def test_check_all_reports_a_crashing_suite_and_goes_on(tmp_path, monkeypatch):
    import rclab.cli as cli

    def boom(algebra, cache_dir, tols):
        raise ValueError("polydisc radius violation")

    monkeypatch.setitem(cli.SUITES, "branch", boom)
    code, out, _ = run_cli(["check", "all", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 1
    reports = json.loads(out)["reports"]
    failed = [r for r in reports if not r["pass"]]
    assert failed == [{"schema": "rc-lab/1", "check": "suite-error",
                       "algebra": "rank1", "suite": "branch",
                       "error": "ValueError: polydisc radius violation",
                       "pass": False}]
    names = {r["check"] for r in reports}
    assert "branch-path-independence" not in names
    # suites before and after the failing one still report
    assert {"rodrigues-polynomiality", "contour-derivative-stability"} <= names


def test_check_k_stays_within_the_caps(monkeypatch):
    import rclab.brackets as B
    from rclab.algebra import get_algebra
    from rclab.cli import run_suites

    class Stub:
        def num_monomials(self):
            return 0

    seen = []

    def record(algebra, k, cache_dir=None):
        seen.append(k)
        return Stub()

    monkeypatch.setattr(B, "compute_c", record)
    run_suites(get_algebra("sym4"), "polynomiality")
    assert seen and max(seen) <= 1


def test_check_unknown_suite():
    code, _, err = run_cli(["check", "nonsense", "--algebra", "rank1"])
    assert code == 2


def test_check_tolerance_override_can_fail(tmp_path):
    # absurdly tight tolerance forces a check failure -> exit 1
    code, out, _ = run_cli(["check", "jordan-numerics", "--algebra", "rank1",
                            "--tol", "jacobian=1e-30"])
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False


def test_check_report_names_each_identity(tmp_path):
    code, out, _ = run_cli(["check", "orthogonality", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    data = json.loads(out)
    assert all("check" in r for r in data["reports"])


def test_check_all_rank1_exit_zero(tmp_path):
    code, out, _ = run_cli(["check", "all", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    names = {r["check"] for r in data["reports"]}
    # the aggregate names every verified identity
    assert {"chi-covariance", "interval-orthogonality",
            "bracket-group-covariance", "cone-gamma-integral",
            "laplace-averaging-factorization",
            "adjoint-partial-isometry"} <= names


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rclab.cli", "gamma", "--algebra", "rank1",
         "--nu", "4"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["closed"] == 6.0
