"""CLI behavior: subcommands, config precedence, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from rclab import quadrature, report
from rclab.cli import MAX_NODES, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("weights,stem", [
    ([], "restricted_rank1_k3"),
    (["--lambda", "5/2", "--mu", "3"], "restricted_rank1_k3_lam5-2_mu3")])
def test_polys_restricted_matches_the_golden_files(fmt, weights, stem):
    code, out, _ = run_cli(["polys", "--algebra", "rank1", "--k", "3",
                            "--kind", "restricted", "--format", fmt, *weights])
    assert code == 0
    with open(os.path.join(FIXTURES, f"{stem}.{fmt}")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("weight", ["--lambda", "--mu"])
def test_polys_restricted_needs_both_weights(weight):
    code, out, err = run_cli(["polys", "--algebra", "rank1", "--k", "3",
                              "--kind", "restricted", weight, "3"])
    assert code == 2 and out == ""
    assert "--lambda and --mu" in err


@pytest.mark.parametrize("weights, config", [
    (["--lambda", "3", "--mu", "5"], ""),
    (["--lambda", "3"], ""),
    (["--mu", "5"], ""),
    ([], "lambda = 3\nmu = 5\n"),
])
def test_polys_refuses_weights_for_the_two_slot_family(weights, config, tmp_path, monkeypatch):
    # the weights were ignored and the Q[s,t] table written, with exit 0
    from rclab import brackets

    def no_build(*args, **kwargs):
        raise AssertionError("a rejected configuration built a polynomial")

    monkeypatch.setattr(brackets, "compute_c", no_build)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1",
                              "--k", "1", *weights])
    assert code == 2 and out == ""
    assert err.startswith("error: --lambda and --mu") and err.count("\n") == 1, err


@pytest.mark.parametrize("args, unread", [
    (["--nodes", "5"], "--nodes"),
])
def test_gamma_refuses_an_option_its_rule_does_not_read(args, unread, monkeypatch):
    # each was ignored without a word, with exit 0
    def no_work(*args, **kwargs):
        raise AssertionError("a rejected configuration computed a Gamma value")

    monkeypatch.setattr(quadrature, "gamma_omega_closed", no_work)
    monkeypatch.setattr(quadrature, "gamma_omega_numeric", no_work)
    code, out, err = run_cli(["gamma", "--algebra", "sym2", "--nu", "3", *args])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {unread}: not read") and err.count("\n") == 1, err


def test_gamma_reads_the_options_of_its_rule_from_a_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nodes = 5\n")
    code, out, err = run_cli(["--config", str(cfg), "gamma", "--algebra", "rank1",
                              "--nu", "3"])
    assert code == 2 and err.startswith("error: --nodes: not read without --rule"), err
    code, out, err = run_cli(["--config", str(cfg), "gamma", "--algebra", "rank1",
                              "--nu", "3", "--rule", "eigenvalue-quadrature"])
    assert code == 0, err
    assert json.loads(out)["rule"] == {"kind": "eigenvalue-quadrature", "nodes": 5}


@pytest.mark.parametrize("args", [
    ["polys", "--kind", "pencil"],
    ["polys", "--format", "xml"],
    ["gram", "--format", "xml"],
    ["cache", "bogus"],
])
def test_a_flag_value_outside_its_choices_exits_2(args):
    # argparse refuses it; a config file value is refused by read_config_file
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2


def test_gram_builds_no_x_y_table(tmp_path, monkeypatch):
    # C(k) comes from the pencil chain over the one-slot tables: gram runs,
    # with the same bytes, when every x, y expansion raises
    from rclab import brackets, sympoly

    args = ["gram", "--algebra", "spin8", "--kmax", "2", "--lambda", "4", "--mu", "4",
            "--cache-dir", str(tmp_path / "cache")]
    code, want, _ = run_cli(args)
    assert code == 0

    def no_table(*args, **kwargs):
        raise AssertionError("gram expanded c(k) to x, y monomials")

    monkeypatch.setattr(brackets, "_pencils", {})
    monkeypatch.setattr(brackets, "_on_disk", {})
    for module in (brackets, sympoly):
        monkeypatch.setattr(module, "extract_bracket_polynomial", no_table)
    monkeypatch.setattr(brackets, "compute_c", no_table)
    code, out, err = run_cli(args)
    assert code == 0 and out == want, err
    assert os.listdir(tmp_path / "cache") == ["c_spin8.json"]


@pytest.mark.parametrize("args", [
    ["gamma", "--nu", "3", "--rule", "eigenvalue-quadrature",
     "--nodes", str(quadrature.MAX_LAGUERRE_NODES + 1)],
    ["gamma", "--nu", "3", "--rule", "eigenvalue-quadrature", "--nodes", str(MAX_NODES)],
    ["gamma", "--nu", "3", "--rule", "eigenvalue-quadrature", "--nodes", "0"],
    ["gamma", "--nu", "3", "--rule", "eigenvalue-quadrature", "--nodes", str(MAX_NODES + 1)],
    ["gram", "--kmax", "-1"],
    ["gram", "--nodes", "0"],
    ["gram", "--nodes", str(MAX_NODES - 7)],
    ["gram", "--algebra", "sym2", "--lambda", "3", "--mu", "3", "--nodes", "493"],
])
def test_costly_options_are_bounded(args):
    # only rejected values: an accepted one at the cap would build the rule
    code, out, err = run_cli(args)
    assert code == 2 and out == ""
    assert err.startswith("error: --")


@pytest.mark.parametrize("args", [
    # a 3,024-node rule that wrote "matrix": [[Infinity]] with exit 0
    ["--algebra", "sym2", "--lambda", "3000", "--mu", "3"],
    # an OverflowError traceback from the Jacobi rule
    ["--algebra", "rank1", "--lambda", "4000", "--mu", "1"],
    # --nodes does not lift the bound on the weights
    ["--algebra", "sym2", "--lambda", "3000", "--mu", "3", "--nodes", "10"],
    # one past the caps: n = int(lambda + mu) + d + 12 at kmax 0
    ["--algebra", "rank1", "--lambda", "980.5", "--mu", "1"],
    ["--algebra", "sym2", "--lambda", "477", "--mu", "3"],
    ["--algebra", "sym2", "--kmax", "1", "--lambda", "473", "--mu", "3"],
    ["--algebra", "rank1", "--lambda", "inf", "--mu", "1"],
    ["--algebra", "rank1", "--lambda", "nan", "--mu", "1"],
])
def test_gram_weights_obey_the_rule_caps(args, monkeypatch):
    # only rejected values, and no rule is built for them
    from rclab import quadrature

    def no_rule(*args, **kwargs):
        raise AssertionError("a rejected configuration built a rule")

    monkeypatch.setattr(quadrature, "gram_matrix", no_rule)
    code, out, err = run_cli(["gram", "--kmax", "0"] + args)
    assert code == 2 and out == ""
    assert err.startswith("error: --lambda and --mu"), err


@pytest.mark.parametrize("nu", ["nan", "inf", "171", "200"])
def test_gamma_rejects_a_nu_without_a_finite_gamma_product(nu):
    # nan and inf wrote NaN and Infinity into the JSON with exit 0; at 171 the
    # product overflows to inf, and at 200 Gamma(nu) raised OverflowError
    code, out, err = run_cli(["gamma", "--algebra", "sym2", "--nu", nu])
    assert code == 2 and out == ""
    assert err.startswith("error: --nu") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, nu", [("sym4", "1.4"), ("sym2", "0.3"), ("sym2", "0.5"),
                                      ("rank1", "-0.5")])
def test_gamma_refuses_a_nu_where_the_integral_diverges(name, nu, tmp_path):
    # below (r-1)d/2 the closed product printed a negative "cone Gamma" with
    # exit 0: -5574.92 for sym4 at 1.4 and -43.65 for sym2 at 0.3
    path = tmp_path / "gamma.json"
    code, out, err = run_cli(["gamma", "--algebra", name, "--nu", nu,
                              "--output", str(path)])
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: integral diverges") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, nu", [
    ("sym4", "3"), ("sym2", "98"), ("spin5", "90"), ("sym3", "72"), ("sym4", "58"),
], ids=["sym4-fractional-p", "sym2-98", "spin5-90", "sym3-72", "sym4-58"])
def test_gamma_eigenvalue_quadrature_matches_the_closed_form(name, nu):
    # sym4 at 3 (p = 1/2) read 1.09e-8; every rank-2 algebra from nu ~ 86
    # ended in an OverflowError traceback, and sym3 at 72 and sym4 at 58 wrote
    # "numeric": Infinity with exit 0
    code, out, err = run_cli(["gamma", "--algebra", name, "--nu", nu,
                              "--rule", "eigenvalue-quadrature"])
    assert code == 0, err
    data = json.loads(out, parse_constant=_no_constant)
    assert abs(data["numeric"] - data["closed"]) <= 1e-12 * data["closed"], data


def _no_constant(name):
    raise AssertionError(f"{name} in the JSON output")


def test_gamma_refuses_a_numeric_value_that_is_not_finite(monkeypatch):
    monkeypatch.setattr(quadrature, "gamma_omega_numeric", lambda *a, **k: float("inf"))
    code, out, err = run_cli(["gamma", "--algebra", "sym3", "--nu", "4",
                              "--rule", "eigenvalue-quadrature"])
    assert code == 2 and out == ""
    assert err.startswith("error: --nu 4.0:") and err.count("\n") == 1, err


def test_gamma_caps_the_points_of_the_chamber_rule(monkeypatch):
    # sym4's rule takes n^3 points; 80^3 is the cap, 81^3 is refused at once
    def no_work(*args, **kwargs):
        raise AssertionError("a rejected configuration computed a Gamma value")

    monkeypatch.setattr(quadrature, "gamma_omega_closed", no_work)
    monkeypatch.setattr(quadrature, "gamma_omega_numeric", no_work)
    code, out, err = run_cli(["gamma", "--algebra", "sym4", "--nu", "3",
                              "--rule", "eigenvalue-quadrature", "--nodes", "81"])
    assert code == 2 and out == ""
    assert err.startswith("error: --nodes 81") and err.count("\n") == 1, err


def test_gamma_caps_the_laguerre_nodes_of_rank1(monkeypatch):
    # the Laguerre rule raised "at most 256 Laguerre nodes", which does not
    # name the flag, after the closed product was computed
    def no_work(*args, **kwargs):
        raise AssertionError("a rejected configuration computed a Gamma value")

    monkeypatch.setattr(quadrature, "gamma_omega_closed", no_work)
    monkeypatch.setattr(quadrature, "gamma_omega_numeric", no_work)
    nodes = quadrature.MAX_LAGUERRE_NODES + 1
    code, out, err = run_cli(["gamma", "--algebra", "rank1", "--nu", "3",
                              "--rule", "eigenvalue-quadrature", "--nodes", str(nodes)])
    assert code == 2 and out == ""
    assert err == (f"error: --nodes {nodes}: rank 1 takes at most "
                   f"{quadrature.MAX_LAGUERRE_NODES} Laguerre nodes\n"), err


def test_gamma_takes_the_laguerre_cap_in_rank1():
    code, out, err = run_cli(["gamma", "--algebra", "rank1", "--nu", "3", "--rule",
                              "eigenvalue-quadrature",
                              "--nodes", str(quadrature.MAX_LAGUERRE_NODES)])
    assert code == 0, err
    data = json.loads(out)
    assert abs(data["numeric"] - data["closed"]) <= 1e-12 * data["closed"], data


@pytest.mark.parametrize("args", [
    ["--rule", "monte-carlo"],
    ["--samples", "7"],
    ["--seed", "3"],
])
def test_gamma_has_no_monte_carlo_options(args, capsys):
    # the Monte Carlo rule and its --samples and --seed are gone
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--algebra", "sym2", "--nu", "3", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert args[0] in err and sum("error:" in line for line in err.splitlines()) == 1, err


def test_check_gamma_sym2_writes_one_eigenvalue_report():
    # sym2 wrote a second, Monte Carlo report at tolerance 1e-2
    code, out, err = run_cli(["check", "gamma", "--algebra", "sym2"])
    assert code == 0, err
    (rep,) = json.loads(out)["reports"]
    assert rep["check"] == "cone-gamma-integral"
    assert rep["method"] == "eigenvalue-quadrature" and rep["tolerance"] == 1e-12, rep


def test_gram_past_the_jacobi_mass_overflow_writes_finite_numbers():
    # at lambda = 160 the Jacobi rule's mass overflowed to inf and the
    # report held NaN with exit 0
    code, out, err = run_cli(["gram", "--algebra", "sym2", "--kmax", "1",
                              "--lambda", "160", "--mu", "3"])
    assert code == 0, err
    data = json.loads(out, parse_constant=_no_constant)
    assert data["max_off_diagonal_ratio"] < 1e-12


def test_the_parser_is_built_once_and_keeps_no_call_state(tmp_path, monkeypatch):
    # main reuses one parser per process: a --tol and a --config of one call
    # must not reach the next
    from rclab import cli

    assert cli.build_parser() is cli.build_parser()
    seen = []

    def record(algebra, selector, tols):
        seen.append((algebra.name, selector, tols))
        return [], True

    monkeypatch.setattr(cli, "run_suites", record)
    config = tmp_path / "rclab.conf"
    config.write_text("algebra = sym2\n")
    assert run_cli(["--config", str(config), "check", "jordan-numerics",
                    "--tol", "jacobian=1e-7"])[0] == 0
    assert run_cli(["check", "jordan-numerics"])[0] == 0
    assert seen == [("sym2", "jordan-numerics", {"jacobian": 1e-7}),
                    ("rank1", "jordan-numerics", {})]


@pytest.mark.parametrize("config, bad", [
    ("format = xml\nkind = restricted\n", "format 'xml'"),
    ("format = latex\nkind = restricted\n", "format 'latex'"),
    ("format = xml\n", "format 'xml'"),
    ("kind = pencil\n", "kind 'pencil'"),
])
def test_polys_checks_the_format_before_building(config, bad, tmp_path, monkeypatch):
    # a config-file format = xml built C(k), then blamed latex
    from rclab import brackets

    def no_build(*args, **kwargs):
        raise AssertionError("a rejected configuration built a polynomial")

    monkeypatch.setattr(brackets, "compute_c", no_build)
    monkeypatch.setattr(brackets, "compute_C", no_build)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code, out, err = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1"])
    assert code == 2 and out == ""
    assert bad in err and err.count("\n") == 1, err


def test_jacobi_rule_past_the_gamma_overflow():
    # Gamma(alpha + 1) overflows from alpha = 171; the total weight
    # 2^(alpha+beta+1) B(alpha+1, beta+1) is still a float
    rule = quadrature.gauss_jacobi(4, 200.0, 1.0)
    want = 2.0 ** 202 / (201 * 202)
    assert abs(rule.weights.sum() - want) / want < 1e-12


def test_gram_cli_offdiagonals(tmp_path):
    out_path = tmp_path / "gram.json"
    code, _, _ = run_cli(["gram", "--algebra", "rank1", "--kmax", "4",
                          "--lambda", "1", "--mu", "1",
                          "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["max_off_diagonal_ratio"] < 1e-12


def test_gram_csv_lists_the_matrix_of_the_json_report():
    args = ["gram", "--algebra", "sym2", "--kmax", "2", "--lambda", "3", "--mu", "3"]
    _, out, _ = run_cli(args)
    code, csv, err = run_cli(args + ["--format", "csv"])
    assert code == 0, err
    matrix = json.loads(out)["matrix"]
    assert csv.splitlines() == ["k,l,value"] + [
        f"{k},{l},{v!r}" for k, row in enumerate(matrix) for l, v in enumerate(row)]


def test_gram_threshold_guard():
    code, _, err = run_cli(["gram", "--algebra", "sym2", "--kmax", "2",
                            "--lambda", "-1", "--mu", "3"])
    assert code == 2
    assert "orthogonality" in err


@pytest.mark.parametrize("name, weight", [("rank1", 1.0), ("sym2", 1.0), ("spin3", 1.0),
                                          ("sym3", 2.0), ("spin4", 2.0), ("spin5", 2.0),
                                          ("spin6", 3.0), ("spin7", 3.0), ("spin8", 4.0)])
def test_gram_default_weights_clear_the_threshold(name, weight):
    # the defaults are the least integer above 1 + (r-1)d - n/r; at 1 they
    # sat on or below it for sym3 and spin4..spin8, and gram exited 2
    code, out, err = run_cli(["gram", "--algebra", name, "--kmax", "0"])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["lambda"] == rep["mu"] == weight


def test_gram_default_kmax_reaches_the_node_cap_for_sym4():
    # the default kmax is min(2, cap); at 2 it was above sym4's cap of 1 and
    # gram exited 2 on --kmax before the weights were read
    code, _, err = run_cli(["gram", "--algebra", "sym4"])
    assert code == 2
    assert "--kmax" not in err and "(n + 8)^4 <= 250000" in err


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


@pytest.mark.parametrize("command, text, first, again", [
    ("gamma", "nu = 3\nnu = 4\n", 1, 2),
    ("polys", "cache-dir = a\n# a comment\n\ncache_dir = b\n", 1, 4),
    ("gamma", "algebra = sym2\nnu = 3\nalgebra = rank1\n", 1, 3),
], ids=["nu", "cache-dir", "algebra"])
def test_config_refuses_a_key_set_twice(command, text, first, again, tmp_path):
    # the last line won without a word: nu = 3 then nu = 4 ran nu = 4
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), command])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {cfg}:{again}: ") and f"line {first}" in err, err
    assert err.count("\n") == 1, err


def test_config_file_parse_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("algebra rank1\n")
    code, _, err = run_cli(["--config", str(cfg), "gamma", "--nu", "2"])
    assert code == 2


def test_config_keys_are_the_flag_names(tmp_path):
    # the keys were the argparse dests, family_kind and lam: `kind` and
    # `lambda` were ignored without a word and the two-slot table came out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = restricted\nlambda = 3\nmu = 5\n")
    code, out, err = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1",
                              "--k", "1"])
    assert code == 0, err
    want = run_cli(["polys", "--algebra", "rank1", "--k", "1", "--kind", "restricted",
                    "--lambda", "3", "--mu", "5"])[1]
    assert json.loads(out)["kind"] == "restricted-polynomial" and out == want


@pytest.mark.parametrize("key", ["cache-dir", "cache_dir"])
def test_config_keys_take_dashes_or_underscores(key, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {tmp_path / 'cache'}\n")
    code, _, err = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1",
                            "--k", "1"])
    assert code == 0, err
    assert os.listdir(tmp_path / "cache") == ["c_rank1.json"]


@pytest.mark.parametrize("command, text, key", [
    (["gram", "--algebra", "rank1", "--kmax", "1"], "lamda = 3\n", "lamda"),
    (["polys", "--algebra", "rank1"], "family_kind = restricted\n", "family_kind"),
    (["polys", "--algebra", "rank1"], "lam = 3\n", "lam"),
    # a flag of another subcommand
    (["polys", "--algebra", "rank1"], "nu = 3\n", "nu"),
    (["check", "branch", "--algebra", "rank1"], "suite = all\n", "suite"),
    # the flags of the Monte Carlo rule, which is gone
    (["gamma", "--algebra", "sym2", "--nu", "3"], "samples = 7\n", "samples"),
    (["gamma", "--algebra", "sym2", "--nu", "3"], "seed = 3\n", "seed"),
])
def test_config_rejects_a_key_that_is_no_flag(command, text, key, tmp_path):
    # `lamda = 3` in a gram config was ignored, with exit 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), *command])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"unknown key {key!r}" in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["1/0", "x", "nan", "1/"])
@pytest.mark.parametrize("weight", ["--lambda", "--mu"])
def test_polys_rejects_a_weight_that_is_no_rational(weight, value, tmp_path):
    # --lambda 1/0 ended in a ZeroDivisionError traceback with exit 1
    args = {"--lambda": "2", "--mu": "2", weight: value}
    code, out, err = run_cli(["polys", "--algebra", "rank1", "--k", "1",
                              "--kind", "restricted", *(x for kv in args.items() for x in kv)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {weight}") and err.count("\n") == 1, err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = restricted\n" + "".join(f"{k[2:]} = {v}\n" for k, v in args.items()))
    code, out, err = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1",
                              "--k", "1"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {weight}") and err.count("\n") == 1, err


def test_polys_weights_read_the_same_from_a_flag_and_a_file(tmp_path):
    # a flag value reached compute_C as text, so --lambda 2.5 wrote "2.5"
    # while lambda = 2.5 in a config file wrote "5/2"
    code, flag, _ = run_cli(["polys", "--algebra", "rank1", "--k", "2",
                             "--kind", "restricted", "--lambda", "2.5", "--mu", "0.75"])
    assert code == 0
    data = json.loads(flag)
    assert data["lambda"] == "5/2" and data["mu"] == "3/4"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = restricted\nlambda = 2.5\nmu = 0.75\n")
    code, file, _ = run_cli(["--config", str(cfg), "polys", "--algebra", "rank1",
                             "--k", "2"])
    assert code == 0 and file == flag


PATH_COMMANDS = [["polys", "--algebra", "rank1", "--k", "1"],
                 ["gram", "--algebra", "rank1", "--kmax", "1"]]


@pytest.mark.parametrize("command", PATH_COMMANDS)
def test_a_missing_config_file_is_a_configuration_error(command, tmp_path):
    code, out, err = run_cli(["--config", str(tmp_path / "none.cfg"), *command])
    assert code == 2 and out == ""
    assert err.startswith("error: --config") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", PATH_COMMANDS + [["check", "branch"]])
def test_an_output_in_a_missing_directory_is_a_configuration_error(command, tmp_path):
    code, out, err = run_cli([*command, "--output", str(tmp_path / "none" / "out.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: --output") and err.count("\n") == 1, err


def test_an_output_in_a_missing_directory_stops_the_check_before_any_suite(
        tmp_path, monkeypatch):
    # the directory was found missing only after every suite had run
    import rclab.cli as cli

    calls = []

    def stub(algebra, tols):
        calls.append(algebra.name)
        return [report("stub", algebra.name, ok=True)]

    monkeypatch.setitem(cli.SUITES, "cayley", stub)
    code, out, err = run_cli(["check", "cayley", "--algebra", "rank1",
                              "--output", str(tmp_path / "none" / "out.json")])
    assert code == 2 and out == "" and err.startswith("error: --output"), err
    assert calls == []
    code, _, err = run_cli(["check", "cayley", "--algebra", "rank1",
                            "--output", str(tmp_path / "out.json")])
    assert code == 0 and calls == ["rank1"], err


def test_an_output_that_is_a_directory_stops_the_check_before_any_suite(
        tmp_path, monkeypatch):
    # every suite ran, and then the write failed with Is a directory
    import rclab.cli as cli

    def no_suite(*args, **kwargs):
        raise AssertionError("a refused check ran a suite")

    monkeypatch.setattr(cli, "SUITES", dict.fromkeys(cli.SUITES, no_suite))
    code, out, err = run_cli(["check", "all", "--algebra", "sym2", "--output", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: --output {tmp_path}: is a directory\n", err


@pytest.mark.parametrize("action", ["inspect", "clear"])
def test_cache_requires_a_cache_dir(action, tmp_path, monkeypatch):
    # cache clear fell back to ./.rclab-cache, which no command writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".rclab-cache").mkdir()
    (tmp_path / ".rclab-cache" / "c_rank1.json").write_text("{}")
    code, out, err = run_cli(["cache", action])
    assert code == 2 and out == ""
    assert err == "error: cache requires --cache-dir\n", err
    assert os.listdir(tmp_path / ".rclab-cache") == ["c_rank1.json"]


# a cheap run of each subcommand, with every flag left to its default
SUBCOMMAND_RUNS = {
    "polys": ["polys", "--algebra", "rank1", "--k", "0"],
    "gram": ["gram", "--algebra", "rank1", "--kmax", "0"],
    "gamma": ["gamma", "--nu", "3"],
    "check": ["check", "cayley", "--algebra", "rank1"],
    "cache": ["cache", "inspect", "--cache-dir", "CACHE"],
}


def test_every_flag_a_subcommand_declares_is_read(tmp_path, monkeypatch):
    # gamma took a --cache-dir it never read, and cache an --algebra
    import argparse

    from rclab.cli import build_parser

    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    # argparse looks up every dest while it parses: record from the
    # parsed namespace on, what the command reads
    parser = build_parser()
    parse = parser.parse_args

    def parse_and_record(argv):
        args = parse(argv)
        args.__class__ = Recording
        return args

    monkeypatch.setattr(parser, "parse_args", parse_and_record)
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(SUBCOMMAND_RUNS)
    for name, sp in subparsers.items():
        read.clear()
        argv = [str(tmp_path / "cache") if a == "CACHE" else a for a in SUBCOMMAND_RUNS[name]]
        code, _, err = run_cli(argv)
        assert code == 0, err
        declared = {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
        assert declared <= read, (name, sorted(declared - read))


@pytest.mark.parametrize("command", PATH_COMMANDS + [["check", "polynomiality"]])
def test_a_cache_dir_that_cannot_be_made_is_a_configuration_error(command, tmp_path):
    # a check wrote a suite-error report per suite and exited 1
    (tmp_path / "file").write_text("")
    code, out, err = run_cli([*command, "--cache-dir", str(tmp_path / "file" / "cache")])
    assert code == 2 and out == ""
    assert err.startswith("error: --cache-dir") and err.count("\n") == 1, err


def test_cache_inspect_and_clear(tmp_path):
    cache = tmp_path / "cache"
    run_cli(["polys", "--algebra", "rank1", "--k", "3", "--format", "json",
             "--cache-dir", str(cache), "--output", str(tmp_path / "x.json")])
    code, out, _ = run_cli(["cache", "inspect", "--cache-dir", str(cache)])
    data = json.loads(out)
    assert [e["file"] for e in data["entries"]] == ["c_rank1.json"]
    code, out, _ = run_cli(["cache", "clear", "--cache-dir", str(cache)])
    data = json.loads(out)
    assert data["removed"] == ["c_rank1.json"]
    code, out, _ = run_cli(["cache", "inspect", "--cache-dir", str(cache)])
    assert json.loads(out)["entries"] == []


def test_a_cache_file_that_is_a_directory_is_an_error(tmp_path):
    # the chain's atomic write raised IsADirectoryError in a traceback
    (tmp_path / "c_rank1.json").mkdir()
    code, out, err = run_cli(["polys", "--algebra", "rank1", "--k", "2", "--format", "csv",
                              "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["c_rank1.json"]


def test_cache_inspect_of_a_dangling_link_is_an_error(tmp_path):
    # os.path.getsize raised FileNotFoundError in a traceback
    (tmp_path / "c_x.json").symlink_to(tmp_path / "missing")
    code, out, err = run_cli(["cache", "inspect", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "c_x.json" in err and err.count("\n") == 1, err


def test_cache_clear_of_a_directory_is_an_error(tmp_path):
    # os.unlink raised IsADirectoryError in a traceback
    (tmp_path / "c_dir.json").mkdir()
    code, out, err = run_cli(["cache", "clear", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "c_dir.json" in err and err.count("\n") == 1, err
    assert (tmp_path / "c_dir.json").is_dir()


def test_cache_clear_removes_every_name_past_one_it_cannot_remove(tmp_path):
    # clear stopped at c_dir.json, and c_zz.json, sorted after it, stayed
    (tmp_path / "c_dir.json").mkdir()
    (tmp_path / "c_zz.json").write_text("{}")
    (tmp_path / "c_zz2.tmp").mkdir()
    code, out, err = run_cli(["cache", "clear", "--cache-dir", str(tmp_path)])
    assert code == 2 and out == "" and err.count("\n") == 1, err
    assert err.startswith("error: ") and "c_dir.json" in err and "c_zz2.tmp" in err, err
    assert sorted(os.listdir(tmp_path)) == ["c_dir.json", "c_zz2.tmp"]


def test_check_suite_exit_zero(tmp_path):
    code, out, _ = run_cli(["check", "cayley", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["schema"] == "rc-lab/1"


def test_gram_sym3_is_exact_on_the_chamber():
    # the tensor rule across the |Vandermonde| kink read an estimated error
    # of 0.118 and off-diagonal ratios up to 1.1e-3 here
    code, out, err = run_cli(["gram", "--algebra", "sym3", "--kmax", "2",
                              "--lambda", "3", "--mu", "3"])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["estimated_error"] <= 1e-10
    assert rep["max_off_diagonal_ratio"] <= 1e-12


def test_polys_recomputes_a_truncated_cache_file(tmp_path, monkeypatch):
    import rclab.brackets as B

    cache = tmp_path / "cache"
    args = ["polys", "--algebra", "rank1", "--k", "2", "--cache-dir", str(cache)]
    monkeypatch.setattr(B, "_memory_cache", {})
    monkeypatch.setattr(B, "_pencils", {})
    monkeypatch.setattr(B, "_on_disk", {})
    code, want, _ = run_cli(args)
    assert code == 0
    path = cache / "c_rank1.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    monkeypatch.setattr(B, "_memory_cache", {})
    monkeypatch.setattr(B, "_pencils", {})
    monkeypatch.setattr(B, "_on_disk", {})
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

    def boom(algebra, tols):
        raise ValueError("point off the tube")

    monkeypatch.setitem(cli.SUITES, "cocycles", boom)
    code, out, _ = run_cli(["check", "all", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 1
    reports = json.loads(out)["reports"]
    failed = [r for r in reports if not r["pass"]]
    assert failed == [{"schema": "rc-lab/1", "check": "suite-error",
                       "algebra": "rank1", "suite": "cocycles",
                       "error": "ValueError: point off the tube",
                       "pass": False}]
    names = {r["check"] for r in reports}
    assert "kernel-cocycle-identity" not in names
    # suites before and after the failing one still report
    assert {"rodrigues-polynomiality", "branch-path-independence"} <= names


def test_check_k_stays_within_the_caps(monkeypatch):
    import rclab.brackets as B
    from rclab.algebra import get_algebra
    from rclab.cli import run_suites

    class Stub:
        def num_monomials(self):
            return 0

    seen = []

    def record(algebra, k):
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


def test_config_file_tolerances_are_name_value_pairs(tmp_path, cache_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = branch=1e-12, isometry-norm=1e-14\n")
    code, out, err = run_cli(["--config", str(cfg), "check", "all",
                              "--algebra", "rank1", "--cache-dir", cache_dir])
    assert code == 0, err
    tolerance = {r["check"]: r.get("tolerance") for r in json.loads(out)["reports"]}
    assert tolerance["branch-path-independence"] == 1e-12
    assert tolerance["transform-norm-isometry"] == 1e-14


@pytest.mark.parametrize("value", ["inf", "1e300", "1e-9", "0", "-1e-12", "nan", "abc"])
def test_check_tolerance_may_only_tighten(value, tmp_path):
    # a check at tolerance inf (or any looser value) cannot fail; each of
    # these exited 0.  abc said only: could not convert string to float
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tol = branch={value}\n")
    for argv in (["check", "branch", "--algebra", "rank1", "--tol", f"branch={value}"],
                 ["--config", str(cfg), "check", "branch", "--algebra", "rank1"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", (argv, out)
        assert err.startswith("error: --tol branch=") and err.count("\n") == 1, err


@pytest.mark.parametrize("flags, config, named", [
    (["--tol", "gamma=1e-30", "--tol", "gamma=1e-12"], None, "--tol gamma"),
    ([], "tol = gamma=1e-30, gamma=1e-12\n", "--tol gamma"),
    ([], "tol = gamma=1e-30\ntol = gamma=1e-12\n", ":2: tol is set again; line 1"),
], ids=["two-flags", "one-line", "two-lines"])
def test_check_refuses_a_tolerance_given_twice(flags, config, named, tmp_path, monkeypatch):
    # the last one won: the tighter 1e-30 was dropped and the check exited 0
    import rclab.cli as cli

    def no_suite(*args, **kwargs):
        raise AssertionError("a refused check ran a suite")

    monkeypatch.setitem(cli.SUITES, "gamma", no_suite)
    argv = ["check", "gamma", "--algebra", "rank1", *flags]
    if config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and err.count("\n") == 1, err


def test_check_tolerance_flags_override_the_file(tmp_path):
    # a name in both the file and a flag is no repeat: the flags replace the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = gamma=1e-30\n")
    code, out, err = run_cli(["--config", str(cfg), "check", "gamma", "--algebra",
                              "rank1", "--tol", "gamma=1e-13"])
    assert code == 0, err
    (rep,) = json.loads(out)["reports"]
    assert rep["tolerance"] == 1e-13


def test_check_tolerance_flags_merge_with_the_file_name_by_name(tmp_path, cache_dir):
    # a --tol flag replaced the file's whole tol line: isometry-norm ran at
    # the built-in tolerance, not the file's, and the check exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = branch=1e-12, isometry-norm=1e-14\n")
    code, out, err = run_cli(["--config", str(cfg), "check", "all", "--algebra", "rank1",
                              "--cache-dir", cache_dir, "--tol", "branch=1e-13"])
    assert code == 0, err
    tolerance = {r["check"]: r.get("tolerance") for r in json.loads(out)["reports"]}
    assert tolerance["branch-path-independence"] == 1e-13
    assert tolerance["transform-norm-isometry"] == 1e-14


def test_run_suites_lets_a_loose_tolerance_through():
    # not a suite-error report: a loose tolerance is the caller's error
    from rclab.algebra import get_algebra
    from rclab.cli import ConfigError, run_suites

    with pytest.raises(ConfigError, match="branch"):
        run_suites(get_algebra("rank1"), "branch", tols={"branch": 1e-9})
    reports, ok = run_suites(get_algebra("rank1"), "branch", tols={"branch": 1e-11})
    assert ok and reports[0]["tolerance"] == 1e-11


@pytest.mark.parametrize("suite, algebra, tighter, looser", [
    ("change-of-variables", "rank1", 1e-13, 1e-11),
    ("change-of-variables", "sym2", 1e-13, 1e-11),
    ("laplace-factorization", "rank1", 1e-13, 1e-10),
    ("laplace-factorization", "sym2", 1e-13, 1e-10),
])
def test_chart_suites_read_their_tolerance_from_the_table(suite, algebra, tighter, looser,
                                                          cache_dir):
    # both chart checks read a module constant, so --tol could not name them
    argv = ["check", suite, "--algebra", algebra, "--cache-dir", cache_dir, "--tol"]
    code, out, err = run_cli(argv + [f"{suite}={tighter}"])
    assert code == 0, err
    (rep,) = json.loads(out)["reports"]
    assert rep["pass"] and rep["tolerance"] == tighter, rep
    code, out, err = run_cli(argv + [f"{suite}={looser}"])
    assert code == 2 and out == "" and err.startswith(f"error: --tol {suite}="), err


def test_check_rejects_an_unknown_tolerance_name(tmp_path):
    code, _, err = run_cli(["check", "branch", "--algebra", "rank1",
                            "--tol", "brnch=1e-300"])
    assert code == 2 and "brnch" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = brnch=1e-300\n")
    code, _, err = run_cli(["--config", str(cfg), "check", "branch",
                            "--algebra", "rank1"])
    assert code == 2 and "brnch" in err


def test_the_automorphism_suite_and_its_tolerance_are_gone(tmp_path):
    # C(k) is a polynomial in the eigenvalues, so an automorphism check could
    # not fail: its suite and --tol aut are refused like any unknown name
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = aut=1e-11\n")
    for argv in (["check", "aut-invariance", "--algebra", "sym2"],
                 ["check", "all", "--algebra", "sym2", "--tol", "aut=1e-11"],
                 ["--config", str(cfg), "check", "all", "--algebra", "sym2"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and "aut" in err and err.count("\n") == 1, (argv, err)


def test_the_chi_and_iota_suites_and_their_tolerance_are_gone(tmp_path):
    # and the float orthogonality suite with its tolerance, which the box
    # certificate in polynomiality replaces, and cauchy-stability with its
    # tolerance, which tested the Cauchy rings the Taylor jets replaced
    for line, word in (("iota-fact=1e-11", "iota"), ("orthogonality=1e-12", "orthogonality"),
                       ("cauchy=1e-14", "cauchy")):
        cfg = tmp_path / f"{word}.cfg"
        cfg.write_text(f"tol = {line}\n")
        for argv in (["check", "all", "--tol", line], ["--config", str(cfg), "check", "all"]):
            code, out, err = run_cli(argv)
            assert code == 2 and out == "" and word in err, (argv, err)
    for argv in (["check", "chi-covariance"], ["check", "iota-factorization"],
                 ["check", "orthogonality"], ["check", "cauchy-stability"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and argv[1] in err, (argv, err)


def test_every_tolerance_a_suite_reads_is_named():
    # a suite reads ``tols`` only as tols["literal"], and exactly the names
    # its SUITE_TABLE row lists
    import ast
    import inspect
    import textwrap

    import rclab.cli as cli

    for name, row in cli.SUITE_TABLE.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(row.run)))
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "tols"]
        reads = [node.slice for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                 and getattr(node.value, "id", None) == "tols"]
        assert len(reads) == len(uses), f"{name} reads tols other than by tols[...]"
        assert all(isinstance(key, ast.Constant) for key in reads), name
        assert {key.value for key in reads} == set(row.tols), name


def test_the_built_in_tolerances_per_algebra():
    # 14 names, each read by one suite, at the values the checks held before
    # the table; hua, coherent, rank1's laplace, adjoint and jacobian, the
    # two chart checks, operator-equivalence, isometry, covariance and
    # branch at the power of ten at or above 1,000 x their worst residual
    from rclab.algebra import ALGEBRA_NAMES
    import rclab.cli as cli

    names = [t for row in cli.SUITE_TABLE.values() for t in row.tols]
    assert len(names) == len(set(names)) == 14
    for alg in ALGEBRA_NAMES:
        want = {"iota-roundtrip": 1e-12, "jacobian": 1e-7 if alg == "rank1" else 1e-6,
                "gamma": 1e-12}
        if alg == "rank1":
            want.update({"laplace": 1e-12, "adjoint": 1e-11,
                         "isometry-norm": 1e-12, "operator-equivalence": 1e-12,
                         "isometry": 1e-12})
        if alg == "sym2":
            want.update({"laplace": 1e-4, "adjoint": 1e-3})
        if alg in ("rank1", "sym2"):
            want.update({"covariance": {"rank1": 1e-9, "sym2": 1e-10}[alg], "hua": 1e-12,
                         "coherent": {"rank1": 1e-12, "sym2": 1e-11}[alg],
                         "branch": {"rank1": 1e-11, "sym2": 1e-12}[alg],
                         "change-of-variables": 1e-12, "laplace-factorization": 1e-11})
        got = {}
        for row in cli.SUITE_TABLE.values():
            if alg in row.algebras:
                got.update(row.tolerances(alg))
        assert got == want, alg


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_cocycles_fail_psi_off_by_a_relative_1e_10(name, monkeypatch):
    # hua and coherent were 1e-8, which passed psi_g scaled by 1 + 1e-10;
    # at 1,000 x the worst residual each report that reads psi fails it
    import rclab.cli as cli
    from rclab import tube
    from rclab.algebra import get_algebra

    alg = get_algebra(name)
    generators = tube.default_generators

    def off(psi):
        return lambda z: psi(z) * (1 + 1e-10)

    def skewed(algebra):
        gens = generators(algebra)
        for gen in gens:
            gen.psi = off(gen.psi)
        return gens

    monkeypatch.setattr(tube, "default_generators", skewed)
    assert all(r["pass"] for r in cli.SUITES["cocycles"](alg, {"hua": 1e-8, "coherent": 1e-8}))
    reports, ok = cli.run_suites(alg, "cocycles")
    assert not ok and {(r["check"], r["generator"]) for r in reports if not r["pass"]} == {
        (check, gen) for check in ("kernel-cocycle-identity", "coherent-state-transport")
        for gen in ("dilation", "inversion")}


@pytest.mark.parametrize("suite, tol, old", [("laplace", "laplace", 1e-8),
                                             ("adjoint-image", "adjoint", 1e-6)])
def test_rank1_laplace_reports_fail_a_radial_factor_off_by_a_relative_1e_10(
        suite, tol, old, monkeypatch):
    # laplace was 1e-8, adjoint and isometry-norm 1e-6, which passed every
    # ray's closed radial integral scaled by 1 + 1e-10; at 1,000 x the worst
    # residual every report that reads tube_laplace fails it
    import rclab.cli as cli
    from rclab import quadrature
    from rclab.algebra import get_algebra

    alg = get_algebra("rank1")
    radial = quadrature._radial
    monkeypatch.setattr(quadrature, "_radial", lambda a, b: radial(a, b) * (1 + 1e-10))
    assert all(r["pass"] for r in cli.SUITES[suite](alg, {tol: old, "isometry-norm": 1e-6}))
    reports, ok = cli.run_suites(alg, suite)
    failed = [r["check"] for r in reports if not r["pass"]]
    want = {"laplace": ["laplace-transform-of-weight", "transform-norm-isometry"],
            "adjoint-image": ["adjoint-image-laplace"] * 3}[suite]
    assert not ok and failed == want, reports


def test_rank1_bergman_isometry_fails_a_det_power_off_by_1e_9(monkeypatch):
    # the Bergman isometry's transforms come from tube_laplace, so a det
    # power 1e-9 off moves its ratios by about 2e-9: the old 1e-6 passed
    # that, the table's 1e-12 fails it
    import rclab.cli as cli
    from rclab import tube
    from rclab.algebra import get_algebra

    alg = get_algebra("rank1")
    laplace = tube.tube_laplace
    monkeypatch.setattr(tube, "tube_laplace",
                        lambda algebra, exps, Z, p: laplace(algebra, exps, Z, p + 1e-9))
    assert tube.check_bergman_isometry(alg, 1e-6)["pass"]
    reports, ok = cli.run_suites(alg, "laplace")
    assert not ok and [r["check"] for r in reports if not r["pass"]] == [
        "transform-norm-isometry"], reports


def _fails_only_at_the_table(name, suite, old, failing):
    """The reports of ``suite`` for the algebra ``name`` all pass at the old
    tolerances ``old`` and, at the table's, exactly the checks ``failing``
    fail."""
    import rclab.cli as cli
    from rclab.algebra import get_algebra

    alg = get_algebra(name)
    assert all(r["pass"] for r in cli.SUITES[suite](alg, old))
    reports, ok = cli.run_suites(alg, suite)
    assert not ok and [r["check"] for r in reports if not r["pass"]] == failing, reports


def _transport_off(monkeypatch, by):
    """tube.transport with each moved slot's factor scaled by 1 + ``by``."""
    from rclab import tube

    transport = tube.transport

    def off(gen, slot):
        nu, w, factor = transport(gen, slot)
        return nu, w, factor * (1 + by)

    monkeypatch.setattr(tube, "transport", off)


@pytest.mark.parametrize("name, count", [("rank1", 12), ("sym2", 3)])
def test_covariance_fails_the_slot_actions_off_by_a_relative_1e_8(name, count, monkeypatch):
    # covariance was 1e-6, which passed pi_lam(g) F and pi_mu(g) G each
    # scaled by 1 + 1e-8 (one route off by 2e-8); at the table's 1e-9
    # (rank1) and 1e-10 (sym2) every report fails
    _transport_off(monkeypatch, 1e-8)
    _fails_only_at_the_table(name, "covariance", {"covariance": 1e-6},
                             ["bracket-group-covariance"] * count)


def test_sym2_covariance_fails_the_slot_actions_off_by_a_relative_2e_10(monkeypatch):
    # sym2's covariance was 1e-9, which passed both moved slots scaled by
    # 1 + 2e-10 (one route off by 4e-10); the jets' worst residual, 1.6e-14,
    # puts it at 1e-10, which fails every report
    _transport_off(monkeypatch, 2e-10)
    _fails_only_at_the_table("sym2", "covariance", {"covariance": 1e-9},
                             ["bracket-group-covariance"] * 3)


@pytest.mark.parametrize("name, failing", [("rank1", [(2, "inversion"), (3, "inversion")]),
                                           ("sym2", [(1, "inversion")])])
def test_covariance_fails_a_jet_off_at_one_order(name, failing, monkeypatch):
    # the second-order jets off by a relative 1e-8 read 6e-7 to 9e-7 where
    # a bracket takes them and the inversion sees them; a translation moves
    # u = (z - conj w)/i nowhere and a dilation scales every order alike
    import rclab.cli as cli
    from rclab import tube
    from rclab.algebra import get_algebra

    jets = tube.det_power_jets

    def off(algebra, nu, U, alphas):
        return {a: v * (1 + 1e-8) if sum(a) == 2 else v
                for a, v in jets(algebra, nu, U, alphas).items()}

    monkeypatch.setattr(tube, "det_power_jets", off)
    reports, ok = cli.run_suites(get_algebra(name), "covariance")
    assert not ok and [(r["k"], r["generator"]) for r in reports if not r["pass"]] == failing


def test_operator_equivalence_fails_the_jets_off_by_a_relative_3e_12(monkeypatch):
    # operator-equivalence was 1e-11, which passed every jet scaled by
    # 1 + 3e-12 (the bracket off by 6e-12); the jets' worst residual,
    # 7.3e-16, puts it at 1e-12, which fails every report
    from rclab import tube

    jets = tube.det_power_jets
    monkeypatch.setattr(tube, "det_power_jets", lambda *args: {
        a: v * (1 + 3e-12) for a, v in jets(*args).items()})
    _fails_only_at_the_table("rank1", "operator-equivalence", {"operator-equivalence": 1e-11},
                             ["bracket-transform-equivalence"] * 4)


@pytest.mark.parametrize("suite, tol, check, count", [
    ("partial-isometry", "isometry", "adjoint-partial-isometry", 3),
    ("operator-equivalence", "operator-equivalence", "bracket-transform-equivalence", 4)])
def test_rank1_closed_moment_checks_fail_the_interval_integral_off_by_a_relative_1e_9(
        suite, tol, check, count, monkeypatch):
    # both were 1e-6, which passed the interval integral scaled by 1 + 1e-9
    # (partial-isometry even at 1e-7); on closed moments the table's 1e-12
    # and 1e-11 fail every report, each of which reads it
    from rclab import tube

    integral = tube.weyl_integral
    monkeypatch.setattr(tube, "weyl_integral",
                        lambda *args, **kwargs: integral(*args, **kwargs) * (1 + 1e-9))
    _fails_only_at_the_table("rank1", suite, {tol: 1e-6}, [check] * count)


@pytest.mark.parametrize("swap", ["weights", "functions"])
def test_operator_equivalence_fails_the_bracket_with_its_slots_swapped(swap, monkeypatch):
    # lam != mu and f1, f2 of different powers: a bracket that swaps its
    # weights or its functions fails for each k that sees the slot order
    # (k = 0 is the product F G); one bump in both slots missed the swapped
    # weights at k = 2
    import rclab.cli as cli
    from rclab import tube
    from rclab.algebra import get_algebra

    apply_B = tube.apply_B

    def swapped(algebra, k, lam, mu, F, G, z):
        if swap == "weights":
            return apply_B(algebra, k, mu, lam, F, G, z)
        return apply_B(algebra, k, lam, mu, G, F, z)

    monkeypatch.setattr(tube, "apply_B", swapped)
    reports, ok = cli.run_suites(get_algebra("rank1"), "operator-equivalence")
    failed = [r for r in reports if not r["pass"]]
    assert not ok and [r["k"] for r in failed] == [1, 2, 3], reports
    assert all(r["residual"] > 0.1 for r in failed), failed


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_branch_fails_a_path_log_off_by_3e_11(name, monkeypatch):
    # branch was 1e-10 for both; the table's 1e-11 (rank1) and 1e-12 (sym2)
    # catch the log along the path off by 3e-11
    import rclab.cli as cli

    path = cli._path_logdet
    monkeypatch.setattr(cli, "_path_logdet", lambda *args: path(*args) + 3e-11)
    _fails_only_at_the_table(name, "branch", {"branch": 1e-10}, ["branch-path-independence"])


def test_rank1_jacobian_fails_the_closed_jacobian_off_by_a_relative_3e_7(monkeypatch):
    # jacobian was 1e-6, which passed the closed Jacobian 2^{-n} det(z)^{n/r}
    # scaled by 1 + 3e-7 against the finite differences; rank1's 1e-7 fails it
    from rclab import algebra as jordan

    jacobian = jordan.iota_jacobian
    monkeypatch.setattr(jordan, "iota_jacobian",
                        lambda algebra, Z: jacobian(algebra, Z) * (1 + 3e-7))
    _fails_only_at_the_table("rank1", "jordan-numerics",
                             {"iota-roundtrip": 1e-12, "jacobian": 1e-6},
                             ["polar-chart-jacobian"])


@pytest.mark.parametrize("args", [
    ["covariance", "--algebra", "spin4"],
    ["jacobi", "--algebra", "sym2", "--tol", "gamma=1e-30"],
    ["all", "--algebra", "rank1", "--tol", "gamma-mc=1e-1"],
    ["branch", "--algebra", "rank1", "--tol", "covariance=1e-10"],
    ["all", "--algebra", "sym2", "--tol", "covariance=1e-3"],
    # sym2 read gamma-mc, the tolerance of the Monte Carlo Gamma check
    ["all", "--algebra", "sym2", "--tol", "gamma-mc=1e-3"],
])
def test_check_refuses_a_run_that_tests_nothing_before_any_suite(args, monkeypatch):
    # each exited 0, or 2 only after the suites before the reader had run
    import rclab.cli as cli

    calls = []
    for name in cli.SUITES:
        def stub(algebra, tols, name=name):
            calls.append(name)
            return [report("stub", algebra.name, ok=True)]
        monkeypatch.setitem(cli.SUITES, name, stub)
    code, out, err = run_cli(["check", *args])
    assert code == 2 and out == "" and calls == [], (out, calls)
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    ["covariance", "--algebra", "spin4"],
    ["all", "--algebra", "rank1", "--tol", "gamma-mc=1e-3"],
], ids=["covariance-spin4", "all-rank1-gamma-mc"])
def test_a_refused_check_makes_no_cache_dir(args, tmp_path):
    # the refusal came after --cache-dir was created, so the directory stayed
    cache = tmp_path / "D"
    code, out, err = run_cli(["check", *args, "--cache-dir", str(cache)])
    assert code == 2 and out == "" and err.count("\n") == 1, err
    assert not cache.exists()


@pytest.mark.parametrize("command, text", [
    # exited 0 and reported the eigenvalue quadrature
    (["gamma", "--algebra", "sym2", "--nu", "3"], "rule = bogus\n"),
    # built c(0..3) into the cache and integrated before it exited 2
    (["gram", "--algebra", "sym2", "--kmax", "3"], "format = xml\n"),
], ids=["gamma-rule", "gram-format"])
def test_config_values_must_be_among_the_flag_choices(command, text, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    cache = tmp_path / "cache"
    # gamma reads no cache, so it declares no --cache-dir
    flags = [] if command[0] == "gamma" else ["--cache-dir", str(cache)]
    code, out, err = run_cli(["--config", str(cfg), *command, *flags])
    assert code == 2 and out == "" and not cache.exists()
    key, _, val = text.strip().partition(" = ")
    assert err.startswith("error: ") and f"invalid {key} {val!r}" in err, err
    assert err.count("\n") == 1, err


def test_a_suite_that_reports_nothing_fails_the_check(monkeypatch):
    import rclab.cli as cli

    monkeypatch.setitem(cli.SUITES, "covariance", lambda algebra, tols: [])
    code, out, _ = run_cli(["check", "covariance", "--algebra", "rank1"])
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["check"] == "suite-error" and rep["suite"] == "covariance"
    assert rep["pass"] is False


def test_every_suite_the_table_lists_reports_and_reads_its_tolerances(
        cache_dir, monkeypatch):
    # rank1 runs 15 suites, sym2 12 and the other algebras 5
    from rclab.algebra import ALGEBRA_NAMES
    import rclab.cli as cli

    read, ran = set(), {}

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    for name, run in cli.SUITES.items():
        def counted(algebra, tols, name=name, run=run):
            read.clear()
            reports = run(algebra, Reads(tols))
            ran[name] = (len(reports), set(read))
            return reports
        monkeypatch.setitem(cli.SUITES, name, counted)
    for alg in ALGEBRA_NAMES:
        ran.clear()
        code, out, err = run_cli(["check", "all", "--algebra", alg, "--cache-dir", cache_dir])
        assert code == 0, (alg, err)
        want = [n for n, row in cli.SUITE_TABLE.items() if alg in row.algebras]
        assert list(ran) == want and len(want) == {"rank1": 15, "sym2": 12}.get(alg, 5)
        for name, (count, names) in ran.items():
            assert count > 0, (alg, name)
            assert names == set(cli.SUITE_TABLE[name].tolerances(alg)), (alg, name)


@pytest.mark.parametrize("name", ["spin3", "spin4", "spin5", "spin6", "spin7", "spin8"])
def test_cauchy_and_branch_suites_pass_for_the_spin_factors(name):
    # still gated to rank1 and sym2; called directly.  branch's target left
    # the cone for spin7 and spin8 and raised NotInCone.  The cauchy half
    # left with cauchy-stability, whose rings the Taylor jets replaced
    from rclab.algebra import get_algebra
    import rclab.cli as cli

    (rep,) = cli.SUITES["branch"](get_algebra(name), {"branch": 1e-10})
    assert rep["pass"], rep


# suites that left rclab while the benchmark's tracer still names them: the
# tracer reports 0 s for each until the benchmark's own next change drops it
GONE_FROM_RCLAB = {"aut-invariance", "chi-covariance", "iota-factorization", "orthogonality",
                   "cauchy-stability"}


def test_the_benchmark_tracer_names_only_suites_that_exist():
    # perfbench/tracing.py reports cli.suite.<name>.s for each name of its
    # SUITES tuple and wraps the cli.SUITES entries in place; the list of
    # names gone from rclab is exact
    import importlib.util

    import rclab.cli as cli

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SUITES
    assert set(tracing.SUITES) - set(cli.SUITES) == GONE_FROM_RCLAB
    for name in set(tracing.SUITES) - GONE_FROM_RCLAB:
        assert callable(cli.SUITES.get(name)), name


def test_check_report_names_each_identity(tmp_path):
    code, out, _ = run_cli(["check", "exchange", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    data = json.loads(out)
    assert code == 0 and len(data["reports"]) == 7
    assert all("check" in r for r in data["reports"])


def test_check_all_rank1_exit_zero(tmp_path):
    code, out, _ = run_cli(["check", "all", "--algebra", "rank1",
                            "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    names = {r["check"] for r in data["reports"]}
    # the aggregate names every verified identity
    assert {"rodrigues-polynomiality", "bracket-group-covariance", "cone-gamma-integral",
            "laplace-averaging-factorization",
            "adjoint-partial-isometry"} <= names


@pytest.mark.parametrize("name", ["rank1", "sym2"])
def test_check_all_reports_spell_no_numpy_scalar(name, cache_dir):
    # a sample point z is a list of [re, im] pairs, like every complex field,
    # so the report bytes do not depend on how numpy prints its scalars
    code, out, _ = run_cli(["check", "all", "--algebra", name, "--cache-dir", cache_dir])
    assert code == 0
    assert "np." not in out
    zs = [sample["z"] for rep in json.loads(out)["reports"]
          if isinstance(rep.get("samples"), list) for sample in rep["samples"]
          if "z" in sample]
    assert zs and all(len(c) == 2 and all(isinstance(v, float) for v in c)
                      for z in zs for c in z)


def run_entry_point(args):
    """``python -m rclab.cli`` in a child process that shows every warning."""
    import rclab

    # the child process imports rclab from where this process found it
    where = os.path.dirname(os.path.dirname(rclab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [where, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "default", "-m", "rclab.cli"] + args,
                          capture_output=True, text=True, env=env)


def test_entry_point_runs():
    proc = run_entry_point(["gamma", "--algebra", "rank1", "--nu", "4"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["closed"] == 6.0


def same_bytes_from_a_cold_and_a_warm_cache(command, tmp_path, monkeypatch):
    # the warm run takes the whole pencil chain from the file the cold run
    # wrote: it applies D not once (sympoly's own cayley_check excepted)
    # and leaves the file as it is
    from rclab import brackets

    cache = tmp_path / "cache"
    reports = []
    for run in ("cold", "warm"):
        monkeypatch.setattr(brackets, "_memory_cache", {})
        monkeypatch.setattr(brackets, "_pencils", {})
        monkeypatch.setattr(brackets, "_on_disk", {})
        if run == "warm":
            (chain_file,) = cache.iterdir()
            written = chain_file.read_bytes()
            monkeypatch.setattr(brackets, "apply_D_power", None)
        out = tmp_path / f"{run}.json"
        code, _, err = run_cli([*command, "--cache-dir", str(cache), "--output", str(out)])
        assert code == 0, err
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert chain_file.read_bytes() == written


def test_check_all_sym2_same_bytes_from_a_cold_and_a_warm_cache(tmp_path, monkeypatch):
    same_bytes_from_a_cold_and_a_warm_cache(["check", "all", "--algebra", "sym2"],
                                            tmp_path, monkeypatch)


def test_gram_spin8_same_bytes_from_a_cold_and_a_warm_cache(tmp_path, monkeypatch):
    same_bytes_from_a_cold_and_a_warm_cache(
        ["gram", "--algebra", "spin8", "--kmax", "2", "--lambda", "4", "--mu", "4"],
        tmp_path, monkeypatch)


def test_cache_clear_removes_what_a_killed_write_left(tmp_path):
    # a worker killed between mkstemp and os.replace left its temporary
    # file, which `cache clear` kept and `cache inspect` listed for good
    cache = tmp_path / "cache"
    child = (
        "import os, sys\n"
        "import rclab.cli\n"
        "os.replace = lambda *args: os._exit(9)\n"
        "rclab.cli.main(['polys', '--algebra', 'rank1', '--k', '1', '--output', os.devnull,"
        " '--cache-dir', sys.argv[1]])\n")
    import rclab

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(rclab.__file__)), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child, str(cache)], env=env, timeout=120)
    assert proc.returncode == 9
    (left,) = os.listdir(cache)
    assert left.endswith(".tmp")
    code, out, _ = run_cli(["cache", "clear", "--cache-dir", str(cache)])
    assert code == 0 and json.loads(out)["removed"] == [left]
    code, out, _ = run_cli(["cache", "inspect", "--cache-dir", str(cache)])
    assert json.loads(out)["entries"] == []


def test_gamma_suite_passes_for_every_algebra():
    from rclab.algebra import ALGEBRA_NAMES, get_algebra
    from rclab.cli import run_suites

    for name in ALGEBRA_NAMES:
        reports, ok = run_suites(get_algebra(name), "gamma")
        assert ok, (name, [(r.get("method"), r.get("residual")) for r in reports])


def test_gamma_suite_fails_on_a_wrong_cone_constant(monkeypatch):
    # at 1e-5 a cone constant off by 1e-9 passed for nine algebras
    from rclab.algebra import ALGEBRA_NAMES, get_algebra
    from rclab.cli import run_suites

    constant = quadrature.mehta_cone_constant
    monkeypatch.setattr(quadrature, "mehta_cone_constant",
                        lambda alg: constant(alg) * (1 + 1e-9))
    for name in ALGEBRA_NAMES:
        _, ok = run_suites(get_algebra(name), "gamma")
        assert not ok, name


def test_jordan_numerics_catches_a_scaled_iota(monkeypatch):
    # jordan-numerics is the only suite that reads iota
    from rclab import algebra

    iota = algebra.iota
    monkeypatch.setattr(algebra, "iota", lambda *args: tuple(1.001 * p for p in iota(*args)))
    for name in algebra.ALGEBRA_NAMES:
        assert run_cli(["check", "jordan-numerics", "--algebra", name])[0] == 1, name


def test_benchmark_tracer_still_wraps_rclab(tmp_path):
    # perfbench/tracing.py wraps BracketPolynomial.evaluate, evaluate_specialized
    # and specialize, OrthoPoly.evaluate, the f_eig/h_eig integrands, the
    # coordinates of logdet_tube and SymExpr.num_terms by name; a rename or a
    # new signature of a hooked function breaks `perfbench/run.py --trace 1`.
    # covariance specializes c(k) for apply_B; gamma and laplace run
    # check-numeric's quadrature and tube hooks
    import os
    import textwrap

    import rclab

    src = os.path.dirname(os.path.dirname(rclab.__file__))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    child = textwrap.dedent("""
        import sys
        src, perfbench, out = sys.argv[1:]
        sys.path[:0] = [src, perfbench]
        import rclab
        import rclab.cli
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(rclab)
        codes = [
            rclab.cli.main(["check", "covariance", "--algebra", "rank1",
                            "--output", out + "/covariance.json"]),
            rclab.cli.main(["gram", "--algebra", "spin4", "--kmax", "1", "--lambda", "4",
                            "--mu", "4", "--output", out + "/gram.json"]),
            rclab.cli.main(["check", "gamma", "--algebra", "sym2",
                            "--output", out + "/gamma.json"]),
            rclab.cli.main(["check", "laplace", "--algebra", "rank1",
                            "--output", out + "/laplace.json"]),
        ]
        metrics = tracer.layer_metrics()
        assert codes == [0, 0, 0, 0], codes
        assert metrics["sympoly.evaluate.calls"] > 0, metrics
        assert metrics["quadrature.weyl_integral.calls"] > 0, metrics
        assert metrics["quadrature.integrand_evals"] > 0, metrics
        assert metrics["sympoly.peak_terms"] > 0, metrics
        assert metrics["tube.logdet_tube.points"] > 0, metrics
        assert metrics["quadrature.gamma_numeric.s"] > 0, metrics
        assert metrics["quadrature.tube_laplace.s"] > 0, metrics
    """)
    proc = subprocess.run([sys.executable, "-c", child, src, perfbench, str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_every_method_the_tracer_wraps_exists():
    # perfbench/tracing.py METHODS names rclab methods it wraps by getattr;
    # one that is gone crashes `perfbench/run.py --trace 1` with an
    # AttributeError, so methods that lose their callers in rclab stay
    import importlib
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(module, cls, method) for module, classes in tracing.METHODS.items()
               for cls, methods in classes.items() for method in methods]
    assert wrapped
    for module, cls, method in wrapped:
        owner = getattr(importlib.import_module(f"rclab.{module}"), cls)
        assert callable(getattr(owner, method, None)), f"{module}.{cls}.{method}"
