"""End-to-end CLI behavior: formats, determinism, exit codes."""

import argparse
import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fgvi
from fgvi import cli
from fgvi.cli import (
    NonFiniteOutputError,
    build_parser,
    main,
    read_matrix_file,
    resolve_config,
    write_matrix_file,
    write_table,
)
from fgvi.gaussian import GaussianTarget, decompose

from conftest import random_spd_target
from oracles import reference_table


def run_cli(*args, capsys=None):
    """Invoke the CLI in-process; returns (exit code, stdout text)."""
    code = main(list(args))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


def parse_csv(text):
    lines = text.splitlines()
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    header, data = rows[0], rows[1:]
    records = [dict(zip(header, row)) for row in data]
    return meta, records


def find_value(records, **filters):
    matches = [
        r
        for r in records
        if all(r.get(key) == value for key, value in filters.items())
    ]
    assert len(matches) == 1, f"expected one match for {filters}, got {len(matches)}"
    return float(matches[0]["value"])


# --------------------------------------------------------------- analyze


def test_analyze_uncorrelated_target_has_zero_gap(capsys):
    code, out = run_cli("analyze", "--n", "2", "--eps", "0", capsys=capsys)
    assert code == 0
    meta, records = parse_csv(out)
    assert meta["tool"] == "fgvi"
    assert meta["subcommand"] == "analyze"
    assert find_value(records, section="report", name="entropy_gap") == 0.0
    assert find_value(records, section="report", name="log_det_S") == 0.0


def test_analyze_strong_coupling_shrinkage(capsys):
    code, out = run_cli("analyze", "--n", "64", "--eps", "0.9", capsys=capsys)
    assert code == 0
    _, records = parse_csv(out)
    expected = (1 + 62 * 0.9) / (0.1 * (1 + 63 * 0.9))
    for i in range(64):
        s_ii = find_value(records, section="coordinate", name="s_ii", i=str(i))
        assert s_ii == pytest.approx(expected, rel=1e-9)


def test_analyze_emits_ellipse_blocks(capsys):
    _, out = run_cli("analyze", "--n", "3", "--eps", "0.5", capsys=capsys)
    _, records = parse_csv(out)
    assert find_value(records, section="ellipse_p", name="cov", i="0", j="1") == 0.5
    assert find_value(records, section="ellipse_q", name="cov", i="0", j="1") == 0.0
    psi = find_value(records, section="coordinate", name="psi_ii", i="0")
    assert find_value(records, section="ellipse_q", name="cov", i="0", j="0") == psi


def test_matrix_file_round_trip(tmp_path, capsys):
    target = random_spd_target(5, np.random.default_rng(77))
    path = tmp_path / "cov.txt"
    write_matrix_file(str(path), target.covariance)
    assert np.array_equal(read_matrix_file(str(path)), target.covariance)

    code, out = run_cli("analyze", "--matrix-file", str(path), capsys=capsys)
    assert code == 0
    _, records = parse_csv(out)
    direct = decompose(GaussianTarget(np.zeros(5), target.covariance))
    # 17-significant-digit output round-trips doubles exactly
    assert find_value(records, section="report", name="log_det_S") == direct.log_det_S
    assert find_value(records, section="report", name="kl_q_p") == direct.kl_q_p


def test_matrix_file_parse_errors(tmp_path):
    cases = {
        "not_int.txt": "x\n1.0\n",
        "missing_rows.txt": "3\n1 0 0\n0 1 0\n",
        "ragged.txt": "2\n1 0\n0\n",
        "extra_rows.txt": "1\n1\n1\n",
        "bad_number.txt": "1\nfoo\n",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content)
        assert main(["analyze", "--matrix-file", str(path)]) == 2
    assert main(["analyze", "--matrix-file", str(tmp_path / "absent.txt")]) == 2


def test_matrix_file_near_the_double_range_is_analyzed(tmp_path, capsys):
    """Finite and positive definite, though a_ij + a_ji overflows: exactly
    symmetric input is copied, not halved from that sum."""
    path = tmp_path / "big.txt"
    path.write_text("2\n1e308 1e307\n1e307 1e308\n")
    code, out = run_cli("analyze", "--matrix-file", str(path), capsys=capsys)
    assert code == 0
    _, records = parse_csv(out)
    assert find_value(records, section="ellipse_p", name="cov", i="0", j="1") == 1e307


def test_matrix_file_below_the_log_det_floor_fails_before_dividing(tmp_path, capsys):
    """The floor check comes before 1 / Sigma_ii, which overflows here."""
    path = tmp_path / "tiny.txt"
    path.write_text("2\n1e-320 0\n0 1e-320\n")
    assert main(["analyze", "--matrix-file", str(path)]) == 2
    assert "is below -700.0" in capsys.readouterr().err


def test_matrix_file_with_a_subnormal_variance_is_a_numerical_failure(tmp_path, capsys):
    """log|Sigma| / n is above the floor, but 1 / Sigma_00 overflows: the
    report refuses the infinite KL, with no warning and no row written."""
    path = tmp_path / "subnormal.txt"
    path.write_text("2\n1e-320 0\n0 1e300\n")
    assert main(["analyze", "--matrix-file", str(path)]) == 3
    assert capsys.readouterr() == ("", "numerical failure: kl_q_p is not finite: inf\n")


def test_matrix_file_whose_factorized_variance_underflows_is_bad_input(tmp_path, capsys):
    """Above the log-det floor, but Psi_00 = Sigma_00 / S_00 underflows to
    zero: refused before its log, naming the coordinate, with no warning."""
    path = tmp_path / "underflow.txt"
    path.write_text("2\n5e-324 2e-162\n2e-162 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["analyze", "--matrix-file", str(path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: factorized variance Psi_ii of coordinate 0 underflows to zero")


# ----------------------------------------------------------------- sweep


def test_sweep_zero_eps_row_is_zero(capsys):
    code, out = run_cli(
        "sweep", "--n", "10", "--eps-grid", "0,0.5,0.9", capsys=capsys
    )
    assert code == 0
    _, records = parse_csv(out)
    assert len(records) == 3
    first = records[0]
    assert float(first["value"]) == 0.0
    assert float(first["entropy_gap"]) == 0.0
    assert float(first["half_log_det_S"]) == 0.0
    assert float(first["condition_number"]) == pytest.approx(1.0)
    # the zero row holds no -0 cell, in either format
    assert not any(cell.startswith("-") for cell in first.values())
    _, out = run_cli(
        "sweep", "--n", "10", "--eps-grid", "0,0.5,0.9", "--format", "json-lines", capsys=capsys
    )
    row = json.loads(out.splitlines()[2])
    assert all(math.copysign(1.0, v) == 1.0 for v in row.values() if not isinstance(v, str))
    # strongly coupled row: gap small relative to shrinkage
    last = records[-1]
    assert float(last["entropy_gap"]) / float(last["half_log_det_S"]) < 0.2


def test_sweep_rows_follow_grid_order(capsys):
    _, out = run_cli(
        "sweep", "--n", "6", "--rho-grid", "2,10,40,120", capsys=capsys
    )
    _, records = parse_csv(out)
    assert [float(r["value"]) for r in records] == [2.0, 10.0, 40.0, 120.0]
    assert all(r["axis"] == "rho" for r in records)


def test_sweep_requires_exactly_one_grid():
    assert main(["sweep", "--n", "4"]) == 2
    assert main(["sweep", "--n", "4", "--eps-grid", "0.1", "--rho-grid", "1"]) == 2
    assert main(["sweep", "--n", "4", "--eps-grid", "0.5,0.2"]) == 2


# ---------------------------------------------------------------- bounds


def test_bounds_envelope_and_measured_valid(capsys):
    code, out = run_cli(
        "bounds",
        "--n", "10",
        "--R-grid", "2,11,50",
        "--eps-grid", "0.3,0.5,0.8",
        capsys=capsys,
    )
    assert code == 0
    _, records = parse_csv(out)
    envelope = [r for r in records if r["row_type"] == "envelope"]
    measured = [r for r in records if r["row_type"] == "measured"]
    assert len(envelope) == 3
    assert len(measured) == 3
    assert all(r["valid"] == "true" for r in measured)
    # eps = 0.5 at n = 10 has condition ratio 11
    assert float(measured[1]["R"]) == pytest.approx(11.0, rel=1e-9)

    for args in (
        # kernel targets whose total log|Sigma| is below -700
        ("--n", "64", "--R-grid", "1,3,100,1e4", "--rho-grid", "5,20"),
        # trace(S) ~ 5e5 exceeds its bound by rounding alone
        ("--n", "2", "--R-grid", "1", "--eps-grid", "0.999998"),
        # (1 + R)^2 would overflow in the trace bound
        ("--n", "5", "--R-grid", "1e160"),
    ):
        code, out = run_cli("bounds", *args, capsys=capsys)
        assert code == 0
        _, records = parse_csv(out)
        assert all(r["valid"] == "true" for r in records if r["row_type"] == "measured")


def test_bounds_unit_ratio_row_is_zero(capsys):
    code, out = run_cli("bounds", "--n", "5", "--R-grid", "1", capsys=capsys)
    assert code == 0
    _, records = parse_csv(out)
    row = records[0]
    assert float(row["upper_log_det_S"]) == 0.0
    assert float(row["upper_log_det_C"]) == 0.0
    assert float(row["joint_kl_upper"]) == 0.0
    assert float(row["lower_trace_S"]) == 5.0
    assert float(row["upper_trace_S"]) == 5.0


def test_bounds_past_double_range_exit_numerical(capsys):
    # upper_trace_S is about n R / 4: finite at (5, 1e308), past the
    # largest double at the other two.
    for n, ratio, expected in (("5", "1e308", 0), ("100", "1e307", 3), ("3000", "1e306", 3)):
        for fmt in ("csv", "json-lines"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["bounds", "--n", n, "--R-grid", ratio, "--format", fmt])
            out, err = capsys.readouterr()
            assert code == expected
            assert caught == []
            if expected:
                assert out == ""
                assert len(err.splitlines()) == 1
                assert err.startswith("numerical failure: ")
            else:
                assert err == ""
                lines = out.splitlines()
                row = json.loads(lines[-1]) if fmt == "json-lines" else parse_csv(out)[1][0]
                for name in ("upper_trace_S", "joint_kl_upper"):
                    assert math.isfinite(float(row[name]))


def test_bounds_requires_n_and_grid():
    assert main(["bounds", "--n", "5"]) == 2
    assert main(["bounds", "--R-grid", "1,2"]) == 2


# --------------------------------------------------------------- mixture


def test_mixture_single_component(tmp_path, capsys):
    config = tmp_path / "fit.cfg"
    config.write_text("max_steps = 4000\n")
    code, out = run_cli(
        "mixture",
        "--n", "2",
        "--weights", "1",
        "--seed", "1",
        "--config", str(config),
        capsys=capsys,
    )
    assert code == 0
    _, records = parse_csv(out)
    trace_s = find_value(records, section="summary", name="trace_S")
    trace_sg = find_value(records, section="summary", name="trace_S_G")
    assert trace_s == pytest.approx(2.0, abs=0.1)
    assert trace_sg == pytest.approx(2.0, abs=1e-9)


def test_mixture_collapse_summary(tmp_path, capsys):
    config = tmp_path / "fit.cfg"
    config.write_text("max_steps = 4000\n")
    code, out = run_cli(
        "mixture", "--n", "2", "--config", str(config), capsys=capsys
    )
    assert code == 0
    _, records = parse_csv(out)
    trace_s = find_value(records, section="summary", name="trace_S")
    trace_sg = find_value(records, section="summary", name="trace_S_G")
    assert trace_s > 2.0 * trace_sg
    assert find_value(records, section="summary", name="max_entropy_gap_bound") > 0.0
    assert find_value(records, section="summary", name="mean_log_shrinkage") > 0.0
    sigma_0 = find_value(records, section="coordinate", name="sigma_ii", i="0")
    assert sigma_0 == pytest.approx(26.0, rel=1e-12)
    steps = find_value(records, section="summary", name="step_count")
    elbo_rows = [r for r in records if r["section"] == "elbo"]
    assert len(elbo_rows) == int(steps)


def test_mixture_divergence_exit_code(tmp_path):
    config = tmp_path / "diverge.cfg"
    config.write_text("learning_rate = 1e6\nmax_steps = 200\n")
    assert main(["mixture", "--n", "2", "--config", str(config)]) == 4


def test_mixture_refuses_an_infinite_learning_rate(tmp_path, capsys):
    """learning_rate = inf is bad input, not a divergence at step 2;
    tolerance = inf stays a stop at the first window comparison."""
    config = tmp_path / "rate.cfg"
    config.write_text("learning_rate = inf\n")
    assert main(["mixture", "--n", "2", "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: learning_rate must be finite and positive, tolerance non-negative\n"
    config.write_text("tolerance = inf\nwindow = 5\n")
    code, out = run_cli("mixture", "--n", "2", "--config", str(config), capsys=capsys)
    assert code == 0
    assert find_value(parse_csv(out)[1], section="summary", name="step_count") == 10


def test_mixture_rejects_bad_weights():
    assert main(["mixture", "--n", "2", "--weights", "0.7,0.7"]) == 2
    assert main(["mixture", "--n", "2", "--sigma", "0"]) == 2


@pytest.mark.parametrize("sigma", ["inf", "1e200", "1e-200"])
def test_mixture_sigma_needs_a_finite_positive_square(sigma, tmp_path, capsys):
    """sigma = inf, or one whose square overflows or underflows, is named
    as the bad setting, from a flag and from a config file alike."""
    message = (
        f"error: sigma must be positive with a finite, non-zero square, got {float(sigma)!r}\n"
    )
    assert main(["mixture", "--n", "2", "--sigma", sigma]) == 2
    assert capsys.readouterr().err == message
    config = tmp_path / "sigma.cfg"
    config.write_text(f"sigma = {sigma}\n")
    assert main(["mixture", "--n", "2", "--config", str(config)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("separation", ["inf", "-inf", "nan", "1e160", "-1e200"])
def test_mixture_separation_is_checked_before_the_fit(separation, tmp_path, capsys, monkeypatch):
    """A separation whose means, or their squared spread, are not finite is
    named as the bad setting before any fit, from a flag and a config file."""
    monkeypatch.setattr(cli, "fit_fgvi", lambda *args, **kwargs: pytest.fail("fit ran"))
    message = (
        "error: separation must give the means a finite squared spread, "
        f"got {float(separation)!r}\n"
    )
    assert main(["mixture", "--n", "2", f"--separation={separation}"]) == 2
    assert capsys.readouterr().err == message
    config = tmp_path / "separation.cfg"
    config.write_text(f"separation = {separation}\n")
    assert main(["mixture", "--n", "2", "--config", str(config)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixture_density_overflow_at_the_start_warns_nothing(tmp_path, capsys):
    """Squared distances to means 1.5e154 apart overflow in the density at
    the initial point; the fit reads only their finiteness, so no
    RuntimeWarning escapes and the job succeeds."""
    config = tmp_path / "short.cfg"
    config.write_text("max_steps = 10\n")
    assert main(["mixture", "--n", "2", "--separation", "1.5e154", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""


# ------------------------------------------------- formats & determinism


def test_byte_identical_reruns(tmp_path):
    for fmt in ("csv", "json-lines"):
        path = tmp_path / f"table.{fmt}"
        contents = []
        for _ in range(2):
            code = main([
                "sweep", "--n", "12", "--rho-grid", "1,5,25,125",
                "--format", fmt, "--out", str(path),
            ])
            assert code == 0
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]


# The exit code and sha256 of stdout for each argument list, recorded after
# the kernel-domain key left the CLI; mixture_csv was re-recorded when
# max_entropy_gap_bound began to read log|Sigma| off the target's one factor,
# which moved its one cell by an ulp; both mixture lists were re-recorded
# when the fit defaults went from 10 samples over 200-step windows to 20
# over 100-step windows; the four equicorrelated lists (analyze_eps_csv,
# analyze_eps_json, sweep_eps_csv, bounds_eps_csv) were re-recorded when the
# equicorrelated target began to take log|C|, S and κ from its closed forms,
# which moved last digits: κ went from 5.0000000000000027 to 5, and from
# 145.00000000000711 to 145.00000000000003; both mixture lists were
# re-recorded when the default learning rate went from 0.01 to 0.015, which
# stops mixture_csv at step 300, not 400, nearer its mode.  A change that
# moves output on purpose re-records
# these and names the lists that moved; any other change must leave every
# byte in place.
PINNED_OUTPUTS = {
    "analyze_eps_csv": (
        "analyze --n 4 --eps 0.5",
        0,
        "227b4b93e32bc2e97772a7e0278997063c51cf4978948caaf5da719348d0668d",
    ),
    "analyze_eps_json": (
        "analyze --n 3 --eps 0.4 --format json-lines",
        0,
        "835c550f9dc524e96d28120f0325044d85718787a3e69f8799645471f3369376",
    ),
    "analyze_rho_json": (
        "analyze --n 10 --rho 30 --seed 12 --format json-lines",
        0,
        "5d40479c674757224280d2a9c098849c1de96a9aa5cef21f8f523fe54f191e09",
    ),
    "sweep_eps_csv": (
        "sweep --n 16 --eps-grid 0.1,0.3,0.5,0.7,0.9",
        0,
        "5bd3a8e6265dcc9eb71b550fc03b59ed4a5275a86ae929f70935a540429e29f7",
    ),
    "sweep_rho_json": (
        "sweep --n 12 --rho-grid 1,5,25,125 --format json-lines",
        0,
        "e17fa6991a9b431b0ecd53446720c8eeeec675384a2d63f844dfba02086e791f",
    ),
    "bounds_eps_csv": (
        "bounds --n 10 --R-grid 2,10,50 --eps-grid 0.3,0.6",
        0,
        "6bc9f3bb986c295d42914f4764c45bac922dcfbff8ac42a9060f737200a53226",
    ),
    "bounds_rho_json": (
        "bounds --n 8 --R-grid 2,40 --rho-grid 3,30 --seed 5 --format json-lines",
        0,
        "baa687b1d36c1e017cad9e50dbab27b266356b4ca28e9cd19992f9759a6ab8b1",
    ),
    "bounds_envelope_csv": (
        "bounds --n 5 --R-grid 1,1e160",
        0,
        "e9fdf20e0ec39347e795080938c789ccb521566bc94d61b70e460e0b2ea7d541",
    ),
    # Exit 3 writes nothing: the hash of the empty string.
    "bounds_overflow": (
        "bounds --n 100 --R-grid 1e307",
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "mixture_csv": (
        "mixture --separation 10 --seed 0",
        0,
        "9ea7ad3db37265f86dc61c0e3645e9ebc90a1509e6706b74e3329eb681db0777",
    ),
    "mixture_one_component_json": (
        "mixture --n 2 --weights 1 --seed 1 --format json-lines",
        0,
        "fab37e5ca9088b2cccbfcd4c4fce40580812ecb0aa6f1bd6e0c1332de555ae5c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_cli_output_is_pinned(name, capsys):
    args, expected_code, digest = PINNED_OUTPUTS[name]
    code, out = run_cli(*args.split(), capsys=capsys)
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_parser_is_built_once_and_leaks_nothing_between_jobs(tmp_path, capsys, monkeypatch):
    """main builds its parser on the first call only; a usage error and a
    refused config file leave every later job's output and exit code as
    pinned, and a repeated usage error prints what it printed first."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    usage = ["analyze", "--n", "3", "--eps", "0.5", "--seed", "-1"]
    config = tmp_path / "bad.cfg"
    config.write_text("seed = -1\n")
    try:
        with pytest.raises(SystemExit) as exit_info:
            main(usage)
        assert exit_info.value.code == 2
        usage_err = capsys.readouterr().err
        assert len(built) == 5  # the top-level parser and one per subcommand
        built.clear()
        assert main(["analyze", "--n", "3", "--eps", "0.5", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: seed must be an unsigned 64-bit integer, got -1\n"
        for name in sorted(PINNED_OUTPUTS):
            args, expected_code, digest = PINNED_OUTPUTS[name]
            code, out = run_cli(*args.split(), capsys=capsys)
            assert code == expected_code, name
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name
        with pytest.raises(SystemExit) as exit_info:
            main(usage)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == usage_err
        assert built == []
    finally:
        build_parser.cache_clear()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_json_lines_structure(tmp_path, capsys):
    config = tmp_path / "fit.cfg"
    config.write_text("max_steps = 50\n")
    jobs = (
        ("analyze", "--n", "3", "--eps", "0.4"),
        ("sweep", "--n", "4", "--rho-grid", "1,5"),
        ("bounds", "--n", "4", "--R-grid", "1,3", "--eps-grid", "0.2"),
        ("mixture", "--config", str(config)),
    )
    # A tab is a control character that JSON strings must escape.
    for out_path in ("-", str(tmp_path / "tab\there \\ \"q\" ü.json")):
        for argv in jobs:
            code, out = run_cli(
                *argv, "--format", "json-lines", "--out", out_path, capsys=capsys
            )
            assert code == 0
            if out_path != "-":
                assert out == ""
                out = Path(out_path).read_text(encoding="utf-8")
            lines = [
                json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()
            ]
            assert lines[0]["record"] == "metadata"
            assert lines[0]["tool"] == "fgvi"
            assert lines[0]["subcommand"] == argv[0]
            assert lines[0]["config.out"] == out_path
            assert lines[1]["record"] == "header"
            rows = lines[2:]
            assert rows and all(r["record"] == "row" for r in rows)
            assert all(set(r) == {"record", *lines[1]["columns"]} for r in rows)
    code, out = run_cli(
        "analyze", "--n", "3", "--eps", "0.4", "--format", "json-lines", capsys=capsys
    )
    rows = [json.loads(line) for line in out.splitlines()][2:]
    gap = [r for r in rows if r.get("name") == "entropy_gap"][0]["value"]
    assert isinstance(gap, float)


def test_csv_metadata_escapes_line_breaks(tmp_path, capsys):
    out_path = str(tmp_path / "a\nb\r c \\ d.csv")
    code, out = run_cli("analyze", "--n", "2", "--eps", "0.5", "--out", out_path, capsys=capsys)
    assert code == 0
    assert out == ""
    lines = Path(out_path).read_bytes().decode("utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    assert header > 0 and lines[header] == "section,name,i,j,value"
    meta = dict(line[2:].split("=", 1) for line in lines[:header])
    assert meta["config.out"] == out_path.replace("\\", "\\\\").replace("\r", "\\r").replace(
        "\n", "\\n"
    )
    _, stdout = run_cli("analyze", "--n", "2", "--eps", "0.5", capsys=capsys)
    assert lines[header:] == stdout.splitlines()[header:]


# Every boundary at which str.splitlines() breaks a line.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_outputs_survive_splitlines_with_any_line_break(tmp_path, capsys):
    _, stdout = run_cli("analyze", "--n", "2", "--eps", "0.5", capsys=capsys)
    _, stdout_json = run_cli(
        "analyze", "--n", "2", "--eps", "0.5", "--format", "json-lines", capsys=capsys
    )
    for char in _LINE_BREAKS:
        out_path = str(tmp_path / f"a{char}b c.csv")
        for fmt, reference in (("csv", stdout), ("json-lines", stdout_json)):
            code, out = run_cli(
                "analyze", "--n", "2", "--eps", "0.5", "--format", fmt, "--out", out_path,
                capsys=capsys,
            )
            assert code == 0 and out == ""
            text = Path(out_path).read_bytes().decode("utf-8")
            lines = text.splitlines()
            if fmt == "csv":
                header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
                assert lines[header] == "section,name,i,j,value", repr(char)
                meta = dict(line[2:].split("=", 1) for line in lines[:header])
                assert char == "\n" or char not in text
                # The escapes are unicode_escape's, so that codec undoes them.
                assert meta["config.out"].encode().decode("unicode_escape") == out_path
                assert lines[header:] == reference.splitlines()[header:]
            else:
                records = [json.loads(line, parse_constant=_reject_constant) for line in lines]
                assert [r["record"] for r in records[:2]] == ["metadata", "header"], repr(char)
                assert records[0]["config.out"] == out_path
                assert lines[1:] == reference.splitlines()[1:]


def test_seventeen_digit_round_trip(capsys):
    _, out = run_cli("analyze", "--n", "7", "--eps", "0.37", capsys=capsys)
    _, records = parse_csv(out)
    from fgvi.generators import ConstantOffDiagConfig, constant_offdiag_target

    direct = decompose(constant_offdiag_target(ConstantOffDiagConfig(n=7, eps=0.37)))
    assert find_value(records, section="report", name="entropy_gap") == direct.entropy_gap
    assert find_value(records, section="report", name="condition_number") == direct.condition_number


def test_config_file_precedence_and_hash(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 4\neps = 0.2   # overridden by the flag\nformat = csv\n")
    code, out = run_cli(
        "analyze", "--config", str(config), "--eps", "0.8", capsys=capsys
    )
    assert code == 0
    meta, _ = parse_csv(out)
    assert meta["config.eps"] == "0.80000000000000004"
    assert meta["config.n"] == "4"
    first_hash = meta["config_hash"]

    code, out = run_cli(
        "analyze", "--config", str(config), "--eps", "0.8", capsys=capsys
    )
    assert parse_csv(out)[0]["config_hash"] == first_hash

    code, out = run_cli("analyze", "--config", str(config), capsys=capsys)
    assert parse_csv(out)[0]["config_hash"] != first_hash


_COMMON_KEYS = ("seed", "out", "format")
# Reference: the config keys each subcommand accepts, its defaults and its
# flags, written out independently of the CLI's own key table.
_ACCEPTED_KEYS = {
    "analyze": _COMMON_KEYS + ("n", "eps", "rho", "matrix_file", "jitter"),
    "sweep": _COMMON_KEYS + ("n", "eps_grid", "rho_grid", "jitter"),
    "bounds": _COMMON_KEYS + ("n", "R_grid", "eps_grid", "rho_grid", "jitter"),
    "mixture": _COMMON_KEYS
    + (
        "n",
        "separation",
        "sigma",
        "weights",
        "learning_rate",
        "mc_samples",
        "max_steps",
        "tolerance",
        "window",
    ),
}
_DEFAULTS = {
    "analyze": {"seed": 0, "out": "-", "format": "csv", "jitter": 1e-8},
    "sweep": {"seed": 0, "out": "-", "format": "csv", "jitter": 1e-8},
    "bounds": {"seed": 0, "out": "-", "format": "csv", "jitter": 1e-8},
    "mixture": {
        "seed": 0,
        "out": "-",
        "format": "csv",
        "n": 2,
        "separation": 10.0,
        "sigma": 1.0,
        "weights": [0.5, 0.5],
    },
}
_FLAGS = {
    "analyze": {"n", "eps", "rho", "matrix_file"},
    "sweep": {"n", "eps_grid", "rho_grid"},
    "bounds": {"n", "R_grid", "eps_grid", "rho_grid"},
    "mixture": {"n", "separation", "sigma", "weights"},
}
# A config-file value for every key, and its coerced value.
_KEY_VALUES = {
    "n": ("3", 3),
    "eps": ("0.25", 0.25),
    "rho": ("2.5", 2.5),
    "matrix_file": ("cov.txt", "cov.txt"),
    "seed": ("7", 7),
    "out": ("-", "-"),
    "format": ("json-lines", "json-lines"),
    "jitter": ("1e-6", 1e-6),
    "eps_grid": ("0.1,0.2", [0.1, 0.2]),
    "rho_grid": ("1, 2", [1.0, 2.0]),
    "R_grid": ("1,2,30", [1.0, 2.0, 30.0]),
    "separation": ("4", 4.0),
    "sigma": ("1.5", 1.5),
    "weights": ("0.25,0.75", [0.25, 0.75]),
    "learning_rate": ("0.02", 0.02),
    "mc_samples": ("5", 5),
    "max_steps": ("10", 10),
    "tolerance": ("0.001", 0.001),
    "window": ("5", 5),
}


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("rho_grid = 1,2\n")  # sweep key, not valid for analyze
    assert main(["analyze", "--n", "3", "--eps", "0.1", "--config", str(config)]) == 2
    config.write_text("separation six\n")
    assert main(["analyze", "--n", "3", "--eps", "0.1", "--config", str(config)]) == 2
    config.write_text("init_jitter = 0.2\n")  # no such key: a fit starts at a mixture draw
    assert main(["mixture", "--config", str(config)]) == 2
    config.write_text("average_decay = 0.9\n")  # no such key: fits return a uniform average
    assert main(["mixture", "--config", str(config)]) == 2
    config.write_text("domain_upper = 50\n")  # no such key: only rho / 200 shapes a kernel
    for sub, argv in (("analyze", ["--eps", "0.1"]), ("sweep", ["--eps-grid", "0.1"])):
        assert main([sub, "--n", "3", *argv, "--config", str(config)]) == 2
    assert main(["bounds", "--n", "3", "--R-grid", "2", "--config", str(config)]) == 2

    assert set(_KEY_VALUES) == set().union(*map(set, _ACCEPTED_KEYS.values()))
    for sub, accepted in _ACCEPTED_KEYS.items():
        # every accepted key, set from a config file, is taken and coerced
        config.write_text("".join(f"{key} = {_KEY_VALUES[key][0]}\n" for key in accepted))
        effective = resolve_config(sub, {}, str(config))
        assert effective == {key: _KEY_VALUES[key][1] for key in accepted}
        # a key accepted only by other subcommands is rejected
        for key in set(_KEY_VALUES) - set(accepted):
            config.write_text(f"{key} = {_KEY_VALUES[key][0]}\n")
            with pytest.raises(ValueError, match="is not valid for"):
                resolve_config(sub, {}, str(config))
        # the defaults, no more and no fewer, reach the metadata unchanged
        assert resolve_config(sub, {}, None) == _DEFAULTS[sub]
        flags = vars(build_parser().parse_args([sub]))
        assert set(flags) - {"command"} == _FLAGS[sub] | set(_COMMON_KEYS) | {"config"}
    for sub, argv in (
        ("analyze", ["--n", "2", "--eps", "0.5"]),
        ("sweep", ["--n", "2", "--eps-grid", "0.5"]),
        ("bounds", ["--n", "2", "--R-grid", "2"]),
        ("mixture", []),
    ):
        config.write_text("max_steps = 5\n" if sub == "mixture" else "")
        code, out = run_cli(sub, *argv, "--config", str(config), capsys=capsys)
        assert code == 0
        meta, _ = parse_csv(out)
        for key, value in _DEFAULTS[sub].items():
            text = meta[f"config.{key}"]
            if isinstance(value, list):
                assert [float(v) for v in text.split(",")] == value, key
            else:
                assert type(value)(text) == value, key


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--n", "3", "--rho", "5"],
        ["sweep", "--n", "3", "--eps-grid", "0.5"],
        ["bounds", "--n", "3", "--R-grid", "2"],
        ["mixture"],
    ],
)
def test_seed_range_checked_for_flags_and_config_files(argv, tmp_path, capsys):
    config = tmp_path / "seed.cfg"
    settings = "max_steps = 5\n" if argv[0] == "mixture" else ""
    message = "seed must be an unsigned 64-bit integer"
    # Integer seeds are shown as numbers, other text quoted.
    seeds = ((str(2**64), str(2**64)), ("-1", "-1"), ("abc", "'abc'"), ("1.5", "'1.5'"))
    for seed, shown in seeds:
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", seed])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --seed: {message}, got {shown}\n")
        config.write_text(f"{settings}seed = {seed}\n")
        assert main(argv + ["--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}, got {shown}\n"
    config.write_text(settings)
    assert main(argv + ["--seed", str(2**64 - 1), "--config", str(config)]) == 0


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["sweep", "--n", "3"], "eps_grid", "abc"),
        (["bounds", "--n", "3"], "R_grid", ","),
        (["mixture"], "weights", "0.5,x"),
    ],
)
def test_bad_number_list_message_same_for_flag_and_config_file(argv, key, value, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    flag_message = capsys.readouterr().err.partition(f"argument {flag}: ")[2]
    config = tmp_path / "grid.cfg"
    config.write_text(f"{key} = {value}\n")
    assert main(argv + ["--config", str(config)]) == 2
    config_message = capsys.readouterr().err.removeprefix("error: ")
    assert flag_message == config_message == f"expected comma-separated numbers, got {value!r}\n"


@pytest.mark.parametrize("argv", [["analyze", "--n", "3", "--eps", "0.5"], ["mixture"]])
def test_bad_format_message_same_for_flag_and_config_file(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--format", "xml"])
    assert exit_info.value.code == 2
    flag_message = capsys.readouterr().err.partition("argument --format: ")[2]
    config = tmp_path / "format.cfg"
    config.write_text("format = xml\n")
    assert main(argv + ["--config", str(config)]) == 2
    config_message = capsys.readouterr().err.removeprefix("error: ")
    assert flag_message == config_message == "format must be 'csv' or 'json-lines', got 'xml'\n"


def test_unwritable_output_path_is_bad_input(tmp_path, capsys, monkeypatch):
    argv = ["analyze", "--n", "3", "--eps", "0.5", "--out"]
    missing = tmp_path / "missing" / "x.csv"
    assert main(argv + [str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write output file {missing}: ")
    assert len(err.splitlines()) == 1
    assert not missing.parent.exists()

    def full_disk_open(path, *args, **kwargs):
        """A file that takes part of the table, then runs out of space."""
        handle = open(path, *args, **kwargs)
        handle.write("# tool=fgvi\n")
        handle.flush()

        def fail(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        handle.write = fail
        return handle

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    partial = tmp_path / "partial.csv"
    assert main(argv + [str(partial)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {partial}: ")
    assert not partial.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_a_device_removes_nothing(capsys, monkeypatch):
    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    assert main(["analyze", "--n", "3", "--eps", "0.5", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output file /dev/full: ")
    assert removed == []


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out = run_cli(
        "analyze", "--n", "2", "--eps", "0.3", "--out", str(path), capsys=capsys
    )
    assert code == 0
    assert out == ""
    meta, records = parse_csv(path.read_text())
    assert meta["config.out"] == str(path)
    assert find_value(records, section="report", name="n") == 2.0


# -------------------------------------------------------------- failures


def test_invalid_input_exit_codes():
    assert main(["analyze", "--n", "4", "--eps", "0.5", "--rho", "3"]) == 2
    assert main(["analyze", "--n", "4"]) == 2
    assert main(["analyze", "--eps", "0.5"]) == 2
    assert main(["analyze", "--n", "4", "--eps", "1.5"]) == 2
    assert main(["analyze", "--n", "0", "--eps", "0.5"]) == 2


def test_config_file_comments_and_blank_lines(tmp_path, capsys):
    config = tmp_path / "commented.cfg"
    config.write_text("# only a comment\n\n   \n  # indented comment\n")
    assert resolve_config("analyze", {}, str(config)) == resolve_config("analyze", {}, None)
    config.write_text("# seed below\n\nseed = 7  # trailing comment\n\n")
    assert resolve_config("analyze", {}, str(config))["seed"] == 7
    argv = ["analyze", "--n", "2", "--eps", "0.5", "--config", str(config)]
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert parse_csv(out)[0]["config.seed"] == "7"


def test_input_error_messages(tmp_path, capsys):
    two_tokens = tmp_path / "two_tokens.txt"
    two_tokens.write_text("2 2\n1 0\n0 1\n")
    empty = tmp_path / "empty_matrix.txt"
    empty.write_text("0\n")
    absent = tmp_path / "absent.cfg"
    cases = [
        (["analyze", "--n", "2", "--eps", "0.5", "--config", str(absent)],
         f"error: cannot read config file {absent}: "),
        (["analyze", "--matrix-file", str(two_tokens)],
         f"error: {two_tokens}: first line must hold the dimension n alone\n"),
        (["analyze", "--matrix-file", str(empty)],
         f"error: {empty}: dimension must be >= 1, got 0\n"),
        (["mixture", "--n", "0"], "error: n must be a positive integer, got 0\n"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1, err


def test_non_finite_jitter_is_bad_input(tmp_path, capsys):
    config = tmp_path / "jitter.cfg"
    for value in ("nan", "inf"):
        config.write_text(f"jitter = {value}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "--n", "4", "--rho", "5", "--config", str(config)])
        out, err = capsys.readouterr()
        assert code == 2
        assert caught == []
        assert out == ""
        assert err == f"error: jitter must be finite and non-negative, got {value}\n"


def test_numerical_failure_exit_code(tmp_path):
    path = tmp_path / "indefinite.txt"
    path.write_text("2\n1 2\n2 1\n")
    assert main(["analyze", "--matrix-file", str(path)]) == 3


def test_non_positive_correlation_eigenvalue_exit_code(tmp_path, capsys):
    # The pivot test passes, but the smallest computed eigenvalue of C is
    # negative, so there is no condition number: a numerical failure.
    config = tmp_path / "unjittered.cfg"
    config.write_text("jitter = 0\n")
    code = main([
        "analyze", "--n", "14", "--rho", "68.10506747159287", "--seed", "404",
        "--config", str(config),
    ])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: smallest correlation eigenvalue")
    assert len(err.splitlines()) == 1


def test_write_table_refuses_non_finite_values():
    columns = ["name", "value"]
    finite = [{"name": "a", "value": 1.5}, {"name": "b", "value": np.float64(-2.0)}]
    bad_cells = (math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
                 [1.0, math.nan], (2, -math.inf))
    for fmt in ("csv", "json-lines"):
        stream = io.StringIO()
        write_table(stream, fmt, {"tool": "fgvi", "scale": 2.0}, columns, finite)
        assert stream.getvalue()
        tables = [({"tool": "fgvi"}, finite + [{"name": "c", "value": v}]) for v in bad_cells]
        tables += [({"tool": "fgvi", "scale": math.inf}, finite)]
        tables += [({"tool": "fgvi", "grid": [1.0, math.nan]}, finite)]
        for metadata, rows in tables:
            stream = io.StringIO()
            with pytest.raises(NonFiniteOutputError, match="not finite"):
                write_table(stream, fmt, metadata, columns, rows)
            assert stream.getvalue() == ""
    assert issubclass(NonFiniteOutputError, ArithmeticError)


# Characters the JSON and CSV escapes treat apart: quote, backslash, C0
# controls, DEL and the line breaks JSON leaves raw (U+0085, U+2028, U+2029);
# then separators, printable ASCII and non-ASCII text.
_CHARS = '"\\\x00\x01\x1f\n\r\t\x0b\x0c\x1c\x7f\x85\u2028\u2029,#= aZ9_.-\xe9\xa0\u0300\U0001f600'
_STRINGS = st.one_of(
    st.text(st.sampled_from(_CHARS), max_size=6),
    st.text(st.sampled_from('"\\ a,='), min_size=1, max_size=4),
)
_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    _STRINGS,
)
_CELLS = st.one_of(_STRINGS, _SCALARS, st.lists(_SCALARS, max_size=3))
_NON_FINITE = st.sampled_from(
    [math.nan, -math.inf, np.float64(math.inf), np.float32(math.nan), [1.0, math.nan]]
)


@st.composite
def _tables(draw):
    """(metadata, columns, rows); a column may repeat or be named "record",
    and some tables carry one non-finite value in a cell or in the
    metadata."""
    metadata = draw(st.dictionaries(_STRINGS, _CELLS, max_size=4))
    columns = draw(st.lists(st.one_of(st.just("record"), _STRINGS), max_size=5))
    line = st.lists(_CELLS, min_size=len(columns), max_size=len(columns))
    rows = draw(st.lists(line.map(lambda cells: dict(zip(columns, cells))), max_size=6))
    where = draw(st.sampled_from(["cell", "nowhere", "metadata", "nowhere"]))
    if where == "metadata":
        metadata[draw(_STRINGS)] = draw(_NON_FINITE)
    elif where == "cell" and rows and columns:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.sampled_from(columns))] = draw(_NON_FINITE)
    return metadata, columns, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=_tables())
def test_write_table_matches_reference_renderer(table):
    """In both formats, write_table emits the reference renderer's bytes,
    or refuses the table with its message and writes nothing."""
    metadata, columns, rows = table
    for fmt in ("csv", "json-lines"):
        stream = io.StringIO()
        try:
            expected = reference_table(fmt, metadata, columns, rows)
        except ArithmeticError as exc:
            with pytest.raises(NonFiniteOutputError) as info:
                write_table(stream, fmt, metadata, columns, rows)
            assert str(info.value) == str(exc)
            assert stream.getvalue() == ""
        else:
            write_table(stream, fmt, metadata, columns, rows)
            assert stream.getvalue() == expected


def test_non_finite_output_exit_code(monkeypatch, tmp_path, capsys):
    def run_nan_sweep(effective):
        return ["axis", "value"], [{"axis": "eps", "value": math.nan}], 0

    monkeypatch.setitem(cli._SUBCOMMANDS, "sweep", ("nan rows", run_nan_sweep))
    for fmt in ("csv", "json-lines"):
        out_file = tmp_path / f"table.{fmt}"
        for out in ("-", str(out_file)):
            code = main(["sweep", "--n", "3", "--eps-grid", "0.5", "--format", fmt, "--out", out])
            stdout, err = capsys.readouterr()
            assert code == 3
            assert stdout == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("numerical failure: column value of row 0 is not finite")
        assert not out_file.exists()


def test_console_script_help():
    # The child imports fgvi from the same tree as this test run.
    src = str(Path(fgvi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "fgvi.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    for name in ("analyze", "sweep", "bounds", "mixture"):
        assert name in result.stdout
