"""End-to-end command-line tests: file formats, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from scorematch import verify
from scorematch.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from scorematch.estimation import closed_form_gaussian_sm
from scorematch.models import (
    gaussian_model,
    ising_model,
    model_to_json,
    potts_model,
    read_dataset_csv,
)


@pytest.fixture
def ising2(tmp_path):
    path = tmp_path / "ising2.json"
    path.write_text(model_to_json(ising_model([0.0, 0.0], [0.5])))
    return str(path)


@pytest.fixture
def gauss1(tmp_path):
    path = tmp_path / "gauss1.json"
    path.write_text(model_to_json(gaussian_model([0.0], [[1.0]])))
    return str(path)


# ---------------------------------------------------------------------------
# generate

def test_generate_reproducible(ising2, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["generate", "--model", ising2, "--n", "100", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    assert "seed=7" in capsys.readouterr().out
    first = out.read_bytes()
    assert main(["generate", "--model", ising2, "--n", "100", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first
    assert len(first.decode().splitlines()) == 101  # header + 100 rows


def test_generate_rejects_zero_n(ising2, tmp_path, capsys):
    code = main(["generate", "--model", ising2, "--n", "0",
                 "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_generate_rejects_negative_seed(ising2, tmp_path, capsys):
    code = main(["generate", "--model", ising2, "--n", "10", "--seed", "-1",
                 "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_generate_rejects_bad_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "wat"}')
    code = main(["generate", "--model", str(bad), "--n", "10",
                 "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# fit

def test_fit_gaussian_sm_matches_sample_moments(gauss1, tmp_path):
    data_path = tmp_path / "g.csv"
    main(["generate", "--model", gauss1, "--n", "500", "--seed", "3",
          "--out", str(data_path)])
    out = tmp_path / "fit.json"
    assert main(["fit", "--model", gauss1, "--objective", "sm",
                 "--data", str(data_path), "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    ref = closed_form_gaussian_sm(read_dataset_csv(str(data_path)))
    assert np.abs(np.array(result["theta_hat"]) - ref).max() < 1e-6
    assert result["objective"] == "sm"
    assert result["converged"] is True


def test_fit_population_mode_recovers_truth(ising2, tmp_path):
    out = tmp_path / "fit.json"
    zero = tmp_path / "zero.json"
    zero.write_text(model_to_json(ising_model([0.0, 0.0], [0.0])))
    assert main(["fit", "--model", str(zero), "--objective", "gsm",
                 "--data", "enumerate", "--p-model", ising2,
                 "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert np.abs(np.array(result["theta_hat"]) - [0.0, 0.0, 0.5]).max() < 1e-5


def test_fit_incompatible_objective_reports_both_kinds(gauss1, tmp_path, capsys):
    data_path = tmp_path / "g.csv"
    main(["generate", "--model", gauss1, "--n", "50", "--seed", "1",
          "--out", str(data_path)])
    code = main(["fit", "--model", gauss1, "--objective", "gsm",
                 "--data", str(data_path), "--out", str(tmp_path / "f.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "gsm" in err and "gaussian" in err


def test_fit_rm_rejects_potts(tmp_path, capsys):
    # ratio matching is binary only; a ternary model is a usage error
    potts = tmp_path / "potts.json"
    potts.write_text(model_to_json(potts_model(np.zeros((2, 3)), [0.5])))
    data_path = tmp_path / "p.csv"
    main(["generate", "--model", str(potts), "--n", "50", "--seed", "1",
          "--out", str(data_path)])
    code = main(["fit", "--model", str(potts), "--objective", "rm",
                 "--data", str(data_path), "--out", str(tmp_path / "f.json")])
    assert code == EXIT_USAGE
    assert "binary" in capsys.readouterr().err
    code = main(["compare", "--model", str(potts), "--objectives", "rm",
                 "--n", "50", "--seeds", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    assert "binary" in capsys.readouterr().err


def test_fit_enumerate_requires_p_model(ising2, tmp_path):
    code = main(["fit", "--model", ising2, "--objective", "gsm",
                 "--data", "enumerate", "--out", str(tmp_path / "f.json")])
    assert code == EXIT_USAGE


def test_fit_enumerate_rejects_continuous_p_model(ising2, gauss1, tmp_path, capsys):
    code = main(["fit", "--model", ising2, "--objective", "gsm", "--data", "enumerate",
                 "--p-model", gauss1, "--out", str(tmp_path / "f.json")])
    assert code == EXIT_USAGE
    assert "--p-model" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scalespace

def test_scalespace_identical_densities_zero_kl(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:1",
                 "--t", "0.1:0.3:0.1", "--grid-n", "1024",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,kl,fisher,dkl_dt"
    assert len(lines) == 4
    for line in lines[1:]:
        assert abs(float(line.split(",")[1])) <= 1e-10


def test_scalespace_reproducible_bytes(tmp_path):
    args = ["scalespace", "--p", "gauss:0:1", "--q", "mix:0.5,-1,1;0.5,1,1",
            "--t", "0.1:0.3:0.1", "--grid-n", "1024"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_scalespace_rejects_bad_specs(tmp_path):
    out = str(tmp_path / "c.csv")
    assert main(["scalespace", "--p", "gauss:0", "--q", "gauss:0:1",
                 "--out", out]) == EXIT_USAGE
    assert main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:1",
                 "--t", "1:0:0.1", "--out", out]) == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [
    ("--box", "foo"),
    ("--box", "5:-5"),
    ("--grid-n", "1"),
])
def test_scalespace_rejects_bad_grid_flags(tmp_path, capsys, flag, value):
    code = main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:1", flag, value,
                 "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err
    assert "density spec" not in err
    assert not (tmp_path / "c.csv").exists()


# ---------------------------------------------------------------------------
# compare

def test_compare_row_count(ising2, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", ising2, "--objectives", "pl,mle",
                 "--n", "200", "--seeds", "1..2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("objective,n,seed,")
    assert len(lines) == 1 + 2 + 2 * 1 * 2  # header + population + grid


def test_compare_rejects_unknown_objective(ising2, tmp_path):
    code = main(["compare", "--model", ising2, "--objectives", "pl,nope",
                 "--n", "100", "--seeds", "1", "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "1e3"), ("--seeds", "a..b"), ("--seeds", "1,,2"), ("--seeds", "3..1")],
)
def test_compare_rejects_malformed_counts(ising2, tmp_path, capsys, flag, value):
    args = {"--n": "200", "--seeds": "1", flag: value}
    out = tmp_path / "c.csv"
    code = main(["compare", "--model", ising2, "--objectives", "pl",
                 "--n", args["--n"], "--seeds", args["--seeds"], "--out", str(out)])
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_bad_optimizer_flags_are_not_reported_as_a_fit_failure(
    ising2, tmp_path, capsys, command
):
    out = str(tmp_path / "o")
    if command == "fit":
        args = ["fit", "--model", ising2, "--objective", "pl", "--data", "enumerate",
                "--p-model", ising2, "--out", out]
    else:
        args = ["compare", "--model", ising2, "--objectives", "pl", "--n", "200",
                "--seeds", "1", "--out", out]
    assert main(args + ["--max-iters", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--max-iters" in err and "cannot" not in err


# ---------------------------------------------------------------------------
# verify

def test_verify_passing_suite(capsys):
    assert main(["verify", "--suite", "adjoint"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "residual" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == EXIT_USAGE


def test_verify_failing_suite_exit_code(monkeypatch, capsys):
    # a suite whose residual exceeds its tolerance must exit 1 and print FAIL
    monkeypatch.setitem(
        verify.SUITES, "failing", lambda: [verify.Check("always over", 2.0, 1.0)]
    )
    assert main(["verify", "--suite", "failing"]) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# misc

def test_stdout_output(ising2, capsys):
    assert main(["generate", "--model", ising2, "--n", "3", "--seed", "1",
                 "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("x0,x1")
