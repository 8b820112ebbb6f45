"""End-to-end command-line tests: file formats, exit codes, reproducibility."""

import json
import warnings

import numpy as np
import pytest

from scorematch import models, verify
from scorematch.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, _atomic_write, main
from scorematch.estimation import closed_form_gaussian_sm
from scorematch.models import (
    dataset_to_csv,
    discrete_dataset,
    gaussian_model,
    gen_gauss_model,
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


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # The output is written to a temporary file beside it and renamed into
    # place; a rename onto a directory fails and the temporary file goes.
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        _atomic_write(str(target), "x\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


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


@pytest.mark.parametrize("model, value", [
    (ising_model([0.0, 0.0], [0.5]), float("nan")),  # a NaN field
    (gaussian_model([0.0], [[1.0]]), float("inf")),  # an Infinity mean
])
def test_generate_rejects_non_finite_model_parameters(tmp_path, capsys, model, value):
    obj = json.loads(model_to_json(model))
    obj["params"][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))  # writes NaN and Infinity as bare tokens
    out = tmp_path / "d.csv"
    code = main(["generate", "--model", str(bad), "--n", "10", "--out", str(out)])
    assert code == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("obj, field", [
    ({"kind": "potts", "dim": 2, "alphabet_size": 1, "params": [0.0, 0.0, 0.5]}, "alphabet_size"),
    ({"kind": "potts", "dim": 2, "alphabet_size": 0, "params": [0.5]}, "alphabet_size"),
    ({"kind": "potts", "dim": 2, "alphabet_size": 2.7, "params": [0.0] * 4 + [0.5]},
     "alphabet_size"),
    ({"kind": "gaussian", "dim": 1.5, "params": [0.0, 1.0]}, "dim"),
    ({"kind": "gaussian", "dim": 0, "params": []}, "dim"),
    ({"kind": "ising", "dim": 0, "alphabet_size": 2, "params": []}, "dim"),
    ({"kind": "gaussian", "dim": 1, "alphabet_size": 7, "params": [0.0, 1.0]}, "alphabet_size"),
    ({"kind": "gengauss1d", "dim": 1, "alphabet_size": "x", "params": [1.5]}, "alphabet_size"),
], ids=["potts-m1", "potts-m0", "potts-m2.7", "dim-1.5", "gaussian-dim0", "ising-dim0",
        "gaussian-m7", "gengauss-mx"])
def test_generate_rejects_a_model_file_with_a_bad_size(tmp_path, capsys, obj, field):
    # A continuous model has no alphabet, so any alphabet_size is a bad size.
    layouts = {"potts": "fields(d*m),edge_couplings", "gaussian": "mu,tril(sigma)",
               "ising": "h,edge_couplings", "gengauss1d": "alpha"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**obj, "layout": layouts[obj["kind"]]}))
    out = tmp_path / "d.csv"
    code = main(["generate", "--model", str(bad), "--n", "10", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "fit"])
def test_a_model_file_with_nested_params_is_a_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "nested.json"
    bad.write_text(json.dumps({"kind": "ising", "dim": 2, "alphabet_size": 2,
                               "params": [[0.1, 0.2, 0.5]], "layout": "h,edge_couplings"}))
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n0,1\n")
    flags = {"generate": ["--n", "10"], "fit": ["--objective", "pl", "--data", str(data)]}
    out = tmp_path / "out"
    code = main([command, "--model", str(bad), *flags[command], "--out", str(out)])
    assert code == EXIT_USAGE
    assert "params must be a flat list of numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("5", "a model file holds a JSON object, got 5"),
    ("null", "a model file holds a JSON object, got null"),
    ("[1, 2]", "a model file holds a JSON object, got [1, 2]"),
    ('{"kind": "ising", "dim": 2, "alphabet_size": 2, "layout": "h,edge_couplings"}',
     "model file lacks required key 'params'"),
], ids=["number", "null", "list", "no-params"])
def test_generate_rejects_a_model_file_that_is_not_a_complete_object(tmp_path, capsys, text,
                                                                      message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "d.csv"
    code = main(["generate", "--model", str(bad), "--n", "10", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_generate_maps_a_sampling_error_to_usage(tmp_path, capsys):
    chain = tmp_path / "ising25.json"
    chain.write_text(model_to_json(ising_model(np.zeros(25), np.zeros(24))))
    code = main(["generate", "--model", str(chain), "--n", "10",
                 "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_USAGE
    assert "too large to enumerate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit

def test_fit_mle_past_the_enumeration_cap_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # An mle fit enumerates the state cube, which past MAX_ENUM_STATES is
    # refused before it is allocated.
    monkeypatch.setattr(models, "MAX_ENUM_STATES", 2**4)
    chain = tmp_path / "chain5.json"
    chain.write_text(model_to_json(ising_model(np.zeros(5), np.zeros(4))))
    data = tmp_path / "chain5.csv"
    rows = np.random.default_rng(0).integers(0, 2, (50, 5))
    data.write_text(dataset_to_csv(discrete_dataset(rows, 2)))
    out = tmp_path / "fit.json"
    code = main(["fit", "--model", str(chain), "--objective", "mle", "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "too large to enumerate" in capsys.readouterr().err
    assert not out.exists()


def test_fit_enumerate_past_the_enumeration_cap_is_a_usage_error(tmp_path, capsys):
    # --data enumerate normalizes the --p-model, whose 2**25-state table is
    # refused before it is allocated.
    chain = tmp_path / "chain25.json"
    chain.write_text(model_to_json(ising_model(np.zeros(25), np.zeros(24))))
    out = tmp_path / "fit.json"
    code = main(["fit", "--model", str(chain), "--objective", "pl", "--data", "enumerate",
                 "--p-model", str(chain), "--out", str(out)])
    assert code == EXIT_USAGE
    assert "too large to enumerate" in capsys.readouterr().err
    assert not out.exists()


def test_fit_on_a_header_only_dataset_is_a_usage_error(ising2, tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("x0,x1\n")
    out = tmp_path / "fit.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--model", ising2, "--objective", "pl", "--data", str(data),
                     "--out", str(out)])
    assert code == EXIT_USAGE
    assert "dataset needs at least one sample" in capsys.readouterr().err
    assert caught == [] and not out.exists()


def test_fit_on_a_short_row_names_the_line(ising2, tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("x0,x1\n0,1\n1\n")
    out = tmp_path / "fit.json"
    code = main(["fit", "--model", ising2, "--objective", "pl", "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"error: bad data file {data}: "
                   "line 3 has 1 values, but the header names 2 columns\n")
    assert not out.exists()


def test_fit_on_a_value_that_is_not_a_number_names_its_line_and_column(ising2, tmp_path,
                                                                       capsys):
    data = tmp_path / "text.csv"
    data.write_text("x0,x1\n0,1\n0,a\n")
    out = tmp_path / "fit.json"
    code = main(["fit", "--model", ising2, "--objective", "pl", "--data", str(data),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: bad data file {data}: line 3, column x1: 'a' is not a number\n"
    assert not out.exists()


@pytest.mark.parametrize("model, objective, text, where", [
    ("gauss1", "sm", "x0\n0.5\nnan\n", "line 3, column x0: 'nan'"),
    ("ising2", "pl", "x0,x1\n0,1\n1,inf\n", "line 3, column x1: 'inf'"),
])
def test_fit_on_a_value_that_is_not_finite_is_a_usage_error(request, tmp_path, capsys, model,
                                                            objective, text, where):
    data = tmp_path / "nonfinite.csv"
    data.write_text(text)
    out = tmp_path / "fit.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--model", request.getfixturevalue(model), "--objective", objective,
                     "--data", str(data), "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: bad data file {data}: "
                                       f"{where} is not a finite number\n")
    assert caught == [] and not out.exists()


@pytest.mark.parametrize("objective", ["gsm", "rm"])
def test_fit_enumerate_on_a_joint_with_empty_fibres_reports_a_finite_value(tmp_path, objective):
    # Couplings of +-400 leave most states of the chain with probability 0
    # and many of their fibres with no mass, which add nothing.
    truth = tmp_path / "chain400.json"
    truth.write_text(model_to_json(ising_model(np.zeros(4), [400.0, 400.0, -400.0])))
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--model", str(truth), "--objective", objective,
                     "--data", "enumerate", "--p-model", str(truth),
                     "--out", str(out)]) == EXIT_OK

    def reject(constant):  # NaN and Infinity are not JSON numbers
        raise ValueError(f"{constant} is not valid JSON")

    value = json.loads(out.read_text(), parse_constant=reject)["value"]
    assert np.isfinite(value) and value >= 0


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
    assert result["converged"] is True and result["stop_reason"] == "solved"


def test_fit_population_mode_recovers_truth(ising2, tmp_path):
    out = tmp_path / "fit.json"
    zero = tmp_path / "zero.json"
    zero.write_text(model_to_json(ising_model([0.0, 0.0], [0.0])))
    assert main(["fit", "--model", str(zero), "--objective", "gsm",
                 "--data", "enumerate", "--p-model", ising2,
                 "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    assert np.abs(np.array(result["theta_hat"]) - [0.0, 0.0, 0.5]).max() < 1e-5
    assert result["converged"] is True and result["stop_reason"] == "grad_tol"


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


def test_scalespace_rejects_bad_specs(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    for spec in ("gauss:0", "gauss:a:1", "mix:1,0", "mix:", "cauchy:0:1"):
        assert main(["scalespace", "--p", spec, "--q", "gauss:0:1",
                     "--out", out]) == EXIT_USAGE
        assert f"bad density spec {spec!r}" in capsys.readouterr().err
    assert main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:1",
                 "--t", "1:0:0.1", "--out", out]) == EXIT_USAGE


@pytest.mark.parametrize("t, reason", [
    ("-1:0.2:0.1", "nonnegative"),
    ("1:30:1", "wider than half the box"),
    ("nan:1:0.1", "has a non-finite number"),
    ("0.1:1:inf", "has a non-finite number"),
])
def test_scalespace_maps_a_smoothing_error_to_usage(tmp_path, capsys, t, reason):
    out = tmp_path / "c.csv"
    # The value joined to its flag and as a token of its own.
    for t_args in ([f"--t={t}"], ["--t", t]):
        code = main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:2", *t_args,
                     "--grid-n", "1024", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--t" in err and reason in err and "Traceback" not in err
        assert not out.exists()


def test_scalespace_names_the_density_pair_when_q_vanishes(tmp_path, capsys):
    # N(0, 0.01) smoothed by 0.02 underflows to 0 where N(0, 1.02) is still
    # positive: a fault of the pair, not of the t grid.
    out = tmp_path / "c.csv"
    code = main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:0.01",
                 "--t", "0.02:0.1:0.02", "--grid-n", "1024", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--p 'gauss:0:1'" in err and "--q 'gauss:0:0.01'" in err
    assert "q vanishes where p is positive" in err
    assert "--t" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--box", "foo"),
    ("--box", "5:-5"),
    ("--box", "-inf:12"),
    ("--box", "-12:inf"),
    ("--grid-n", "1"),
])
def test_scalespace_rejects_bad_grid_flags(tmp_path, capsys, flag, value):
    # The value joined to its flag and as a token of its own.
    for flag_args in ([f"{flag}={value}"], [flag, value]):
        code = main(["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:1", *flag_args,
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert flag in err
        assert "density spec" not in err
        assert not (tmp_path / "c.csv").exists()


def test_scalespace_reads_a_negative_box_given_as_its_own_token(tmp_path):
    args = ["scalespace", "--p", "gauss:0:1", "--q", "gauss:0:2", "--t", "0.1:0.3:0.1",
            "--grid-n", "1024"]
    paths = [tmp_path / f"{k}.csv" for k in ("joined", "separate", "default")]
    for path, box_args in zip(paths, (["--box=-12:12"], ["--box", "-12:12"], [])):
        assert main(args + box_args + ["--out", str(path)]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


@pytest.mark.parametrize("density_args, reason", [
    pytest.param(["--p", "gauss:0:1", "--box", "0:12"],
                 "--p 'gauss:0:1' does not fit in --box 0:12", id="narrow-box"),
    pytest.param(["--p", "gauss:0:100"],
                 "--p 'gauss:0:100' does not fit in --box -12:12", id="wide-gauss"),
    pytest.param(["--q", "mix:0.5,0,1;0.5,11,1"],
                 "--q 'mix:0.5,0,1;0.5,11,1' does not fit in --box -12:12", id="mix-at-edge"),
    pytest.param(["--p", "gauss:0:-1"],
                 "--p 'gauss:0:-1' is refused: variance must be positive", id="negative-var"),
])
def test_scalespace_names_why_a_well_formed_density_is_refused(tmp_path, capsys,
                                                                density_args, reason):
    # A spec of the right form is not a syntax error: the message gives the
    # grid's reason, and names --box only when the density leaves the box.
    args = {"--p": "gauss:0:1", "--q": "gauss:0:2", "--box": "-12:12"}
    args.update(zip(density_args[::2], density_args[1::2]))
    out = tmp_path / "c.csv"
    code = main(["scalespace", *(a for kv in args.items() for a in kv), "--grid-n", "1024",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert reason in err and "bad density spec" not in err and "Traceback" not in err
    assert ("does not decay at the box boundary" in err) == ("--box" in err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# compare

def test_compare_row_count(ising2, tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", ising2, "--objectives", "pl,mle",
                 "--n", "200", "--seeds", "1..2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("objective,n,seed,")
    assert len(lines) == 1 + 2 + 2 * 1 * 2  # header + population + grid


def _compare_rows(tmp_path, model, objectives):
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model))
    out = tmp_path / "c.csv"
    assert main(["compare", "--model", str(path), "--objectives", objectives,
                 "--n", "200", "--seeds", "1", "--out", str(out)]) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    return [dict(zip(header, r)) for r in rows]


def test_compare_on_a_gaussian_has_sm_and_mle_population_rows(tmp_path):
    # The population rows fit the truth's own mean and covariance, no grid.
    truth = gaussian_model([0.5, -1.0, 0.2],
                           [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]])
    rows = _compare_rows(tmp_path, truth, "sm,mle")
    population = [r for r in rows if r["n"] == "inf"]
    assert [r["objective"] for r in population] == ["sm", "mle"]
    assert all(float(r["linf_error"]) <= 1e-6 for r in population)
    sampled = [(r["objective"], r["n"]) for r in rows if r["n"] != "inf"]
    assert sampled == [("sm", "200"), ("mle", "200")]
    sm_rows = [r for r in rows if r["objective"] == "sm"]
    assert all(r["converged"] == "true" and r["iters"] == "0" for r in sm_rows)


def test_compare_on_gengauss_has_only_sampled_rows(tmp_path):
    rows = _compare_rows(tmp_path, gen_gauss_model(2.0), "sm")
    assert [(r["objective"], r["n"], r["seed"]) for r in rows] == [("sm", "200", "1")]


def test_compare_reports_potts_errors_in_the_zero_sum_gauge(tmp_path):
    # Field rows that do not sum to zero: the population fits recover the
    # distribution, and its zero-sum representative is what they are scored on.
    path = tmp_path / "potts3.json"
    truth = potts_model([[0.5, 0.0, -0.2], [0.3, 0.3, 0.0], [0.0, 0.1, 0.4]], [0.4, -0.3])
    path.write_text(model_to_json(truth))
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--model", str(path), "--objectives", "gsm,pl,mle",
                 "--n", "200", "--seeds", "1", "--out", str(out)]) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    population = [dict(zip(header, r)) for r in rows if r[header.index("n")] == "inf"]
    assert [r["objective"] for r in population] == ["gsm", "pl", "mle"]
    assert all(float(r["linf_error"]) <= 1e-5 for r in population)


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
