"""Command-line entry point: dataset generation, fitting, estimator
comparison, scale-space curves, and the numerical verification suites."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import grids, scalespace, verify
from .estimation import comparison_to_csv, compare_estimators, fit
from .models import (
    dataset_to_csv,
    exact_normalize,
    model_from_json,
    read_dataset_csv,
    sample,
)
from .objectives import ObjectiveKind, SupportError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

_OBJECTIVE_TAGS = {k.value: k for k in ObjectiveKind}


class CliError(Exception):
    """Usage or compatibility error; maps to exit code 2."""


def _atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scorematch-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_model(path: str):
    try:
        with open(path) as fh:
            return model_from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"bad model file {path}: {exc}") from exc


def _parse_numbers(flag: str, spec: str, form: str) -> list[float]:
    """The finite numbers of a colon-separated spec laid out like form."""
    try:
        values = [float(v) for v in spec.split(":")]
    except ValueError:
        values = []
    if len(values) != form.count(":") + 1:
        raise CliError(f"bad {flag} spec {spec!r}, expected {form}")
    if not np.all(np.isfinite(values)):
        raise CliError(f"{flag} {spec!r} has a non-finite number")
    return values


def _parse_t_spec(spec: str) -> np.ndarray:
    lo, hi, step = _parse_numbers("--t", spec, "lo:hi:step")
    if step <= 0 or hi <= lo:
        raise CliError(f"--t {spec!r} is not strictly increasing")
    return np.round(np.arange(lo, hi + 1e-9, step), 12)


def _parse_box(spec: str) -> tuple[float, float]:
    lo, hi = _parse_numbers("--box", spec, "lo:hi")
    if not hi > lo:
        raise CliError(f"--box {spec!r} is not strictly increasing")
    return lo, hi


def _parse_density_spec(flag: str, spec: str, box, n: int) -> grids.GridDensity:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "gauss":
            mu, var = (float(v) for v in rest.split(":"))
            make = functools.partial(grids.gaussian_1d, mu, var)
        elif kind == "mix":
            make = functools.partial(grids.mixture_1d, [
                (float(w), float(mu), float(var))
                for w, mu, var in (c.split(",") for c in rest.split(";"))])
        else:
            raise ValueError(kind)
    except ValueError:
        raise CliError(f"bad density spec {spec!r}; use gauss:mu:var or "
                       "mix:w,mu,var;w,mu,var") from None
    # A spec that parses names a density, which the grid may still refuse.
    try:
        return make(box=box, n=n)
    except grids.BoundaryError as exc:
        raise CliError(
            f"{flag} {spec!r} does not fit in --box {box[0]:g}:{box[1]:g}: {exc}"
        ) from exc
    except ValueError as exc:
        raise CliError(f"{flag} {spec!r} is refused: {exc}") from exc


def _parse_int(flag: str, text: str, lowest: int) -> int:
    """A plain decimal integer >= lowest; anything else is a usage error."""
    text = text.strip()
    if re.fullmatch(r"[0-9]+", text) is None or int(text) < lowest:
        raise CliError(f"{flag} takes integers >= {lowest}, got {text!r}")
    return int(text)


def _parse_seeds(spec: str) -> list[int]:
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        lo, hi = _parse_int("--seeds", lo, 0), _parse_int("--seeds", hi, 0)
        if hi < lo:
            raise CliError(f"--seeds range {spec!r} is empty")
        return list(range(lo, hi + 1))
    return [_parse_int("--seeds", v, 0) for v in spec.split(",")]


def cmd_generate(args) -> int:
    model = _load_model(args.model)
    if args.n < 1 or args.seed < 0:
        raise CliError(f"--n must be >= 1 and --seed >= 0, got {args.n} and {args.seed}")
    try:
        data = sample(model, args.n, args.seed)
    except ValueError as exc:
        raise CliError(f"cannot sample from {args.model}: {exc}") from exc
    _atomic_write(args.out, dataset_to_csv(data))
    print(f"seed={args.seed}")
    return EXIT_OK


def cmd_fit(args) -> int:
    model = _load_model(args.model)
    objective = _OBJECTIVE_TAGS[args.objective]
    if args.data == "enumerate":
        if args.p_model is None:
            raise CliError("--data enumerate requires --p-model")
        truth = _load_model(args.p_model)
        if truth.alphabet_size is None:
            raise CliError(f"--p-model {args.p_model} is {truth.kind.value}, not enumerable")
        try:
            data = exact_normalize(truth)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        try:
            data = read_dataset_csv(args.data, alphabet_size=model.alphabet_size)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad data file {args.data}: {exc}") from exc
    try:
        result = fit(model, objective, data)
    except ValueError as exc:
        raise CliError(
            f"cannot fit objective {objective.value!r} to model kind "
            f"{model.kind.value!r}: {exc}"
        ) from exc
    payload = {
        "theta_hat": result.theta_hat.tolist(),
        "objective": objective.value,
        "value": result.objective_value,
        "grad_norm": result.grad_norm,
        "iters": result.iters,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
    }
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    model = _load_model(args.model)
    objectives = []
    for tag in args.objectives.split(","):
        if tag not in _OBJECTIVE_TAGS:
            raise CliError(f"unknown objective tag {tag!r}")
        objectives.append(_OBJECTIVE_TAGS[tag])
    n_list = [_parse_int("--n", v, 1) for v in args.n.split(",")]
    seeds = _parse_seeds(args.seeds)
    try:
        rows = compare_estimators(model, n_list, seeds, objectives)
    except ValueError as exc:
        raise CliError(
            f"cannot compare on model kind {model.kind.value!r}: {exc}"
        ) from exc
    _atomic_write(args.out, comparison_to_csv(rows))
    return EXIT_OK


def cmd_scalespace(args) -> int:
    box = _parse_box(args.box)
    try:
        grids.uniform_axis(*box, args.grid_n)
    except ValueError as exc:
        raise CliError(f"bad --grid-n {args.grid_n}: {exc}") from None
    p = _parse_density_spec("--p", args.p, box, args.grid_n)
    q = _parse_density_spec("--q", args.q, box, args.grid_n)
    try:
        curve = scalespace.divergence_curve(p, q, _parse_t_spec(args.t))
    except SupportError as exc:
        raise CliError(
            f"cannot compare --p {args.p!r} with --q {args.q!r} along the heat flow: {exc}"
        ) from exc
    except ValueError as exc:
        raise CliError(f"cannot smooth over --t {args.t!r}: {exc}") from exc
    _atomic_write(args.out, curve.to_csv())
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        checks = verify.run_suite(args.suite)
    except KeyError:
        raise CliError(
            f"unknown suite {args.suite!r}; choose from "
            f"{', '.join([*verify.SUITES, 'all'])}"
        ) from None
    ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        ok &= check.passed
        print(
            f"{status} {check.name}: residual {check.residual:.3e} "
            f"(tolerance {check.tolerance:.3e})"
        )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorematch",
        description="Partition-free estimation and scale-space diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a dataset from a model file")
    gen.add_argument("--model", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    fit_p = sub.add_parser("fit", help="fit a model to data under an objective")
    fit_p.add_argument("--model", required=True)
    fit_p.add_argument("--objective", required=True, choices=sorted(_OBJECTIVE_TAGS))
    fit_p.add_argument("--data", required=True, help="CSV path, or 'enumerate'")
    fit_p.add_argument("--p-model", help="true-model JSON for --data enumerate")
    fit_p.add_argument("--out", required=True)
    fit_p.set_defaults(func=cmd_fit)

    cmp_p = sub.add_parser("compare", help="multi-estimator comparison table")
    cmp_p.add_argument("--model", required=True, help="true model (theta*)")
    cmp_p.add_argument("--objectives", required=True, help="comma list of tags")
    cmp_p.add_argument("--n", required=True, help="comma list of sample counts")
    cmp_p.add_argument("--seeds", required=True, help="e.g. 1..5 or 1,2,3")
    cmp_p.add_argument("--out", required=True)
    cmp_p.set_defaults(func=cmd_compare)

    ss = sub.add_parser("scalespace", help="KL/Fisher divergence curve over t")
    ss.add_argument("--p", required=True, help="density spec, e.g. gauss:0:1")
    ss.add_argument("--q", required=True)
    ss.add_argument("--t", default="0.02:1:0.02", help="lo:hi:step")
    ss.add_argument("--box", default="-12:12")
    ss.add_argument("--grid-n", type=int, default=4096)
    ss.add_argument("--out", required=True)
    ss.set_defaults(func=cmd_scalespace)

    ver = sub.add_parser("verify", help="run a numerical verification suite")
    ver.add_argument("--suite", required=True)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token such as "-12:12" for an option, so a --box or --t
    # value with a negative bound is joined to its flag, as in --box=-12:12.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--box", "--t") and re.match(r"-[^-]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
