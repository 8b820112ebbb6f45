"""Unnormalized model families, exact normalizers, and seeded samplers.

All models expose the *unnormalized* log density log q~(x); partition-free
objectives must be invariant to adding any constant to it.  Discrete symbols
are integers 0..m-1; Ising spins use the fixed map {0 -> -1, 1 -> +1}.

Ising and Potts are exponential families: their sufficient statistic T
(`sufficient_statistics`) gives log q~ = T(x) . theta, and the two kinds
differ only in their site pattern S (`site_pattern`).  log q~ is one sum
over S and T one walk over S, each taking one symbol array per site, so
both run at points and on the state cube's open axes (`_cube_axes`, which
alone refuses a cube past MAX_ENUM_STATES states): no enumeration builds an
array of states.  The discrete objectives (`objectives.empirical_objective`)
see the model only through T and S: mle through T of the state cube, and
gsm, rm and pl through S alone, since a change of one site's symbol moves
only that site's fields and its incident edges.

The Potts layout is overcomplete (Wainwright & Jordan 2008): adding c to all
of one site's fields adds c to log q~ at every state, so the distribution
fixes the fields only up to one constant per site.  `zero_sum_gauge` picks the
representative whose field rows sum to zero.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .grids import from_function
from .operators import discrete_joint

# Smoothing constant for the generalized-Gaussian exponent (x^2 + eps^2)^(a/2),
# which keeps gradient and Laplacian defined at the origin.
GENGAUSS_EPS = 1e-3

MAX_ENUM_STATES = 2**24


class ModelKind(Enum):
    GAUSSIAN = "gaussian"
    ISING = "ising"
    POTTS = "potts"
    GEN_GAUSS_1D = "gengauss1d"


CONTINUOUS_KINDS = {ModelKind.GAUSSIAN, ModelKind.GEN_GAUSS_1D}
DISCRETE_KINDS = {ModelKind.ISING, ModelKind.POTTS}

_LAYOUTS = {
    ModelKind.GAUSSIAN: "mu,tril(sigma)",
    ModelKind.ISING: "h,edge_couplings",
    ModelKind.POTTS: "fields(d*m),edge_couplings",
    ModelKind.GEN_GAUSS_1D: "alpha",
}


class ParameterDomainError(ValueError):
    """Parameters of the right shape that lie outside the model's domain."""


@dataclass(frozen=True)
class Model:
    kind: ModelKind
    dim: int
    alphabet_size: int | None
    params: np.ndarray
    edges: tuple[tuple[int, int], ...] | None = None

    @property
    def n_params(self) -> int:
        return self.params.size

    def with_params(self, theta) -> "Model":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.params.shape:
            raise ValueError(
                f"parameter vector has length {theta.size}, expected {self.params.size}"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        if self.kind is ModelKind.GEN_GAUSS_1D and theta[0] <= 0:
            raise ParameterDomainError(f"alpha must be positive, got {theta[0]}")
        model = replace(self, params=theta)
        if self.kind is ModelKind.GAUSSIAN:
            try:
                np.linalg.cholesky(gaussian_parts(model)[1])
            except np.linalg.LinAlgError:
                raise ParameterDomainError("covariance is not positive definite") from None
        return model


def chain_edges(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(d - 1))


def _check_edges(edges, d: int) -> tuple[tuple[int, int], ...]:
    edges = tuple(tuple(e) for e in edges)
    for e in edges:
        if len(e) != 2 or not (0 <= e[0] < e[1] < d):
            raise ValueError(f"bad edge {e}")
    return edges


# ---------------------------------------------------------------------------
# Constructors

def gaussian_model(mu, cov) -> Model:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mu.size
    if cov.shape != (d, d):
        raise ValueError("covariance shape does not match mean")
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance must be symmetric")
    np.linalg.cholesky(cov)  # rejects non-PD
    params = np.concatenate([mu, cov[np.tril_indices(d)]])
    return Model(ModelKind.GAUSSIAN, d, None, params)


def ising_model(h, couplings, edges=None) -> Model:
    h = np.atleast_1d(np.asarray(h, dtype=float))
    d = h.size
    edges = chain_edges(d) if edges is None else _check_edges(edges, d)
    couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
    if couplings.size != len(edges):
        raise ValueError("one coupling per edge required")
    params = np.concatenate([h, couplings])
    return Model(ModelKind.ISING, d, 2, params, edges)


def potts_model(fields, couplings, edges=None) -> Model:
    fields = np.atleast_2d(np.asarray(fields, dtype=float))
    d, m = fields.shape
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    edges = chain_edges(d) if edges is None else _check_edges(edges, d)
    couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
    if couplings.size != len(edges):
        raise ValueError("one coupling per edge required")
    params = np.concatenate([fields.ravel(), couplings])
    return Model(ModelKind.POTTS, d, m, params, edges)


def gen_gauss_model(alpha: float) -> Model:
    """1-D generalized Gaussian, log q~ = -(x^2 + eps^2)^(alpha/2).

    Score matching (`objectives._gen_gauss_sm`) is reliable only for
    alpha > 1.5, where its per-sample Laplacian term has finite variance;
    for alpha <= 1 the eps-smoothed cusp also biases the sm estimate.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return Model(ModelKind.GEN_GAUSS_1D, 1, None, np.array([float(alpha)]))


# ---------------------------------------------------------------------------
# Parameter layout accessors

def gaussian_parts(model: Model) -> tuple[np.ndarray, np.ndarray]:
    d = model.dim
    mu = model.params[:d]
    cov = np.zeros((d, d))
    cov[np.tril_indices(d)] = model.params[d:]
    cov = cov + np.tril(cov, -1).T
    return mu, cov


def zero_sum_gauge(model: Model, theta) -> np.ndarray:
    """theta with each Potts site's field mean subtracted from its fields, the
    representative of its gauge class whose field rows sum to zero; theta
    itself for every other kind, whose layouts have no gauge freedom."""
    if model.kind is not ModelKind.POTTS:
        return theta
    d, m = model.dim, model.alphabet_size
    theta = np.array(theta, dtype=float)
    fields = theta[: d * m].reshape(d, m)
    fields -= fields.mean(axis=1, keepdims=True)
    return theta


# ---------------------------------------------------------------------------
# Core operations

def _check_points(model: Model, x) -> np.ndarray:
    x = np.asarray(x)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"points must have dimension {model.dim}")
    if model.kind in DISCRETE_KINDS:
        # Integer points, such as the state cube and a Dataset's symbols, are
        # checked where they lie; only other dtypes are converted.
        if pts.dtype.kind not in "iu":
            sym = pts.astype(int)
            if np.any(sym != pts):
                raise ValueError("discrete points must be integer symbols")
            pts = sym
        if pts.size and (pts.min() < 0 or pts.max() >= model.alphabet_size):
            raise ValueError(
                f"symbols must lie in 0..{model.alphabet_size - 1}"
            )
        return pts
    return pts.astype(float)


def log_unnorm(model: Model, x) -> float | np.ndarray:
    """Unnormalized log density; accepts a point (d,) or a batch (N, d)."""
    single = np.asarray(x).ndim == 1
    pts = _check_points(model, x)
    if model.kind is ModelKind.GAUSSIAN:
        mu, cov = gaussian_parts(model)
        sol = np.linalg.solve(cov, (pts - mu).T).T
        out = -0.5 * np.einsum("ni,ni->n", pts - mu, sol)
    elif model.kind is ModelKind.GEN_GAUSS_1D:
        alpha = model.params[0]
        out = -((pts[:, 0] ** 2 + GENGAUSS_EPS**2) ** (alpha / 2.0))
    else:
        out = _site_pattern_sum(model, pts.T)
    return float(out[0]) if single else out


def _require_continuous(model: Model) -> None:
    if model.kind not in CONTINUOUS_KINDS:
        raise ValueError(f"{model.kind.value} is not a continuous model")


def _require_discrete(model: Model) -> None:
    if model.kind not in DISCRETE_KINDS:
        raise ValueError(f"{model.kind.value} is not a discrete model")


def grad_x_log(model: Model, x) -> np.ndarray:
    """Analytic gradient of log q~ with respect to the data point."""
    _require_continuous(model)
    single = np.asarray(x).ndim == 1
    pts = _check_points(model, x)
    if model.kind is ModelKind.GAUSSIAN:
        mu, cov = gaussian_parts(model)
        out = -np.linalg.solve(cov, (pts - mu).T).T
    else:
        alpha = model.params[0]
        u = pts[:, 0] ** 2 + GENGAUSS_EPS**2
        out = (-alpha * pts[:, 0] * u ** (alpha / 2.0 - 1.0))[:, None]
    return out[0] if single else out


def laplacian_x_log(model: Model, x) -> float | np.ndarray:
    """Analytic Laplacian of log q~ with respect to the data point."""
    _require_continuous(model)
    single = np.asarray(x).ndim == 1
    pts = _check_points(model, x)
    if model.kind is ModelKind.GAUSSIAN:
        _, cov = gaussian_parts(model)
        out = np.full(pts.shape[0], -np.trace(np.linalg.inv(cov)))
    else:
        alpha = model.params[0]
        u = pts[:, 0] ** 2 + GENGAUSS_EPS**2
        out = -alpha * u ** (alpha / 2.0 - 2.0) * ((alpha - 1.0) * pts[:, 0] ** 2 + GENGAUSS_EPS**2)
    return float(out[0]) if single else out


_SPIN = np.array([-1.0, 1.0])


def site_pattern(model: Model) -> np.ndarray:
    """The site pattern S of an Ising or Potts model: S[:, y] is symbol y's
    column of field statistics, [[-1, +1]] (the spins) for Ising and I_m for
    Potts, and its Gram matrix S'S is the (m, m) symbol-pair pattern of the
    couplings of both kinds."""
    _require_discrete(model)
    return _SPIN[None, :] if model.kind is ModelKind.ISING else np.eye(model.alphabet_size)


def sufficient_statistics(model: Model, X) -> np.ndarray:
    """T(x) = dlog q~/dtheta of an Ising or Potts model at discrete points, as
    C-ordered rows (N, p) with log q~(x) = T(x) . theta
    (`_site_pattern_statistics`)."""
    _require_discrete(model)
    return np.ascontiguousarray(_site_pattern_statistics(model, _check_points(model, np.atleast_2d(X)).T))


def _site_pattern_statistics(model: Model, symbols) -> np.ndarray:
    """T at the symbol arrays symbols[i] of sites i, which broadcast together,
    with T's p entries on the last axis, each stored contiguously over the
    points: with S the site pattern, the column S[:, x_i] per site (the spin
    for Ising, the one-hot symbol for Potts), filled one site at a time, and
    (S'S)[x_a, x_b] per edge (a, b)."""
    S = site_pattern(model)
    k, n_fields = S.shape[0], model.n_params - len(model.edges)
    T = np.moveaxis(np.empty((model.n_params,) + np.broadcast_shapes(*(x.shape for x in symbols))), 0, -1)
    for i, x in enumerate(symbols):
        T[..., i * k:(i + 1) * k] = S.T[x]
    pair = S.T @ S
    for e, (a, b) in enumerate(model.edges):
        T[..., n_fields + e] = pair[symbols[a], symbols[b]]
    return T


def _site_pattern_sum(model: Model, symbols) -> np.ndarray:
    """log q~ at the symbol arrays symbols[i] of sites i, which broadcast
    together: with S the site pattern, each site's (fields @ S)[i, x_i], then
    each edge's J_e (S'S)[x_a, x_b], added in place into one array."""
    S = site_pattern(model)
    k, n_fields = S.shape[0], model.n_params - len(model.edges)
    site, pair = model.params[:n_fields].reshape(model.dim, k) @ S, S.T @ S
    out = np.zeros(np.broadcast_shapes(*(x.shape for x in symbols)))
    for i, x in enumerate(symbols):
        out += site[i, x]
    for J, (a, b) in zip(model.params[n_fields:], model.edges):
        out += J * pair[symbols[a], symbols[b]]
    return out


def _cube_axes(model: Model) -> tuple[np.ndarray, ...]:
    """The open axes of an Ising or Potts model's state cube {0..m-1}^d, one
    symbol array per site that broadcast together to the (m,)*d cube in C
    order (coordinate 0 slowest), the layout of a DiscreteJoint's table.  A
    cube of more than MAX_ENUM_STATES states is refused before anything is
    allocated."""
    _require_discrete(model)
    m, d = model.alphabet_size, model.dim
    if m**d > MAX_ENUM_STATES:
        raise ValueError(f"state space {m}**{d} too large to enumerate")
    return np.indices((m,) * d, sparse=True)


def log_table(model: Model) -> np.ndarray:
    """log q~ of an Ising or Potts model on its state cube, the (m,)*d table
    of a DiscreteJoint, summed on the cube's open axes (`_cube_axes`) with no
    array of states."""
    return _site_pattern_sum(model, _cube_axes(model))


def default_box(model: Model) -> tuple[float, float]:
    """A quadrature box wide enough that the density decays below 1e-12 peak."""
    _require_continuous(model)
    if model.kind is ModelKind.GAUSSIAN:
        mu, cov = gaussian_parts(model)
        half = 8.0 * float(np.sqrt(np.diag(cov).max()))
        lo, hi = float(mu.min()) - half, float(mu.max()) + half
        return lo, hi
    alpha = model.params[0]
    half = max(12.0, float(np.log(1e18) ** (1.0 / alpha)))
    return -half, half


def exact_normalize(model: Model, n: int | None = None):
    """Brute-force normalization: full enumeration (discrete) or quadrature
    on n points per axis of `default_box`.

    Returns a DiscreteJoint for discrete kinds and a GridDensity for
    continuous 1-D/2-D kinds.
    """
    if model.kind in DISCRETE_KINDS:
        logs = log_table(model)
        logs -= logs.max()
        probs = np.exp(logs, out=logs)
        probs /= probs.sum()
        return discrete_joint(probs)
    if model.dim > 2:
        raise ValueError("continuous quadrature supported in 1-D and 2-D only")
    if n is None:
        n = 4096 if model.dim == 1 else 256

    def fn(*coords):
        logs = log_unnorm(model, np.column_stack([c.ravel() for c in coords]))
        return np.exp(logs - logs.max()).reshape(coords[0].shape)

    return from_function(fn, (default_box(model),) * model.dim, n)


# ---------------------------------------------------------------------------
# Datasets

@dataclass(frozen=True)
class Dataset:
    """N samples of d-dimensional data; sample order is significant.  The
    data is discrete, integer symbols 0..m-1, when it has an alphabet size m,
    and continuous when alphabet_size is None."""

    values: np.ndarray
    alphabet_size: int | None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def continuous_dataset(values) -> Dataset:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] < 1:
        raise ValueError("dataset needs at least one sample")
    _require_finite(values)
    return Dataset(values, None)


def discrete_dataset(values, m: int) -> Dataset:
    values = np.atleast_2d(np.asarray(values))
    _require_finite(values)
    # The range test precedes the cast, which a value beyond int64 would overflow.
    if (np.any(values < 0) or np.any(values >= m)
            or np.any((sym := values.astype(int)) != values)):
        raise ValueError(f"discrete entries must lie in 0..{m - 1}")
    if sym.shape[0] < 1:
        raise ValueError("dataset needs at least one sample")
    return Dataset(sym, m)


def _require_finite(values: np.ndarray) -> None:
    """Dataset values are finite numbers; only float arrays can hold NaN or
    an infinity, so integer samples are not scanned."""
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise ValueError("dataset values must be finite numbers")


def sample(model: Model, n: int, seed: int) -> Dataset:
    """Draw n reproducible samples from the exactly normalized model."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind is ModelKind.GAUSSIAN:
        mu, cov = gaussian_parts(model)
        chol = np.linalg.cholesky(cov)
        vals = rng.standard_normal((n, model.dim)) @ chol.T + mu
        return continuous_dataset(vals)
    if model.kind in DISCRETE_KINDS:
        joint = exact_normalize(model)
        flat = rng.choice(joint.probs.size, size=n, p=joint.probs.ravel())
        states = np.column_stack(np.unravel_index(flat, joint.probs.shape))
        return discrete_dataset(states, model.alphabet_size)
    # 1-D inverse CDF on a fine quadrature grid
    grid = exact_normalize(model, n=1 << 16)
    x = grid.axes[0]
    h = grid.spacing[0]
    cdf = np.concatenate([[0.0], np.cumsum((grid.values[1:] + grid.values[:-1]) * h / 2)])
    cdf /= cdf[-1]
    u = rng.random(n)
    vals = np.interp(u, cdf, x)[:, None]
    return continuous_dataset(vals)


# ---------------------------------------------------------------------------
# File formats

def dataset_to_csv(data: Dataset) -> str:
    header = ",".join(f"x{i}" for i in range(data.dim))
    lines = [header]
    if data.alphabet_size is not None:
        for row in data.values:
            lines.append(",".join(str(int(v)) for v in row))
    else:
        for row in data.values:
            lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def read_dataset_csv(path, alphabet_size: int | None = None) -> Dataset:
    """Load a dataset CSV; pass alphabet_size to read symbols, else reals.
    Blank lines and '#' comments are skipped, and every other line must hold
    one finite number per header column.  A line of another width, or a
    value that is not a finite number, is a ValueError that names its line in
    the file (the header is line 1) and, for a value, its column."""
    with open(path) as fh:
        header = fh.readline().strip()
        lines = fh.read().splitlines()
    cols = header.split(",")
    if cols != [f"x{i}" for i in range(len(cols))]:
        raise ValueError(f"bad dataset header: {header!r}")
    rows = [(number, row) for number, line in enumerate(lines, start=2)
            if (row := line.partition("#")[0]).strip()]
    for number, row in rows:
        if row.count(",") + 1 != len(cols):
            raise ValueError(f"line {number} has {row.count(',') + 1} values, "
                             f"but the header names {len(cols)} columns")
    try:
        with warnings.catch_warnings():
            # A header with no rows is reported below, as an empty dataset.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        if (bad := _first_bad_value(rows, cols)) is not None:
            raise ValueError(bad) from None
        raise
    if not np.isfinite(body).all():
        raise ValueError(_first_bad_value(rows, cols))
    if body.shape[0] == 0:
        raise ValueError("dataset needs at least one sample")
    if alphabet_size is not None:
        return discrete_dataset(body, alphabet_size)
    return continuous_dataset(body)


def _first_bad_value(rows: list[tuple[int, str]], cols: list[str]) -> str | None:
    """The message that names the first value of the numbered rows that is
    not a finite number, by its line and column, or None if there is none."""
    for number, row in rows:
        for col, value in zip(cols, row.split(",")):
            try:
                if np.isfinite(float(value)):
                    continue
                what = "a finite number"
            except ValueError:
                what = "a number"
            return f"line {number}, column {col}: {value.strip()!r} is not {what}"
    return None


def model_to_json(model: Model) -> str:
    obj = {
        "kind": model.kind.value,
        "dim": model.dim,
        "params": model.params.tolist(),
        "layout": _LAYOUTS[model.kind],
    }
    if model.alphabet_size is not None:
        obj["alphabet_size"] = model.alphabet_size
    if model.edges is not None:
        obj["edges"] = [list(e) for e in model.edges]
    return json.dumps(obj, indent=2)


def model_from_json(text: str) -> Model:
    """Parse a model file; a discrete model without an "edges" key is a chain."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"a model file holds a JSON object, got {json.dumps(obj)[:40]}")
    allowed = {"kind", "dim", "alphabet_size", "params", "layout", "edges"}
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown keys in model file: {sorted(extra)}")
    tag = _required(obj, "kind")
    try:
        kind = ModelKind(tag)
    except ValueError:
        raise ValueError(f"unknown model kind {tag!r}") from None
    if _required(obj, "layout") != _LAYOUTS[kind]:
        raise ValueError(
            f"layout {obj['layout']!r} does not match kind {kind.value!r}"
        )
    d = _file_int(obj, "dim", 1)
    params = _required(obj, "params")
    if not isinstance(params, list) or not all(type(v) in (int, float) for v in params):
        raise ValueError("params must be a flat list of numbers")
    params = np.asarray(params, dtype=float)
    for key in ("alphabet_size", "edges"):
        if kind in CONTINUOUS_KINDS and key in obj:
            raise ValueError(f"{kind.value} models have no {key}")
    if kind is ModelKind.GAUSSIAN:
        if params.size != d + d * (d + 1) // 2:
            raise ValueError("bad Gaussian parameter length")
        model = Model(kind, d, None, params)
    elif kind is ModelKind.GEN_GAUSS_1D:
        if d != 1 or params.size != 1:
            raise ValueError("bad generalized-Gaussian parameters")
        model = Model(kind, 1, None, params)
    else:
        m = _file_int(obj, "alphabet_size", 2)
        edges = chain_edges(d)
        if "edges" in obj:
            edges = _check_edges(_int_pairs(obj["edges"]), d)
        if kind is ModelKind.ISING and m != 2:
            raise ValueError("Ising alphabet size must be 2")
        n_fields = d if kind is ModelKind.ISING else d * m
        if params.size != n_fields + len(edges):
            raise ValueError(f"bad {kind.value} parameter length")
        model = Model(kind, d, m, params, edges)
    # Rejects non-finite values, alpha <= 0 and a covariance that is not
    # positive definite.
    return model.with_params(params)


def _required(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"model file lacks required key {key!r}")
    return obj[key]


def _file_int(obj: dict, key: str, lowest: int) -> int:
    value = _required(obj, key)
    if type(value) is not int or value < lowest:
        raise ValueError(f"{key} must be an integer >= {lowest}, got {value!r}")
    return value


def _int_pairs(value) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in value
    ):
        raise ValueError("edges must be a list of integer pairs")
    return [tuple(e) for e in value]
