"""Unnormalized model families, exact normalizers, and seeded samplers.

All models expose the *unnormalized* log density log q~(x); partition-free
objectives must be invariant to adding any constant to it.  Discrete symbols
are integers 0..m-1; Ising spins use the fixed map {0 -> -1, 1 -> +1}.

Ising and Potts are both written once as a pairwise model over one-hot
symbols (`pairwise_form`): their parameters enter linearly through a field
table and a coupling matrix, which gives every singleton conditional from one
matrix product and the parameter gradients by the chain rule.
"""

from __future__ import annotations

import json
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
    # Additive constant on log q~; partition-free objectives must ignore it.
    log_shift: float = 0.0

    @property
    def n_params(self) -> int:
        return self.params.size

    def shifted(self, c: float) -> "Model":
        """Same model with log q~ shifted by the constant c."""
        return replace(self, log_shift=self.log_shift + float(c))

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

    Score matching (`objectives.sm_objective`) applies only for alpha > 1:
    for alpha <= 1 the eps-smoothed cusp breaks Hyvarinen's regularity
    condition and the sm estimate is biased.
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


def ising_parts(model: Model) -> tuple[np.ndarray, np.ndarray]:
    d = model.dim
    return model.params[:d], model.params[d:]


def potts_parts(model: Model) -> tuple[np.ndarray, np.ndarray]:
    d, m = model.dim, model.alphabet_size
    return model.params[: d * m].reshape(d, m), model.params[d * m:]


# ---------------------------------------------------------------------------
# Core operations

def _check_points(model: Model, x) -> np.ndarray:
    x = np.asarray(x)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError(f"points must have dimension {model.dim}")
    if model.kind in DISCRETE_KINDS:
        sym = pts.astype(int)
        if np.any(sym != pts):
            raise ValueError("discrete points must be integer symbols")
        if np.any(sym < 0) or np.any(sym >= model.alphabet_size):
            raise ValueError(
                f"symbols must lie in 0..{model.alphabet_size - 1}"
            )
        return sym
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
    elif model.kind is ModelKind.ISING:
        h, coup = ising_parts(model)
        s = 2.0 * pts - 1.0
        out = s @ h
        for k, (i, j) in enumerate(model.edges):
            out = out + coup[k] * s[:, i] * s[:, j]
    elif model.kind is ModelKind.POTTS:
        fields, coup = potts_parts(model)
        out = fields[np.arange(model.dim), pts].sum(axis=1)
        for k, (i, j) in enumerate(model.edges):
            out = out + coup[k] * (pts[:, i] == pts[:, j])
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {model.kind}")
    out = out + model.log_shift
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


def _edge_pattern(model: Model):
    """Edge endpoints i, j and the (m, m) symbol-pair pattern of the
    couplings of an Ising or Potts model."""
    _require_discrete(model)
    if model.kind is ModelKind.ISING:
        pair = np.outer(_SPIN, _SPIN)
    else:
        pair = np.eye(model.alphabet_size)
    i, j = np.asarray(model.edges, dtype=int).reshape(-1, 2).T
    return i, j, pair


def pairwise_form(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """The pairwise form of a discrete model: a field vector F (d*m,) and a
    coupling matrix C (d*m, d*m) with log q~(x) = F . x1 + x1' C x1 / 2 for
    the one-hot row x1 of x (see `one_hot`), up to log_shift.

    (F, C) is a fixed linear map B of the parameters that depends only on the
    kind, d, m and the edges; `pairwise_adjoint` is its transpose.  Ising:
    F[i,y] = h_i s_y and C[(i,y),(j,y')] = J_k s_y s_y' with spins
    s = (-1, +1); Potts: F = fields and C[(i,y),(j,y')] = J_k [y = y'].
    C is symmetric and zero on its (i, i) blocks.
    """
    i, j, pair = _edge_pattern(model)
    d, m = model.dim, model.alphabet_size
    fields, couplings = np.split(model.params, [model.n_params - len(i)])
    F = np.outer(fields, _SPIN) if model.kind is ModelKind.ISING else fields
    C = np.zeros((d, m, d, m))
    np.add.at(C, (i, slice(None), j), couplings[:, None, None] * pair)
    C += C.transpose(2, 3, 0, 1)
    return F.ravel(), C.reshape(d * m, d * m)


def pairwise_adjoint(model: Model, dF, dC) -> np.ndarray:
    """Transpose of the map theta -> (F, C) of `pairwise_form`: the gradient
    in theta of a function of (F, C) whose gradients are dF and dC."""
    i, j, pair = _edge_pattern(model)
    d, m = model.dim, model.alphabet_size
    dF = np.reshape(dF, (d, m))
    dC = np.reshape(dC, (d, m, d, m))
    d_fields = dF @ _SPIN if model.kind is ModelKind.ISING else dF.ravel()
    d_couplings = ((dC[i, :, j] + dC[j, :, i].transpose(0, 2, 1)) * pair).sum(axis=(1, 2))
    return np.concatenate([d_fields, d_couplings])


def one_hot(model: Model, X) -> np.ndarray:
    """One-hot rows of discrete points, shape (N, d*m): column i*m + x_i is 1."""
    _require_discrete(model)
    pts = _check_points(model, np.atleast_2d(X))
    n, d, m = pts.shape[0], model.dim, model.alphabet_size
    x1 = np.zeros((n, d * m))
    x1[np.arange(n)[:, None], np.arange(d) * m + pts] = 1.0
    return x1


def pairwise_conditionals(model: Model, x1: np.ndarray) -> np.ndarray:
    """Singleton conditionals, shape (N, d, m), from one-hot rows x1.

    The logits Z = F + x1 C' hold log q~(x with x_i := y) up to terms free of
    x_i, because C is zero on its (i, i) blocks; a max-subtracted softmax
    over y, done in place on Z, turns them into conditionals.
    """
    F, C = pairwise_form(model)
    z = x1 @ C.T
    z += F
    z = z.reshape(x1.shape[0], model.dim, model.alphabet_size)
    z -= z.max(axis=2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=2, keepdims=True)
    return z


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


def exact_normalize(model: Model, box=None, n: int | None = None):
    """Brute-force normalization: full enumeration (discrete) or quadrature.

    Returns a DiscreteJoint for discrete kinds and a GridDensity for
    continuous 1-D/2-D kinds.
    """
    if model.kind in DISCRETE_KINDS:
        m, d = model.alphabet_size, model.dim
        if m**d > MAX_ENUM_STATES:
            raise ValueError(f"state space {m}**{d} too large to enumerate")
        states = np.indices((m,) * d).reshape(d, -1).T
        logs = log_unnorm(model, states)
        logs = logs - logs.max()
        probs = np.exp(logs)
        probs /= probs.sum()
        return discrete_joint(probs.reshape((m,) * d))
    if model.dim > 2:
        raise ValueError("continuous quadrature supported in 1-D and 2-D only")
    if box is None:
        box = default_box(model)
    if n is None:
        n = 4096 if model.dim == 1 else 256
    if model.dim == 1:
        def fn(xs):
            logs = log_unnorm(model, xs[:, None])
            return np.exp(logs - logs.max())
        return from_function(fn, box, n)

    def fn2(xx, yy):
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        logs = log_unnorm(model, pts)
        return np.exp(logs - logs.max()).reshape(xx.shape)

    if np.isscalar(box[0]):
        box = (box, box)
    return from_function(fn2, box, n)


# ---------------------------------------------------------------------------
# Datasets

@dataclass(frozen=True)
class Dataset:
    """N samples of d-dimensional data; sample order is significant."""

    values: np.ndarray
    kind: str  # "continuous" | "discrete"
    alphabet_size: int | None
    seed: int = 0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def continuous_dataset(values, seed: int = 0) -> Dataset:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] < 1:
        raise ValueError("dataset needs at least one sample")
    return Dataset(values, "continuous", None, seed)


def discrete_dataset(values, m: int, seed: int = 0) -> Dataset:
    values = np.atleast_2d(np.asarray(values))
    sym = values.astype(int)
    if np.any(sym != values) or np.any(sym < 0) or np.any(sym >= m):
        raise ValueError(f"discrete entries must lie in 0..{m - 1}")
    if sym.shape[0] < 1:
        raise ValueError("dataset needs at least one sample")
    return Dataset(sym, "discrete", m, seed)


def sample(model: Model, n: int, seed: int) -> Dataset:
    """Draw n reproducible samples from the exactly normalized model."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind is ModelKind.GAUSSIAN:
        mu, cov = gaussian_parts(model)
        chol = np.linalg.cholesky(cov)
        vals = rng.standard_normal((n, model.dim)) @ chol.T + mu
        return continuous_dataset(vals, seed)
    if model.kind in DISCRETE_KINDS:
        joint = exact_normalize(model)
        flat = rng.choice(joint.probs.size, size=n, p=joint.probs.ravel())
        states = np.column_stack(np.unravel_index(flat, joint.probs.shape))
        return discrete_dataset(states, model.alphabet_size, seed)
    # 1-D inverse CDF on a fine quadrature grid
    grid = exact_normalize(model, n=1 << 16)
    x = grid.axes[0]
    h = grid.spacing[0]
    cdf = np.concatenate([[0.0], np.cumsum((grid.values[1:] + grid.values[:-1]) * h / 2)])
    cdf /= cdf[-1]
    u = rng.random(n)
    vals = np.interp(u, cdf, x)[:, None]
    return continuous_dataset(vals, seed)


# ---------------------------------------------------------------------------
# File formats

def write_text(path, text: str) -> None:
    """Write text to a path, or to an open file-like object with a write method."""
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_dataset_csv(path, data: Dataset) -> None:
    header = ",".join(f"x{i}" for i in range(data.dim))
    lines = [header]
    if data.kind == "discrete":
        for row in data.values:
            lines.append(",".join(str(int(v)) for v in row))
    else:
        for row in data.values:
            lines.append(",".join(f"{v:.17g}" for v in row))
    write_text(path, "\n".join(lines) + "\n")


def read_dataset_csv(path, alphabet_size: int | None = None) -> Dataset:
    """Load a dataset CSV; pass alphabet_size to read symbols, else reals."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols != [f"x{i}" for i in range(len(cols))]:
            raise ValueError(f"bad dataset header: {header!r}")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(cols):
        raise ValueError("row width does not match header")
    if alphabet_size is not None:
        return discrete_dataset(body, alphabet_size, seed=0)
    return continuous_dataset(body, seed=0)


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
    allowed = {"kind", "dim", "alphabet_size", "params", "layout", "edges"}
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown keys in model file: {sorted(extra)}")
    try:
        kind = ModelKind(obj["kind"])
    except ValueError:
        raise ValueError(f"unknown model kind {obj.get('kind')!r}") from None
    if obj.get("layout") != _LAYOUTS[kind]:
        raise ValueError(
            f"layout {obj.get('layout')!r} does not match kind {kind.value!r}"
        )
    d = int(obj["dim"])
    params = np.asarray(obj["params"], dtype=float)
    if kind in CONTINUOUS_KINDS and "edges" in obj:
        raise ValueError(f"{kind.value} models have no edges")
    if kind is ModelKind.GAUSSIAN:
        if params.size != d + d * (d + 1) // 2:
            raise ValueError("bad Gaussian parameter length")
        model = Model(kind, d, None, params)
        gaussian_parts(model)  # validate
        np.linalg.cholesky(gaussian_parts(model)[1])
        return model
    if kind is ModelKind.GEN_GAUSS_1D:
        if d != 1 or params.size != 1 or params[0] <= 0:
            raise ValueError("bad generalized-Gaussian parameters")
        return Model(kind, 1, None, params)
    m = int(obj["alphabet_size"])
    edges = chain_edges(d)
    if "edges" in obj:
        edges = _check_edges(_int_pairs(obj["edges"]), d)
    if kind is ModelKind.ISING:
        if m != 2:
            raise ValueError("Ising alphabet size must be 2")
        if params.size != d + len(edges):
            raise ValueError("bad Ising parameter length")
        return Model(kind, d, 2, params, edges)
    if params.size != d * m + len(edges):
        raise ValueError("bad Potts parameter length")
    return Model(kind, d, m, params, edges)


def _int_pairs(value) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in value
    ):
        raise ValueError("edges must be a list of integer pairs")
    return [tuple(e) for e in value]
