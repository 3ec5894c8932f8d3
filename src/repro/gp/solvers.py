"""Solver backends for :class:`GaussianProcessRegressor`.

The exact solver factorizes the full ``(n, n)`` noisy kernel matrix
``K_y`` — O(n^3) fit, O(n^2) memory — which caps training sets at a few
thousand points.  Its building blocks live here (:func:`add_noise_diagonal`,
:func:`exact_posterior`, :func:`predict_exact`) so the regressor, LOO-CV
and the error-budget check below share one copy.  This module also
supplies the approximation that unlocks 10^5-point pools:

``nystrom``
    Subset-of-regressors / deterministic-training-conditional (DTC)
    inducing-point approximation.  ``m`` inducing inputs are drawn from
    the training set; the posterior is built from the ``(n, m)``
    cross-covariance in O(n m^2) time and O(m^2) memory.  The predictive
    variance uses the DTC form (prior variance minus the Nystrom
    projection plus the inducing posterior), which — unlike plain SoR —
    does not collapse to zero away from the inducing set, so AL
    acquisition stays meaningful.

``auto``
    Picks the backend by training-set size using the measured crossover
    table below (``benchmarks/bench_solver_crossover.py`` regenerates
    the numbers).

The approximate backend optimizes hyperparameters by exact marginal
likelihood on a deterministic subsample (``opt_subset``), then builds the
approximate posterior on the full data at the optimum.  Every
approximate fit carries an **error budget**: when the training set is
small enough to afford it, the predictive mean/std are compared against
the exact posterior (same hyperparameters) at held-out probe points and
the maximum deviations — in units of the target standard deviation —
are recorded and checked against ``budget_mean`` / ``budget_std``.
:class:`repro.al.guardrails.ModelHealth` turns a blown budget into an
unhealthy verdict, and the model registry persists the budget report in
the version metadata.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .kernels import se_cross_covariance

__all__ = [
    "SolverConfig",
    "ApproxFitState",
    "resolve_solver",
    "SOLVER_NAMES",
    "AUTO_EXACT_MAX",
    "PER_POINT_NOISE_BACKENDS",
    "supports_per_point_noise",
    "row_blocks",
]

_LOG_2PI = math.log(2.0 * math.pi)

#: Backends selectable via ``GaussianProcessRegressor(solver=...)``.
SOLVER_NAMES = ("exact", "nystrom", "auto")

#: Auto-mode crossover: largest n where the exact solver is still the
#: better choice.  Measured by ``benchmarks/bench_solver_crossover.py``
#: (table in benchmarks/README.md): fit wall-time is a tie at 500 points
#: (both ~0.47 s); at n=1000 the exact fit costs ~1.5 s versus ~0.48 s
#: for the subsample-opt + Nystrom build — a 3x premium still worth
#: paying for an approximation-free posterior — but by n=2000 it is
#: ~10 s versus ~0.5 s (20x, growing cubically) while Nystrom's test
#: RMSE matches exact to the third decimal and its budget error stays
#: ~1e-3.
AUTO_EXACT_MAX = 1000


@dataclass(frozen=True)
class SolverConfig:
    """Configuration of the solver layer behind a regressor.

    Attributes
    ----------
    name:
        ``"exact"``, ``"nystrom"``, or ``"auto"`` (pick by training-set
        size at each fit).
    n_inducing:
        Inducing points ``m`` for the Nystrom backend.
    opt_subset:
        The hyperparameter search runs on at most this many training
        rows (exact LML on the subsample); the approximate posterior is
        then built on the full set at the optimum.
    budget_mean / budget_std:
        Declared error budget: maximum allowed deviation of the
        approximate predictive mean / std from the exact posterior at
        the probe points, in units of the target standard deviation.
    budget_probes:
        Number of held-out probe points for the budget check.
    budget_max_exact:
        Skip the (O(n^3)) exact comparison above this training-set size;
        the budget is then recorded as unchecked rather than silently
        passed.
    auto_exact_max:
        ``auto`` uses the exact solver up to this n and Nystrom beyond.
    seed:
        Seed of the solver's private RNG (subsample choice, inducing
        selection, probe points).  Independent of the regressor's
        restart RNG so the exact path draws nothing.
    """

    name: str = "exact"
    n_inducing: int = 256
    opt_subset: int = 512
    budget_mean: float = 0.05
    budget_std: float = 0.10
    budget_probes: int = 128
    budget_max_exact: int = 2048
    auto_exact_max: int = AUTO_EXACT_MAX
    seed: int = 0

    def __post_init__(self):
        if self.name not in SOLVER_NAMES:
            raise ValueError(
                f"unknown solver {self.name!r}; expected one of {SOLVER_NAMES}"
            )
        for attr in ("n_inducing", "opt_subset", "budget_probes"):
            if int(getattr(self, attr)) < 1:
                raise ValueError(f"{attr} must be >= 1")
        if self.budget_mean <= 0 or self.budget_std <= 0:
            raise ValueError("error budgets must be positive")
        if self.budget_max_exact < 0 or self.auto_exact_max < 0:
            raise ValueError("budget_max_exact and auto_exact_max must be >= 0")

    def effective_backend(self, n: int) -> str:
        """Resolve ``auto`` to a concrete backend for an ``n``-point fit."""
        if self.name != "auto":
            return self.name
        return "exact" if n <= self.auto_exact_max else "nystrom"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_inducing": int(self.n_inducing),
            "opt_subset": int(self.opt_subset),
            "budget_mean": float(self.budget_mean),
            "budget_std": float(self.budget_std),
            "budget_probes": int(self.budget_probes),
            "budget_max_exact": int(self.budget_max_exact),
            "auto_exact_max": int(self.auto_exact_max),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SolverConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


def resolve_solver(spec) -> SolverConfig:
    """Coerce a ``solver=`` argument into a :class:`SolverConfig`.

    Accepts ``None`` (exact), a backend name string, a config dict (as
    produced by :meth:`SolverConfig.to_dict`), or a ready config.
    """
    if spec is None:
        return SolverConfig()
    if isinstance(spec, SolverConfig):
        return spec
    if isinstance(spec, str):
        return SolverConfig(name=spec)
    if isinstance(spec, dict):
        return SolverConfig.from_dict(spec)
    raise ValueError(
        f"solver must be a name, dict, or SolverConfig, got {type(spec).__name__}"
    )


# -------------------------------------------------------------- fit state


@dataclass
class ApproxFitState:
    """Posterior cache of one approximate fit.

    ``arrays`` holds the backend-specific factors (for Nystrom, the
    inducing inputs and two small Cholesky factors).  ``X``/``y``
    (normalized targets) are kept in memory so
    :meth:`~repro.gp.gpr.GaussianProcessRegressor.update` can rebuild the
    posterior, but they are **not** serialized — a restored approximate
    model predicts from the compact factors alone.
    """

    backend: str
    arrays: dict
    y_mean: float
    y_std: float
    n_train: int
    training_hash: str
    lml: float
    error_budget: dict = field(default_factory=dict)
    X: np.ndarray | None = None
    y: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "arrays": {k: np.asarray(v).tolist() for k, v in self.arrays.items()},
            "y_mean": float(self.y_mean),
            "y_std": float(self.y_std),
            "n_train": int(self.n_train),
            "training_hash": self.training_hash,
            "lml": float(self.lml),
            "error_budget": dict(self.error_budget),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ApproxFitState":
        return cls(
            backend=str(payload["backend"]),
            arrays={
                k: np.asarray(v, dtype=float)
                for k, v in payload["arrays"].items()
            },
            y_mean=float(payload["y_mean"]),
            y_std=float(payload["y_std"]),
            n_train=int(payload["n_train"]),
            training_hash=str(payload["training_hash"]),
            lml=float(payload["lml"]),
            error_budget=dict(payload.get("error_budget") or {}),
        )

    def clone(self) -> "ApproxFitState":
        return replace(
            self,
            arrays={k: np.array(v, copy=True) for k, v in self.arrays.items()},
            error_budget=dict(self.error_budget),
            X=None if self.X is None else self.X.copy(),
            y=None if self.y is None else self.y.copy(),
        )


def training_hash(X: np.ndarray, y_norm: np.ndarray, y_mean: float, y_std: float) -> str:
    """SHA-256 fingerprint of a training set (shared exact/approx format)."""
    h = hashlib.sha256()
    h.update(np.int64(X.shape[0]).tobytes())
    h.update(np.int64(X.shape[1]).tobytes())
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y_norm, dtype=np.float64).tobytes())
    h.update(np.float64(y_mean).tobytes())
    h.update(np.float64(y_std).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- exact


def add_noise_diagonal(K, noise_variance, jitter, alpha=None):
    """Turn a kernel matrix into ``K_y`` in place and return it.

    Adds ``sigma_n^2 + jitter`` to the diagonal, then the per-point noise
    variances ``alpha`` (in the units of the targets ``K_y`` is paired
    with) when given.  A 1-D ``K`` is taken to be the diagonal itself.
    """
    diag = np.einsum("ii->i", K) if K.ndim == 2 else K  # writable view
    diag += noise_variance + jitter
    if alpha is not None:
        diag += alpha
    return K


def exact_posterior(kernel, noise_variance, jitter, X, y_norm, alpha=None):
    """Lower Cholesky factor ``L`` of ``K_y`` and the weights ``K_y^{-1} y``."""
    K = add_noise_diagonal(kernel(X), noise_variance, jitter, alpha)
    L = cholesky(K, lower=True, check_finite=False)
    return L, cho_solve((L, True), y_norm, check_finite=False)


#: Query rows per block of the exact predictive pass; bounds its transient
#: ``(rows, n)`` cross-covariance.
_PREDICT_ROWS = 2048


def row_blocks(q: int, rows: int = _PREDICT_ROWS):
    """``(start, stop)`` of each block of at most ``rows`` of ``q`` query rows.

    A one-row tail joins the block before it: ``solve_triangular`` with one
    right-hand side takes another BLAS path, whose SD is not bitwise that
    of the same row solved among others.
    """
    stops = list(range(rows, q, rows)) + [q]
    if len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]
    return zip([0] + stops[:-1], stops)


def predict_exact(kernel, X, L, weights, Xq, want=None):
    """Exact latent predictive mean (and variance/covariance), normalized units.

    ``want`` follows :func:`predict_backend`; the caller applies the same
    clamping, noise term and un-normalization to every backend.

    The mean and variance are computed in blocks of ``_PREDICT_ROWS`` query
    rows, so the pass holds one ``(rows, n)`` cross-covariance at a time,
    built and solved in place: its transient memory does not grow with the
    number of queries.  Each block does the floats of the one-shot pass in
    the same order.  The variance is bitwise the one-shot variance under
    any BLAS threading.  The mean is too under single-threaded BLAS; with
    several BLAS threads a block's matrix-vector product can differ in the
    last bit, as the one-shot product already does between thread counts.
    ``want="cov"`` builds the full ``(q, q)`` covariance in one shot.
    """
    if want == "cov":
        K_star = kernel(Xq, X)  # (q, n)
        # v = L^{-1} k_*
        v = solve_triangular(L, K_star.T, lower=True, check_finite=False)
        return K_star @ weights, kernel(Xq) - v.T @ v
    Xqs, Xs = kernel._scaled(Xq), kernel._scaled(X, name="Y")
    mean = np.empty(Xqs.shape[0])
    var = None if want is None else kernel.diag(Xq)
    for a, b in row_blocks(Xqs.shape[0]):
        K_star = se_cross_covariance(Xqs[a:b], Xs, kernel.signal_variance)
        np.matmul(K_star, weights, out=mean[a:b])
        if var is not None:
            # v = L^{-1} k_*, solved into the block's own storage
            v = solve_triangular(
                L, K_star.T, lower=True, overwrite_b=True, check_finite=False
            )
            v *= v
            var[a:b] -= np.sum(v, axis=0)
    return mean, var


# -------------------------------------------------------------- Nystrom


_CHUNK_ROWS = 8192  # bounds the transient (chunk, m) cross-covariance


def _chol_relative(M: np.ndarray, base: float) -> np.ndarray:
    """Lower Cholesky of a PSD matrix with escalating *relative* jitter.

    The regularizer scales with the matrix's own diagonal magnitude —
    an absolute nudge is pure roundoff once the matrix carries a
    ``sigma_n^-2`` or ``y_std^2`` factor — and escalates 10x per retry
    over six attempts before giving up.
    """
    scale = max(float(np.mean(np.diag(M))), np.finfo(float).tiny)
    jitter = max(base, 1e-12) * scale
    eye = np.eye(M.shape[0])
    for attempt in range(6):
        try:
            return cholesky(M + jitter * eye, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            if attempt == 5:
                raise
            jitter *= 10.0
    raise AssertionError("unreachable")


def _fit_nystrom(kernel, noise_variance, jitter, X, y_norm, cfg, rng) -> dict:
    n = X.shape[0]
    m = min(int(cfg.n_inducing), n)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    Z = X[idx].copy()

    # Relative jitter on the small factors: K_mm has no noise term, and
    # duplicate training rows (repeated measurements) make it exactly
    # singular without it.
    K_mm = kernel(Z)
    Lm = _chol_relative(K_mm, max(jitter, 1e-10))
    sn2 = noise_variance + jitter

    # Accumulate C = K_mm + sigma^-2 K_mn K_nm and b = K_mn y in row
    # chunks so the (n, m) cross-covariance never materializes at once.
    C = np.array(K_mm, copy=True)
    b = np.zeros(m)
    for start in range(0, n, _CHUNK_ROWS):
        K_cm = kernel(X[start : start + _CHUNK_ROWS], Z)  # (c, m)
        C += (K_cm.T @ K_cm) / sn2
        b += K_cm.T @ y_norm[start : start + _CHUNK_ROWS]
    Lc = _chol_relative(C, max(jitter, 1e-10))
    w = cho_solve((Lc, True), b, check_finite=False) / sn2

    # DTC marginal likelihood: y ~ N(0, Q_nn + sigma^2 I) with
    # Q = K_nm K_mm^-1 K_mn, via Woodbury + the determinant lemma.
    quad = (float(y_norm @ y_norm) - float(b @ cho_solve((Lc, True), b)) / sn2) / sn2
    logdet = (
        2.0 * float(np.sum(np.log(np.diag(Lc))))
        - 2.0 * float(np.sum(np.log(np.diag(Lm))))
        + n * math.log(sn2)
    )
    lml = -0.5 * (quad + logdet + n * _LOG_2PI)
    return {"Z": Z, "Lm": Lm, "Lc": Lc, "w": w, "lml": np.array([lml])}


def _predict_nystrom(arrays, kernel, noise_variance, jitter, Xq, want):
    """Nystrom latent predictive mean (and variance/covariance), normalized units.

    Like :func:`predict_exact`, the mean and variance are computed in blocks
    of ``_PREDICT_ROWS`` query rows, one ``(rows, m)`` cross-covariance at a
    time, with the floats of the one-shot pass in the same order: the
    variance is bitwise the one-shot variance, and so is the mean under
    single-threaded BLAS.  ``want="cov"`` builds the full ``(q, q)``
    covariance in one shot.
    """
    Z, Lm, Lc, w = arrays["Z"], arrays["Lm"], arrays["Lc"], arrays["w"]
    if want == "cov":
        K_sm = kernel(Xq, Z)  # (q, m)
        v1 = solve_triangular(Lm, K_sm.T, lower=True, check_finite=False)
        v2 = solve_triangular(Lc, K_sm.T, lower=True, check_finite=False)
        return K_sm @ w, kernel(Xq) - v1.T @ v1 + v2.T @ v2
    mean = np.empty(Xq.shape[0])
    var = None if want is None else kernel.diag(Xq)
    for a, b in row_blocks(Xq.shape[0]):
        K_sm = kernel(Xq[a:b], Z)  # (rows, m)
        np.matmul(K_sm, w, out=mean[a:b])
        if var is not None:
            v1 = solve_triangular(Lm, K_sm.T, lower=True, check_finite=False)
            # v2 is solved into the block's own storage, K_sm is not read again
            v2 = solve_triangular(
                Lc, K_sm.T, lower=True, overwrite_b=True, check_finite=False
            )
            v1 *= v1
            v2 *= v2
            var[a:b] -= np.sum(v1, axis=0)
            var[a:b] += np.sum(v2, axis=0)
    return mean, var


# ------------------------------------------------------------- dispatch


_BACKENDS = {"nystrom": (_fit_nystrom, _predict_nystrom)}

#: Backends whose posterior factorization can carry a per-point noise
#: variance vector (heteroscedastic ``fit(alpha=...)``).  The low-rank
#: Nystrom backend builds ``K_y`` implicitly through inducing points and
#: has no per-row diagonal to attach ``alpha`` to, so it declares it
#: unsupported; ``GaussianProcessRegressor.fit`` falls back to
#: the exact solver (with a warning) when ``alpha`` is given.
PER_POINT_NOISE_BACKENDS = frozenset({"exact"})


def supports_per_point_noise(backend: str) -> bool:
    """Whether ``backend`` can fit with a per-point noise vector."""
    return backend in PER_POINT_NOISE_BACKENDS


def fit_backend(
    backend: str, kernel, noise_variance, jitter, X, y_norm, cfg, rng
) -> dict:
    """Build the posterior factors of one approximate backend."""
    try:
        fit, _ = _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown approximate backend {backend!r}") from None
    return fit(kernel, noise_variance, jitter, X, y_norm, cfg, rng)


def predict_backend(
    state: ApproxFitState, kernel, noise_variance, jitter, Xq, want=None
):
    """Latent predictive mean (and variance/covariance) in normalized units.

    ``want`` is ``None`` (mean only), ``"var"`` (diagonal) or ``"cov"``.
    The caller applies variance clamping, the noise term, and target
    un-normalization — the same post-processing as the exact path.
    """
    _, predict = _BACKENDS[state.backend]
    return predict(state.arrays, kernel, noise_variance, jitter, Xq, want)


# --------------------------------------------------------- error budget


def check_error_budget(
    state: ApproxFitState,
    kernel,
    noise_variance: float,
    jitter: float,
    X: np.ndarray,
    y_norm: np.ndarray,
    cfg: SolverConfig,
    rng,
) -> dict:
    """Compare the approximate posterior against the exact one at probes.

    Returns the budget record stored in ``state.error_budget`` (and, via
    the registry, in version metadata)::

        {"checked": bool, "n_probes": int,
         "max_mean_err": float, "max_std_err": float,
         "budget_mean": float, "budget_std": float,
         "within_budget": bool | None}

    Deviations are measured on the *latent* predictive mean and std, in
    normalized-target units (i.e. fractions of the target standard
    deviation).  Above ``cfg.budget_max_exact`` training points the exact
    posterior is unaffordable and the record says ``checked: False``
    with ``within_budget: None`` — an unchecked budget is never reported
    as passed.
    """
    n = X.shape[0]
    record = {
        "checked": False,
        "n_probes": 0,
        "max_mean_err": None,
        "max_std_err": None,
        "budget_mean": float(cfg.budget_mean),
        "budget_std": float(cfg.budget_std),
        "within_budget": None,
    }
    if n > cfg.budget_max_exact:
        return record

    lo, hi = X.min(axis=0), X.max(axis=0)
    probes = rng.uniform(lo, hi, size=(int(cfg.budget_probes), X.shape[1]))

    L, weights = exact_posterior(kernel, noise_variance, jitter, X, y_norm)
    mean_exact, var_exact = predict_exact(kernel, X, L, weights, probes, want="var")
    var_exact = np.maximum(var_exact, 0.0)

    mean_ap, var_ap = predict_backend(
        state, kernel, noise_variance, jitter, probes, want="var"
    )
    var_ap = np.maximum(var_ap, 0.0)

    mean_err = float(np.max(np.abs(mean_ap - mean_exact)))
    std_err = float(np.max(np.abs(np.sqrt(var_ap) - np.sqrt(var_exact))))
    record.update(
        checked=True,
        n_probes=int(probes.shape[0]),
        max_mean_err=mean_err,
        max_std_err=std_err,
        within_budget=bool(
            mean_err <= cfg.budget_mean and std_err <= cfg.budget_std
        ),
    )
    return record
