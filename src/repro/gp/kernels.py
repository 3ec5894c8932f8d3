"""The squared-exponential covariance of the paper's Eq. (11).

This module replaces the scikit-learn kernel stack the paper used
(``sklearn 0.18.dev0``).  The paper fits one covariance,

    k(x_p, x_q) = sigma_f^2 * exp(-|x_p - x_q|^2 / (2 l^2)),

with a scalar (isotropic) or per-dimension (ARD) length scale ``l``.  The
third hyperparameter, the noise variance ``sigma_n^2``, is an attribute of
:class:`~repro.gp.gpr.GaussianProcessRegressor`, not a kernel term.

The hyperparameters are exposed in **log space** through the ``theta`` vector,
the convention used for gradient-based marginal-likelihood optimization
(Rasmussen & Williams, Ch. 5), and ``kernel(X, eval_gradient=True)``
returns the analytic gradient of the covariance matrix with respect to it.

Examples
--------
The paper's covariance with bounded amplitude and length scale:

>>> kernel = SquaredExponential(
...     1.0, 1.0, signal_variance_bounds=(1e-3, 1e3), length_scale_bounds=(1e-2, 1e2)
... )
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from .validate import as_2d_array, check_bounds

__all__ = [
    "SquaredExponential",
    "Kernel",
    "se_covariance",
    "se_cross_covariance",
    "kernel_to_dict",
    "kernel_from_dict",
]


class SquaredExponential:
    """``k(x, x') = sigma_f^2 * exp(-|x - x'|^2 / (2 l^2))``, Eq. (11).

    Parameters
    ----------
    signal_variance:
        The amplitude ``sigma_f^2``.
    length_scale:
        Scalar ``l``, or one length scale per input dimension (ARD).
    signal_variance_bounds, length_scale_bounds:
        ``(low, high)`` in natural (not log) space, or ``"fixed"`` to leave
        the hyperparameter out of ``theta`` and of optimization.

    ``theta`` is ``[log sigma_f^2, log l_1, ..., log l_d]`` without the
    fixed entries.  Every float is computed in the order of the former
    amplitude-kernel-times-unit-kernel product, so fitted models, serialized
    payloads and golden digests did not move when the product was folded
    into this one class.
    """

    def __init__(
        self,
        signal_variance: float = 1.0,
        length_scale=1.0,
        *,
        signal_variance_bounds=(1e-5, 1e5),
        length_scale_bounds=(1e-5, 1e5),
    ):
        if signal_variance <= 0:
            raise ValueError("signal_variance must be positive")
        ls = np.array(length_scale, dtype=float, ndmin=1)
        if np.any(ls <= 0):
            raise ValueError("length_scale must be positive")
        self.signal_variance = float(signal_variance)
        self.length_scale = float(ls[0]) if ls.size == 1 else ls
        self.signal_variance_bounds = check_bounds(
            signal_variance_bounds, name="signal_variance"
        )
        self.length_scale_bounds = check_bounds(length_scale_bounds, name="length_scale")

    # --- hyperparameters ------------------------------------------------------------

    def _free(self):
        """``(name, bounds, size)`` of each free hyperparameter, in theta order."""
        if self.signal_variance_bounds != "fixed":
            yield "signal_variance", self.signal_variance_bounds, 1
        if self.length_scale_bounds != "fixed":
            yield "length_scale", self.length_scale_bounds, np.size(self.length_scale)

    @property
    def anisotropic(self) -> bool:
        """Whether a separate length scale is used per input dimension."""
        return np.size(self.length_scale) > 1

    @property
    def n_dims(self) -> int:
        """Number of free (optimizable) hyperparameter entries."""
        return sum(size for _, _, size in self._free())

    @property
    def theta(self) -> np.ndarray:
        """Free hyperparameter values, flattened, in log space."""
        parts = [np.log(np.atleast_1d(getattr(self, n))) for n, _, _ in self._free()]
        return np.concatenate(parts) if parts else np.empty(0)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        """Install log-space hyperparameters, exponentiating each one's slice."""
        value = np.asarray(value, dtype=float)
        if value.shape != (self.n_dims,):
            raise ValueError(f"theta has shape {value.shape}, expected ({self.n_dims},)")
        idx = 0
        for name, _, size in self._free():
            chunk = np.exp(value[idx : idx + size])
            setattr(self, name, float(chunk[0]) if size == 1 else chunk)
            idx += size

    @property
    def bounds(self) -> np.ndarray:
        """Log-space bounds for the free hyperparameters, shape ``(n_dims, 2)``."""
        parts = [np.tile(np.log(b), (size, 1)) for _, b, size in self._free()]
        return np.vstack(parts) if parts else np.empty((0, 2))

    def clone_with_theta(self, theta: np.ndarray) -> "SquaredExponential":
        """A new kernel with ``theta`` installed; ``self`` is left as is."""
        clone = type(self)(
            self.signal_variance,
            self.length_scale,
            signal_variance_bounds=self.signal_variance_bounds,
            length_scale_bounds=self.length_scale_bounds,
        )
        clone.theta = theta
        return clone

    # --- evaluation -------------------------------------------------------------------

    def _checked(self, X, name: str = "X") -> np.ndarray:
        """Validated inputs with as many features as an ARD length scale."""
        X = as_2d_array(X, name=name)
        if self.anisotropic and np.size(self.length_scale) != X.shape[1]:
            raise ValueError(
                f"ARD length_scale has {np.size(self.length_scale)} entries but "
                f"{name} has {X.shape[1]} features"
            )
        return X

    def _scaled(self, X, name: str = "X") -> np.ndarray:
        """Validated inputs divided by the length scale(s)."""
        return self._checked(X, name) / np.atleast_1d(self.length_scale)

    def __call__(self, X, Y=None, eval_gradient: bool = False):
        """Evaluate ``k(X, Y)``.

        Parameters
        ----------
        X : array of shape (n, d)
        Y : array of shape (m, d), optional
            Defaults to ``X``.
        eval_gradient : bool
            If true (requires ``Y is None``) also return the gradient of the
            covariance matrix with respect to ``theta``, a C-contiguous array
            of shape ``(n, n, n_dims)``.
        """
        if eval_gradient and Y is not None:
            raise ValueError("gradient can only be evaluated when Y is None")
        if Y is not None:
            return se_cross_covariance(
                self._scaled(X), self._scaled(Y, name="Y"), self.signal_variance
            )
        return se_covariance(
            self._checked(X),
            self.signal_variance,
            self.length_scale,
            eval_gradient=eval_gradient,
            free_amplitude=self.signal_variance_bounds != "fixed",
            free_length_scale=self.length_scale_bounds != "fixed",
        )

    def diag(self, X) -> np.ndarray:
        """Diagonal of ``k(X, X)``: the amplitude ``sigma_f^2``."""
        X = as_2d_array(X)
        return np.full(X.shape[0], self.signal_variance)

    def gradient_x(self, x: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Gradient of ``k(x, X_i)`` with respect to the query point ``x``.

        Returns an array of shape ``(n, d)`` whose row ``i`` is
        ``d k(x, X_i) / d x``.  Needed by the continuous-domain acquisition
        optimizer (the paper's Section VI: "Gradient-based methods, which are
        available with GPR").
        """
        x = np.asarray(x, dtype=float).ravel()
        X = as_2d_array(X)
        sq = cdist(self._scaled(x[np.newaxis, :]), self._scaled(X), metric="sqeuclidean")
        unit = np.exp(-0.5 * sq)[0]
        lsq = np.atleast_1d(self.length_scale) ** 2
        g = -unit[:, np.newaxis] * (x[np.newaxis, :] - X) / lsq
        # ``+ 0.0`` turns a -0.0 (a query sharing a coordinate with X_i) into
        # +0.0 and leaves every other value alone.  The product rule of the
        # former amplitude-times-unit-kernel product added a ``0 * k`` term,
        # and the recorded gradients carry that sign.
        return self.signal_variance * g + 0.0

    def __repr__(self) -> str:
        if self.anisotropic:
            ls = np.array2string(np.asarray(self.length_scale), precision=3)
        else:
            ls = f"{self.length_scale:.3g}"
        sigma_f = math.sqrt(self.signal_variance)
        return f"SquaredExponential(sigma_f={sigma_f:.3g}, l={ls})"


def se_covariance(
    X: np.ndarray,
    signal_variance: float,
    length_scale,
    *,
    eval_gradient: bool = False,
    free_amplitude: bool = True,
    free_length_scale: bool = True,
):
    """``k(X, X)`` of Eq. (11) on validated inputs, and optionally its gradient.

    The one copy of the formula: :meth:`SquaredExponential.__call__` and the
    fit's marginal-likelihood objective (:mod:`repro.gp.gpr`) both evaluate
    through it, the objective without building a kernel per call.  ``X`` must
    already be a finite 2-D float array with one column per ARD length scale.
    The gradient is taken with respect to the free entries of ``theta``
    (``free_amplitude`` and ``free_length_scale`` say which are free), as a
    C-contiguous array of shape ``(n, n, n_free)``.
    """
    c = signal_variance
    Xs = X / np.atleast_1d(length_scale)
    # The squared distances summed dimension by dimension, in pdist's order:
    # bit for bit what ``squareform(pdist(Xs, "sqeuclidean"))`` gives, without
    # the cost of scipy's wrapper at the small n of an AL fit.
    sq = (Xs[:, np.newaxis, 0] - Xs[np.newaxis, :, 0]) ** 2
    for k in range(1, Xs.shape[1]):
        sq += (Xs[:, np.newaxis, k] - Xs[np.newaxis, :, k]) ** 2
    unit = np.exp(-0.5 * sq)
    K = c * unit
    if not eval_gradient:
        return K
    n, n_ls = Xs.shape[0], np.size(length_scale)
    grad = np.empty((n, n, int(free_amplitude) + (n_ls if free_length_scale else 0)))
    idx = 0
    if free_amplitude:
        grad[:, :, 0] = K  # dK/d(log sigma_f^2) = K
        idx = 1
    if free_length_scale:
        if n_ls == 1:
            # dK/d(log l) = K * |x - x'|^2 / l^2
            grad[:, :, idx] = (unit * sq) * c
        else:
            # dK/d(log l_d) = K * (x_d - x'_d)^2 / l_d^2
            diff = (Xs[:, np.newaxis, :] - Xs[np.newaxis, :, :]) ** 2
            grad[:, :, idx:] = (unit[:, :, np.newaxis] * diff) * c
    return K, grad


def se_cross_covariance(Xs: np.ndarray, Ys: np.ndarray, signal_variance: float):
    """``k(X, Y)`` of Eq. (11) on inputs already divided by the length scale.

    Built in one ``(len(Xs), len(Ys))`` array, each step in place; every
    float is that of ``signal_variance * exp(-0.5 * sqeuclidean)``.
    :meth:`SquaredExponential.__call__` and the exact predictive pass
    (:func:`repro.gp.solvers.predict_exact`, which scales its inputs once
    and builds the cross-covariance block by block) share it.
    """
    K = cdist(Xs, Ys, metric="sqeuclidean")
    K *= -0.5
    np.exp(K, out=K)
    K *= signal_variance
    return K


#: The kernel type, under the name ``perfbench/workloads.py`` traces.
Kernel = SquaredExponential


# --------------------------------------------------------------- serialization
#
# Exact JSON round-trips: every hyperparameter value is stored as a Python
# float (``repr`` round-trips float64 bit-exactly through JSON), bounds as
# ``[low, high]`` or ``"fixed"``.  The spec keeps the layout of the
# amplitude-times-unit-kernel product the kernel was once built from, so
# model registry payloads written before and after it was folded into one
# class read the same.

_SPEC_FORM = "Product(ConstantKernel, RBF)"


def _bounds_to_spec(bounds):
    return "fixed" if bounds == "fixed" else [float(bounds[0]), float(bounds[1])]


def kernel_to_dict(kernel: SquaredExponential) -> dict:
    """Serialize a kernel to a JSON-safe dict.

    :func:`kernel_from_dict` reconstructs a kernel whose ``theta``,
    ``bounds`` and ``__call__`` outputs are bit-identical.
    """
    if not isinstance(kernel, SquaredExponential):
        raise TypeError(f"cannot serialize kernel of type {type(kernel).__name__}")
    length_scale = kernel.length_scale
    return {
        "type": "Product",
        "k1": {
            "type": "ConstantKernel",
            "constant_value": float(kernel.signal_variance),
            "constant_value_bounds": _bounds_to_spec(kernel.signal_variance_bounds),
        },
        "k2": {
            "type": "RBF",
            "length_scale": (
                float(length_scale) if np.ndim(length_scale) == 0
                else np.asarray(length_scale, dtype=float).tolist()
            ),
            "length_scale_bounds": _bounds_to_spec(kernel.length_scale_bounds),
        },
    }


def kernel_from_dict(spec: dict) -> SquaredExponential:
    """Reconstruct a kernel serialized by :func:`kernel_to_dict`.

    Raises ``ValueError`` for any other spec, such as the other kernels and
    kernel sums an older version could write.
    """
    try:
        amplitude, rbf = spec["k1"], spec["k2"]
        supported = (spec["type"], amplitude["type"], rbf["type"]) == (
            "Product", "ConstantKernel", "RBF"
        )
    except (KeyError, TypeError):
        supported = False
    if not supported:
        kind = spec.get("type") if isinstance(spec, dict) else type(spec).__name__
        raise ValueError(
            f"unsupported kernel spec (type {kind!r}): the only kernel is the "
            f"squared exponential, serialized as {_SPEC_FORM}"
        )
    return SquaredExponential(
        amplitude["constant_value"],
        rbf["length_scale"],
        signal_variance_bounds=amplitude["constant_value_bounds"],
        length_scale_bounds=rbf["length_scale_bounds"],
    )
