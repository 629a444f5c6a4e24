"""Dense whitened linear algebra: Jacobian factors, Gaussian conditionals,
partial elimination via Householder QR, and back-substitution.

Conventions used throughout:
  * factors are pre-whitened, error(x) = 0.5 * ||sum_i A_i x_i - b||^2
  * conditionals store ||R x + S p - d||^2 with R upper-triangular, R_ii > 0
  * log_normalizer = log sqrt(|2 pi Sigma|) with Sigma = (R^T R)^{-1},
    i.e. (n/2) log(2 pi) - sum_i log R_ii
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

# Relative diagonal magnitude below which elimination declares rank deficiency.
RANK_TOL = 1e-12

VectorValues = Dict[Any, np.ndarray]


def _as_matrix(a) -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=float))
    return m


def _as_vector(a) -> np.ndarray:
    v = np.atleast_1d(np.asarray(a, dtype=float)).reshape(-1)
    return v


class JacobianFactor:
    """Whitened linear factor 0.5 * ||sum_i A_i x_i - b||^2.

    A factor with no blocks is a pure residual (constant error 0.5*||b||^2),
    which elimination produces at the continuous-discrete boundary.
    """

    __slots__ = ("blocks", "rhs")

    def __init__(self, blocks: Mapping[Any, Any], rhs):
        rhs = _as_vector(rhs)
        mats = {}
        for vid, A in blocks.items():
            A = _as_matrix(A)
            if A.shape[0] != rhs.shape[0]:
                raise ValueError(f"block {vid!r} has {A.shape[0]} rows, "
                                 f"rhs has {rhs.shape[0]}")
            if not np.all(np.isfinite(A)):
                raise ValueError(f"block {vid!r} has non-finite entries")
            mats[vid] = A
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs has non-finite entries")
        object.__setattr__(self, "blocks", mats)
        object.__setattr__(self, "rhs", rhs)

    def __setattr__(self, name, value):
        raise AttributeError("JacobianFactor is immutable")

    @property
    def variables(self) -> Tuple[Any, ...]:
        return tuple(sorted(self.blocks.keys()))

    @property
    def rows(self) -> int:
        return int(self.rhs.shape[0])

    def dim(self, vid) -> int:
        return int(self.blocks[vid].shape[1])

    def unwhitened_residual(self, x: VectorValues) -> np.ndarray:
        r = -self.rhs
        for vid, A in self.blocks.items():
            if vid not in x:
                raise ValueError(f"incomplete values: missing {vid!r}")
            r = r + A @ _as_vector(x[vid])
        return r

    def error(self, x: VectorValues) -> float:
        r = self.unwhitened_residual(x)
        return 0.5 * float(r @ r)

    def __repr__(self):
        return f"JacobianFactor(vars={list(self.variables)}, rows={self.rows})"


class GaussianConditional:
    """p(x | parents) = exp(-0.5 ||R x + sum_i S_i p_i - d||^2 - log_normalizer)."""

    __slots__ = ("frontal", "R", "parent_blocks", "d", "log_normalizer")

    def __init__(self, frontal, R, parent_blocks: Mapping[Any, Any], d):
        R = _as_matrix(R).copy()
        d = _as_vector(d).copy()
        n = R.shape[0]
        if R.shape != (n, n) or d.shape != (n,):
            raise ValueError("R must be square and match d")
        if np.any(np.abs(np.diag(R)) <= 1e-12):
            raise ValueError("R is singular (|R_ii| <= 1e-12)")
        parents = {vid: _as_matrix(S).copy() for vid, S in parent_blocks.items()}
        # Canonical sign: flip rows so the diagonal is positive.
        flip = np.where(np.diag(R) < 0, -1.0, 1.0)
        R *= flip[:, None]
        d *= flip
        for S in parents.values():
            if S.shape[0] != n:
                raise ValueError("parent block row count must match R")
            S *= flip[:, None]
        log_norm = 0.5 * n * math.log(2.0 * math.pi) - float(np.sum(np.log(np.diag(R))))
        object.__setattr__(self, "frontal", frontal)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "parent_blocks", parents)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "log_normalizer", log_norm)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianConditional is immutable")

    @property
    def parents(self) -> Tuple[Any, ...]:
        return tuple(sorted(self.parent_blocks.keys()))

    @property
    def dim(self) -> int:
        return int(self.R.shape[0])

    def solve(self, values: VectorValues) -> np.ndarray:
        """Mean of the frontal variable: R^{-1} (d - sum_i S_i p_i)."""
        rhs = self.d.copy()
        for vid, S in self.parent_blocks.items():
            if vid not in values:
                raise ValueError(f"incomplete values: missing {vid!r}")
            rhs = rhs - S @ _as_vector(values[vid])
        return np.linalg.solve(self.R, rhs)

    def log_density(self, values: VectorValues) -> float:
        if self.frontal not in values:
            raise ValueError(f"incomplete values: missing {self.frontal!r}")
        r = self.R @ _as_vector(values[self.frontal]) - self.d
        for vid, S in self.parent_blocks.items():
            if vid not in values:
                raise ValueError(f"incomplete values: missing {vid!r}")
            r = r + S @ _as_vector(values[vid])
        return -0.5 * float(r @ r) - self.log_normalizer

    def density(self, values: VectorValues) -> float:
        return math.exp(self.log_density(values))

    def covariance(self) -> np.ndarray:
        Rinv = np.linalg.inv(self.R)
        return Rinv @ Rinv.T

    def sample(self, values: VectorValues, rng: np.random.Generator) -> np.ndarray:
        mean = self.solve(values)
        eps = rng.standard_normal(self.dim)
        return mean + np.linalg.solve(self.R, eps)

    def as_factor(self) -> JacobianFactor:
        blocks = {self.frontal: self.R}
        blocks.update(self.parent_blocks)
        return JacobianFactor(blocks, self.d)

    def __repr__(self):
        return f"GaussianConditional(p({self.frontal!r} | {list(self.parents)}))"


def sigma_cholesky(sigma, dim: int = None) -> np.ndarray:
    """Lower Cholesky factor of a covariance given as scalar variance,
    diagonal of variances, or a full SPD matrix."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim == 0:
        if dim is None:
            dim = 1
        s = np.eye(dim) * float(s)
    elif s.ndim == 1:
        s = np.diag(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("invalid noise model: covariance must be square")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ValueError("invalid noise model: covariance must be symmetric")
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise ValueError("invalid noise model: covariance not positive definite") from None


def log_normalization_constant(sigma, dim: int = None) -> float:
    """log sqrt(|2 pi Sigma|), the per-mode constant carried beside factors."""
    return NoiseModel(sigma, dim).log_normalizer


class NoiseModel:
    """Gaussian noise on `dim`-vectors (None: sigma's size), checked and
    factored once into Sigma = L L^T.  `sigma` is a read-only copy, so L
    cannot go stale; whitening solves against L, as an inverse would change
    the last bits."""

    __slots__ = ("sigma", "L", "log_normalizer")

    def __init__(self, sigma, dim: int = None):
        s = np.array(sigma, dtype=float)
        s.flags.writeable = False
        L = sigma_cholesky(s, dim)
        n = L.shape[0]
        if dim is not None and n != dim:
            raise ValueError(f"invalid noise model: {n}x{n} covariance for a "
                             f"residual of dimension {dim}")
        L.flags.writeable = False
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "log_normalizer", 0.5 * n * math.log(2.0 * math.pi)
                           + float(np.sum(np.log(np.diag(L)))))

    def __setattr__(self, name, value):
        raise AttributeError("NoiseModel is immutable")

    def _solve(self, M: np.ndarray) -> np.ndarray:
        if M.shape[0] != self.L.shape[0]:
            raise ValueError("invalid noise model: size mismatch with measurement")
        return np.linalg.solve(self.L, M)

    def error(self, r) -> float:
        """0.5 ||r||^2_Sigma."""
        w = self._solve(_as_vector(r))
        return 0.5 * float(w @ w)

    def whiten(self, blocks: Mapping[Any, Any], z) -> JacobianFactor:
        """A = L^{-1} H, b = L^{-1} z, so 0.5||Ax-b||^2 = 0.5||Hx-z||^2_Sigma.
        One solve for all blocks; z gets its own, as LAPACK solves a lone
        column by another kernel and stacking would change its last bits."""
        mats = {vid: _as_matrix(H) for vid, H in blocks.items()}
        wb = {}
        if mats:
            W = self._solve(np.hstack(list(mats.values())))
            c = 0
            for vid, H in mats.items():
                wb[vid] = W[:, c:c + H.shape[1]]
                c += H.shape[1]
        return JacobianFactor(wb, self._solve(_as_vector(z)))


def whiten(blocks: Mapping[Any, Any], z, sigma) -> JacobianFactor:
    """Whiten H x = z with noise covariance Sigma (see NoiseModel.whiten)."""
    z = _as_vector(z)
    return NoiseModel(sigma, z.shape[0]).whiten(blocks, z)


def _stack(factors: Sequence[JacobianFactor], order: Sequence[Any],
           dims: Mapping[Any, int]) -> np.ndarray:
    """Stack factors into [A | b] with columns laid out per `order`."""
    offsets = {}
    ncols = 0
    for vid in order:
        offsets[vid] = ncols
        ncols += dims[vid]
    rows = sum(f.rows for f in factors)
    M = np.zeros((rows, ncols + 1))
    r = 0
    for f in factors:
        for vid, A in f.blocks.items():
            c = offsets[vid]
            M[r:r + f.rows, c:c + A.shape[1]] = A
        M[r:r + f.rows, -1] = f.rhs
        r += f.rows
    return M


class UnderconstrainedVariable(ValueError):
    pass


def eliminate_one(factors: Sequence[JacobianFactor], var
                  ) -> Tuple[GaussianConditional, JacobianFactor]:
    """Eliminate `var` from the stacked factors.

    Returns the conditional p(var | separator) and the marginal factor on the
    separator.  The marginal keeps any pure-residual row, so the identity
    0.5||stacked||^2 = 0.5||R x + S p - d||^2 + marginal error holds exactly.
    """
    factors = list(factors)
    dims: Dict[Any, int] = {}
    for f in factors:
        for vid in f.blocks:
            d = f.dim(vid)
            if dims.setdefault(vid, d) != d:
                raise ValueError(f"inconsistent dimension for {vid!r}")
    if var not in dims:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "appears in no factor")
    d_var = dims[var]
    separator = sorted(v for v in dims if v != var)
    order = [var] + separator
    M = _stack(factors, order, dims)
    m, ncols1 = M.shape
    if m < d_var:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       f"has {m} rows, needs {d_var}")
    Rfull = np.linalg.qr(M, mode="r")
    scale = max(float(np.max(np.abs(Rfull))), 1.0)
    diag = np.abs(np.diag(Rfull)[:d_var])
    if np.any(diag <= RANK_TOL * scale):
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "is rank deficient")
    # Conditional rows.
    R = Rfull[:d_var, :d_var]
    dvec = Rfull[:d_var, -1]
    parent_blocks = {}
    c = d_var
    for vid in separator:
        parent_blocks[vid] = Rfull[:d_var, c:c + dims[vid]]
        c += dims[vid]
    conditional = GaussianConditional(var, R, parent_blocks, dvec)
    # Marginal rows (may include a pure residual row).
    T = Rfull[d_var:, :].copy()
    # Canonical row signs: first significant entry nonnegative.  A row with
    # no significant entry gets first = 0, whose entry is never < -tol.
    tol = RANK_TOL * scale
    first = np.argmax(np.abs(T) > tol, axis=1)
    T[T[np.arange(T.shape[0]), first] < -tol] *= -1.0
    mb = {}
    c = d_var
    for vid in separator:
        mb[vid] = T[:, c:c + dims[vid]]
        c += dims[vid]
    marginal = JacobianFactor(mb, T[:, -1])
    return conditional, marginal


def back_substitute(conditionals: Sequence[GaussianConditional]) -> VectorValues:
    """Solve the triangular system defined by conditionals in elimination
    order (parents always eliminated later)."""
    values: VectorValues = {}
    for cond in reversed(list(conditionals)):
        values[cond.frontal] = cond.solve(values)
    return values
