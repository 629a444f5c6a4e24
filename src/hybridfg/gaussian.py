"""Dense whitened linear algebra: Jacobian factors, Gaussian conditionals,
partial elimination via Householder QR (one batched QR for all the stacked
systems of one layout), and back-substitution.

Conventions used throughout:
  * factors are pre-whitened, error(x) = 0.5 * ||sum_i A_i x_i - b||^2
  * conditionals store ||R x + S p - d||^2 with R upper-triangular, R_ii > 0
  * log_normalizer = log sqrt(|2 pi Sigma|) with Sigma = (R^T R)^{-1},
    i.e. (n/2) log(2 pi) - sum_i log R_ii
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# Relative diagonal magnitude below which elimination declares rank deficiency.
RANK_TOL = 1e-12

VectorValues = Dict[Any, np.ndarray]


def _as_matrix(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=float))


def _as_vector(a) -> np.ndarray:
    return np.atleast_1d(np.asarray(a, dtype=float)).reshape(-1)


class JacobianFactor:
    """Whitened linear factor 0.5 * ||sum_i A_i x_i - b||^2.

    A factor with no blocks is a pure residual (constant error 0.5*||b||^2),
    which elimination produces at the continuous-discrete boundary.
    """

    __slots__ = ("blocks", "rhs", "variables")

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
        self._init(mats, rhs, tuple(sorted(mats)))

    @classmethod
    def _own(cls, blocks: Dict[Any, np.ndarray], rhs: np.ndarray,
             variables: Tuple[Any, ...]) -> "JacobianFactor":
        """A factor over float arrays the caller has just computed and
        checked (see eliminate_stacked): no copy, no re-check."""
        f = object.__new__(cls)
        f._init(blocks, rhs, variables)
        return f

    def _init(self, blocks, rhs, variables):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "variables", variables)

    def __setattr__(self, name, value):
        raise AttributeError("JacobianFactor is immutable")

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
    """p(x | parents) = exp(-0.5 ||R x + S p - d||^2 - log_normalizer),
    S every parent column as one block, p their values in that order.

    A view of `_rows[_at]`, rows [R S | d] of an eliminate_stacked batch
    (the constructor's is a batch of one: it keeps an upper-triangular R
    up to row signs and triangularizes any other); R, d and parent_blocks
    are views of them, the blocks at the column ranges `_cols`."""

    __slots__ = ("frontal", "parents", "log_normalizer", "_rows", "_at", "_cols")

    def __init__(self, frontal, R, parent_blocks: Mapping[Any, Any], d):
        R, d = _as_matrix(R), _as_vector(d)
        n = R.shape[0]
        if R.shape != (n, n) or d.shape != (n,):
            raise ValueError("R must be square and match d")
        if frontal in parent_blocks:
            raise ValueError(f"{frontal!r} cannot be its own parent")
        blocks = [_as_matrix(S) for S in parent_blocks.values()]
        if any(S.shape[0] != n for S in blocks):
            raise ValueError("parent block row count must match R")
        dims = {vid: S.shape[1] for vid, S in zip(parent_blocks, blocks)}
        cols = _layout(frontal, tuple(parent_blocks), {**dims, frontal: n})[0]
        out = eliminate_stacked(np.hstack([R] + blocks + [d[:, None]])[None], n, [frontal])
        if not out.live[0]:
            raise ValueError("R is singular")
        self._init(frontal, out.rows, 0, cols, out.log_norms[0], tuple(sorted(parent_blocks)))

    @classmethod
    def _own(cls, frontal, rows: np.ndarray, at: int,
             cols: Tuple[Tuple[Any, int, int], ...], log_normalizer: float,
             parents: Tuple[Any, ...]) -> "GaussianConditional":
        """A view of rows[at], which the caller has just computed in
        canonical form (see eliminate_stacked): no copy, no re-check."""
        c = object.__new__(cls)
        c._init(frontal, rows, at, cols, log_normalizer, parents)
        return c

    def _init(self, frontal, rows, at, cols, log_normalizer, parents):
        object.__setattr__(self, "frontal", frontal)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "log_normalizer", log_normalizer)
        object.__setattr__(self, "parents", parents)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianConditional is immutable")

    @property
    def dim(self) -> int:
        return int(self._rows.shape[1])

    @property
    def R(self) -> np.ndarray:
        return self._rows[self._at, :, :self._rows.shape[1]]

    @property
    def d(self) -> np.ndarray:
        return self._rows[self._at, :, -1]

    @property
    def parent_blocks(self) -> Dict[Any, np.ndarray]:
        return {vid: self._rows[self._at, :, a:b] for vid, a, b in self._cols}

    def _rhs(self, values: VectorValues) -> np.ndarray:
        """d - S p at the parents' values: S every parent column as one
        block, p the values joined in column order (`_cols`), as
        back_substitute forms it for a whole group."""
        rows, p = self._rows[self._at], []
        for vid, a, b in self._cols:
            if vid not in values:
                raise ValueError(f"incomplete values: missing {vid!r}")
            # reshape raises on a value of the wrong size
            p.append(np.asarray(values[vid], dtype=float).reshape(b - a))
        if not p:
            return rows[:, -1]
        return rows[:, -1] - rows[:, rows.shape[0]:-1] @ np.concatenate(p)

    def solve(self, values: VectorValues) -> np.ndarray:
        """Mean of the frontal variable: R^{-1} (d - S p)."""
        return np.linalg.solve(self.R, self._rhs(values))

    def log_density(self, values: VectorValues) -> float:
        if self.frontal not in values:
            raise ValueError(f"incomplete values: missing {self.frontal!r}")
        r = self.R @ _as_vector(values[self.frontal]) - self._rhs(values)
        return -0.5 * float(r @ r) - self.log_normalizer

    def density(self, values: VectorValues) -> float:
        return math.exp(self.log_density(values))

    def covariance(self) -> np.ndarray:
        Rinv = np.linalg.inv(self.R)
        return Rinv @ Rinv.T

    def sample(self, values: VectorValues, rng: np.random.Generator) -> np.ndarray:
        """A draw x = R^{-1} (d - S p + eps), eps standard normal:
        the mean plus noise of covariance (R^T R)^{-1}, in one solve."""
        rhs = self._rhs(values)
        return np.linalg.solve(self.R, rhs + rng.standard_normal(self.dim))

    def as_factor(self) -> JacobianFactor:
        blocks = {self.frontal: self.R}
        blocks.update(self.parent_blocks)
        return JacobianFactor(blocks, self.d)

    def __repr__(self):
        return f"GaussianConditional(p({self.frontal!r} | {list(self.parents)}))"


def sigma_cholesky(sigma, dim: int = None) -> np.ndarray:
    """Lower Cholesky factor of a covariance given as scalar variance,
    diagonal of variances, or a full SPD matrix.

    A scalar or 1-D covariance is factored as the diagonal of its square
    roots, bit-identical to LAPACK's Cholesky of the dense diagonal matrix
    (no symmetry test, no factorization); a 2-D one is tested for symmetry
    and factored by LAPACK."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim == 0:
        s = np.full(1 if dim is None else dim, s)
    if not np.isfinite(s).all():
        raise ValueError("invalid noise model: covariance must be finite")
    if s.ndim == 1:
        if not (s > 0.0).all():
            raise ValueError("invalid noise model: covariance not positive definite")
        return np.diag(np.sqrt(s))
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
    factored once into Sigma = L L^T by sigma_cholesky: a scalar or 1-D
    covariance as the diagonal of its square roots, a 2-D one by LAPACK's
    Cholesky.  `sigma` is a read-only copy, so L cannot go stale."""

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

    def check_rows(self, rows: int):
        if rows != self.L.shape[0]:
            raise ValueError("invalid noise model: size mismatch with measurement")


def whiten_stacked(L: np.ndarray, H: Optional[np.ndarray], z: np.ndarray
                   ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Whiten k systems H_n x = z_n against their noise factors L_n
    (k, d, d): returns L^{-1} H (k, d, c), or None without H, and L^{-1} z
    (k, d).  One batched solve for the blocks and one for the right-hand
    sides, as LAPACK solves a lone column by another kernel: system n gets
    the bits of solving it alone.  Sigma = L L^T is solved against, not
    inverted, as an inverse would change the last bits."""
    W = None if H is None else np.linalg.solve(L, H)
    return W, np.linalg.solve(L, z[:, :, None])[:, :, 0]


def whiten(blocks: Mapping[Any, Any], z, sigma) -> JacobianFactor:
    """Whiten H x = z with noise covariance Sigma = L L^T: A = L^{-1} H,
    b = L^{-1} z, so 0.5||Ax-b||^2 = 0.5||Hx-z||^2_Sigma; whiten_stacked
    on one system.  L comes from NoiseModel (for a scalar or 1-D Sigma the
    diagonal of square roots), and the whitened arrays are checked for
    finiteness once."""
    z = _as_vector(z)
    noise = NoiseModel(sigma, z.shape[0])
    mats = {vid: _as_matrix(H) for vid, H in blocks.items()}
    for M in mats.values():
        noise.check_rows(M.shape[0])
    H = np.hstack(list(mats.values()))[None] if mats else None
    W, w = whiten_stacked(noise.L[None], H, z[None])
    wb = {}
    c = 0
    for vid, M in mats.items():
        wb[vid] = W[0, :, c:c + M.shape[1]]
        c += M.shape[1]
    if (W is None or np.isfinite(W).all()) and np.isfinite(w).all():
        return JacobianFactor._own(wb, w[0], tuple(sorted(wb)))
    return JacobianFactor(wb, w[0])     # names the non-finite block


def _dims(factors: Sequence[JacobianFactor]) -> Dict[Any, int]:
    """Column dimension of every variable, which all factors must agree on."""
    dims: Dict[Any, int] = {}
    for f in factors:
        for vid, A in f.blocks.items():
            if dims.setdefault(vid, A.shape[1]) != A.shape[1]:
                raise ValueError(f"inconsistent dimension for {vid!r}")
    return dims


def _put(M: np.ndarray, r: int, blocks, rhs: np.ndarray,
         offsets: Mapping[Any, int]) -> int:
    """Write rows [A | b] into M[..., r:, :]: each (vid, A) of `blocks` at
    the columns from offsets[vid], b last; returns the next row.  Into k
    systems (k, m, n+1), arrays of one system's shape go into each, stacked
    (k, ...) ones system by system."""
    e = r + rhs.shape[-1]
    for vid, A in blocks:
        M[..., r:e, offsets[vid]:offsets[vid] + A.shape[-1]] = A
    M[..., r:e, -1] = rhs
    return e


class UnderconstrainedVariable(ValueError):
    pass


def _layout(var, separator: Sequence[Any], dims: Mapping[Any, int]):
    """The columns of a system [A | b] eliminating `var` onto the separator
    (`var`'s, the separator's in order, b): the separator's column ranges
    (vid, a, b), every variable's first column, the number of columns."""
    cols, offsets, c = [], {var: 0}, dims[var]
    for vid in separator:
        offsets[vid] = c
        cols.append((vid, c, c + dims[vid]))
        c += dims[vid]
    return tuple(cols), offsets, c + 1


Eliminated = namedtuple("Eliminated", "live rows log_norms T")


def eliminate_stacked(M: np.ndarray, dv: int, names: Sequence[Any]) -> Eliminated:
    """Eliminate k stacked systems at once, with one QR.

    M is (k, m, n+1): k matrices [A | b].  System j eliminates the
    variable names[j], whose dv columns come first, onto the separator in
    the columns after them (see _layout); the names serve the errors.
    Returns Eliminated: per system `live` (not rank deficient; only then
    do the rest hold), conditional rows [R S | d] (k, dv, n+1) with R's
    diagonal positive, log-normalizers, and marginal rows T (k, m - dv,
    n+1), each row's first significant entry nonnegative, its first dv
    columns 0 and any pure-residual row kept, so 0.5||A x - b||^2 =
    0.5||R x_var + S p - d||^2 + 0.5||T [x; -1]||^2 exactly.  Raises
    UnderconstrainedVariable when m < dv, ValueError naming the first
    non-finite system.

    Views of the arrays need no re-check: R is square and matches d, the
    rank check gives |R_ii| > RANK_TOL * max(scale, 1) >= 1e-12, and the
    finite per-system scale (NaN propagates through a max) covers every
    block.  `rows` is a signed copy, so conditionals do not keep T alive.
    """
    m = M.shape[1]
    if m < dv:
        raise UnderconstrainedVariable(f"underconstrained variable: "
                                       f"{names[0]!r} has {m} rows, needs {dv}")
    Rfull = np.linalg.qr(M, mode="r")
    A = np.abs(Rfull)
    scale = A.max(axis=(1, 2))
    if not math.isfinite(scale.max()):     # a NaN propagates through max
        raise ValueError(f"eliminating {names[int(np.isfinite(scale).argmin())]!r}"
                         ": non-finite entries")
    tol = RANK_TOL * np.maximum(scale, 1.0)
    diag = A.diagonal(0, 1, 2)[:, :dv]
    live = (diag > tol[:, None]).all(axis=1)
    rows = Rfull[:, :dv, :] * np.sign(Rfull.diagonal(0, 1, 2)[:, :dv])[:, :, None]
    log_norms = (0.5 * dv * math.log(2.0 * math.pi)
                 - np.log(np.where(live[:, None], diag, 1.0)).sum(axis=1)).tolist()
    # Marginal rows, signed so that each row's first significant entry is
    # nonnegative; a row with none gets first = 0, never < -tol.  Rows are
    # negated or left as they are, which keeps every other bit.
    T = Rfull[:, dv:, :]
    first = (A[:, dv:, :] > tol[:, None, None]).argmax(axis=2)
    lead = T[np.arange(len(T))[:, None], np.arange(T.shape[1]), first]
    T[lead < -tol[:, None]] *= -1.0
    return Eliminated(live.tolist(), rows, log_norms, T)


def _marginal(T: np.ndarray, cols, separator: Tuple[Any, ...]) -> JacobianFactor:
    """One system's marginal rows T (m, n+1) as a factor on `separator`."""
    return JacobianFactor._own({vid: T[:, a:b] for vid, a, b in cols}, T[:, -1],
                               separator)


def eliminate_one(factors: Sequence[JacobianFactor], var
                  ) -> Tuple[GaussianConditional, JacobianFactor]:
    """Eliminate `var` from the stacked factors: eliminate_stacked on one
    system.  Returns the conditional p(var | separator) and the marginal
    factor on the separator."""
    factors = list(factors)
    dims = _dims(factors)
    if var not in dims:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "appears in no factor")
    separator = tuple(sorted(v for v in dims if v != var))
    cols, offsets, width = _layout(var, separator, dims)
    M = np.zeros((1, sum(f.rows for f in factors), width))
    r = 0
    for f in factors:
        r = _put(M[0], r, f.blocks.items(), f.rhs, offsets)
    out = eliminate_stacked(M, dims[var], [var])
    if not out.live[0]:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "is rank deficient")
    return (GaussianConditional._own(var, out.rows, 0, cols, out.log_norms[0], separator),
            _marginal(out.T[0], cols, separator))


def back_substitute(conditionals: Sequence[GaussianConditional]) -> VectorValues:
    """Solve the triangular system of conditionals in elimination order
    (parents eliminated later).  Those of one depth below the roots (1 +
    their deepest parent's) and row shape are solved together: their rows
    [R S | d] in one array, d - S p for all of them by one batched matmul,
    p each one's parent values joined in its column order as `_rhs` joins
    them, then one stacked LU solve: each gets its `solve`'s bits."""
    depth: Dict[Any, int] = {}
    levels: Dict[Tuple[int, ...], List[GaussianConditional]] = {}
    for cond in reversed(list(conditionals)):
        level = 0
        for vid in cond.parents:
            if vid not in depth:
                raise ValueError(f"incomplete values: missing {vid!r}")
            level = max(level, depth[vid] + 1)
        depth[cond.frontal] = level
        levels.setdefault((level,) + cond._rows.shape[1:], []).append(cond)
    values: VectorValues = {}
    for (_, dv, width), group in sorted(levels.items()):
        X = np.concatenate([cond._rows[cond._at:cond._at + 1] for cond in group])
        rhs = X[:, :, -1]
        if width > dv + 1:
            p = np.concatenate([values[vid] for cond in group for vid, _, _ in cond._cols])
            # A contiguous (k, dv, n - dv) @ (k, n - dv, 1), as S @ p per conditional.
            rhs = rhs - (np.ascontiguousarray(X[:, :, dv:-1])
                         @ p.reshape(len(group), -1, 1))[:, :, 0]
        for cond, x in zip(group, np.linalg.solve(X[:, :, :dv], rhs[:, :, None])[:, :, 0]):
            values[cond.frontal] = x
    return values
