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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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
    """p(x | parents) = exp(-0.5 ||R x + sum_i S_i p_i - d||^2 - log_normalizer)."""

    __slots__ = ("frontal", "R", "parent_blocks", "d", "log_normalizer",
                 "parents")

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
        self._init(frontal, R, parents, d, log_norm, tuple(sorted(parents)))

    @classmethod
    def _own(cls, frontal, R: np.ndarray, parent_blocks: Dict[Any, np.ndarray],
             d: np.ndarray, log_normalizer: float,
             parents: Tuple[Any, ...]) -> "GaussianConditional":
        """A conditional over arrays the caller has just computed in
        canonical form (see eliminate_stacked): no copy, no re-check."""
        c = object.__new__(cls)
        c._init(frontal, R, parent_blocks, d, log_normalizer, parents)
        return c

    def _init(self, frontal, R, parent_blocks, d, log_normalizer, parents):
        object.__setattr__(self, "frontal", frontal)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "parent_blocks", parent_blocks)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "log_normalizer", log_normalizer)
        object.__setattr__(self, "parents", parents)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianConditional is immutable")

    @property
    def dim(self) -> int:
        return int(self.R.shape[0])

    def _rhs(self, values: VectorValues) -> np.ndarray:
        """d - sum_i S_i p_i."""
        rhs = self.d.copy()
        for vid, S in self.parent_blocks.items():
            if vid not in values:
                raise ValueError(f"incomplete values: missing {vid!r}")
            rhs = rhs - S @ _as_vector(values[vid])
        return rhs

    def solve(self, values: VectorValues) -> np.ndarray:
        """Mean of the frontal variable: R^{-1} (d - sum_i S_i p_i)."""
        return np.linalg.solve(self.R, self._rhs(values))

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
    cannot go stale."""

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

    def whiten(self, blocks: Mapping[Any, Any], z) -> JacobianFactor:
        """A = L^{-1} H, b = L^{-1} z, so 0.5||Ax-b||^2 = 0.5||Hx-z||^2_Sigma:
        whiten_stacked on one system."""
        mats = {vid: _as_matrix(H) for vid, H in blocks.items()}
        z = _as_vector(z)
        for rows in [z.shape[0]] + [M.shape[0] for M in mats.values()]:
            self.check_rows(rows)
        H = np.hstack(list(mats.values()))[None] if mats else None
        W, w = whiten_stacked(self.L[None], H, z[None])
        wb = {}
        c = 0
        for vid, M in mats.items():
            wb[vid] = W[0, :, c:c + M.shape[1]]
            c += M.shape[1]
        return JacobianFactor(wb, w[0])


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
    """Whiten H x = z with noise covariance Sigma (see NoiseModel.whiten)."""
    z = _as_vector(z)
    return NoiseModel(sigma, z.shape[0]).whiten(blocks, z)


def _stack(shared: Sequence[JacobianFactor], order: Sequence[Any],
           dims: Mapping[Any, int],
           per_cell: Sequence[Sequence[JacobianFactor]] = ()) -> np.ndarray:
    """Stack k systems [A | b] of one layout into a (k, m, n+1) array with
    columns laid out per `order`: first the rows of the `shared` factors,
    the same in every system, then for each position of `per_cell` the rows
    of its k factors, one per system (all with the same variables and rows).
    Without `per_cell`, k is 1."""
    offsets = {}
    ncols = 0
    for vid in order:
        offsets[vid] = ncols
        ncols += dims[vid]
    k = len(per_cell[0]) if per_cell else 1
    rows = sum(f.rows for f in shared) + sum(col[0].rows for col in per_cell)
    M = np.zeros((k, rows, ncols + 1))
    r = 0
    for f in shared:
        for vid, A in f.blocks.items():
            c = offsets[vid]
            M[:, r:r + f.rows, c:c + A.shape[1]] = A
        M[:, r:r + f.rows, -1] = f.rhs
        r += f.rows
    for col in per_cell:
        f0 = col[0]
        for vid, A in f0.blocks.items():
            c = offsets[vid]
            M[:, r:r + f0.rows, c:c + A.shape[1]] = [f.blocks[vid] for f in col]
        M[:, r:r + f0.rows, -1] = [f.rhs for f in col]
        r += f0.rows
    return M


def _dims(factors: Sequence[JacobianFactor]) -> Dict[Any, int]:
    """Column dimension of every variable, which all factors must agree on."""
    dims: Dict[Any, int] = {}
    for f in factors:
        for vid, A in f.blocks.items():
            if dims.setdefault(vid, A.shape[1]) != A.shape[1]:
                raise ValueError(f"inconsistent dimension for {vid!r}")
    return dims


class UnderconstrainedVariable(ValueError):
    pass


def _columns(separator: Sequence[Any], dims: Mapping[Any, int], start: int
             ) -> Tuple[Tuple[Any, int, int], ...]:
    """Column ranges (vid, a, b) of the separator's variables, laid out in
    order from column `start` (after the eliminated variable's)."""
    cols = []
    for vid in separator:
        cols.append((vid, start, start + dims[vid]))
        start += dims[vid]
    return tuple(cols)


def eliminate_stacked(M: np.ndarray, dv: int,
                      heads: Sequence[Tuple[Any, Tuple[Tuple[Any, int, int], ...]]]
                      ) -> List[Optional[Tuple[GaussianConditional, JacobianFactor]]]:
    """Eliminate k stacked systems at once, with one QR.

    M is (k, m, n+1): k matrices [A | b] (see _stack).  System j
    eliminates the variable heads[j][0], whose dv columns come first, onto
    the separator whose column ranges heads[j][1] gives as (vid, a, b), in
    separator order (see _columns); systems may eliminate different
    variables onto different separators.  Returns, per system, the
    conditional p(var | separator) and the marginal factor on the
    separator, or None where its variable is rank deficient.  The marginal
    keeps any pure-residual row, so 0.5||A x - b||^2 = 0.5||R x_var + S p -
    d||^2 + marginal error holds exactly.  Raises UnderconstrainedVariable
    when m is below dv, and ValueError naming the first system with
    non-finite entries.

    The outputs take slices of arrays computed here, without copies or
    re-checks: R is square and matches d by construction, the rank check
    gives |R_ii| > RANK_TOL * max(scale, 1) >= 1e-12, and the finite
    per-system scale (a max, which NaN propagates through) covers every
    block.
    """
    k, m, _ = M.shape
    if m < dv:
        raise UnderconstrainedVariable(f"underconstrained variable: "
                                       f"{heads[0][0]!r} has {m} rows, needs {dv}")
    Rfull = np.linalg.qr(M, mode="r")
    A = np.abs(Rfull)
    scale = A.max(axis=(1, 2))
    bad = ~np.isfinite(scale)
    if bad.any():
        raise ValueError(f"eliminating {heads[int(bad.argmax())][0]!r}: "
                         "non-finite entries")
    tol = RANK_TOL * np.maximum(scale, 1.0)
    live = (A.diagonal(0, 1, 2)[:, :dv] > tol[:, None]).all(axis=1).nonzero()[0]
    if live.size < k:
        Rfull, A, tol = Rfull[live], A[live], tol[live]
    # Conditional rows, signed so that the diagonal of R is positive.
    flip = np.sign(Rfull.diagonal(0, 1, 2)[:, :dv])
    rows_flip = flip[:, :, None]
    R = Rfull[:, :dv, :dv] * rows_flip
    d = Rfull[:, :dv, -1] * flip
    log_norms = (0.5 * dv * math.log(2.0 * math.pi)
                 - np.log(A.diagonal(0, 1, 2)[:, :dv]).sum(axis=1)).tolist()
    # Parent blocks: one signed array over the batch per column range in use.
    layouts = {id(cols): cols for _, cols in heads}
    S = {ab: Rfull[:, :dv, ab[0]:ab[1]] * rows_flip for ab in
         {(a, b) for cols in layouts.values() for _, a, b in cols}}
    separators = {key: tuple(vid for vid, _, _ in cols)
                  for key, cols in layouts.items()}
    # Marginal rows, signed so that each row's first significant entry is
    # nonnegative; a row with none gets first = 0, never < -tol.  Rows are
    # multiplied by -1 or 1, which leaves every bit of a kept row as is.
    T = Rfull[:, dv:, :]
    first = (A[:, dv:, :] > tol[:, None, None]).argmax(axis=2)
    lead = T[np.arange(len(T))[:, None], np.arange(T.shape[1]), first]
    T *= np.where(lead < -tol[:, None], -1.0, 1.0)[:, :, None]
    out: List[Optional[Tuple[GaussianConditional, JacobianFactor]]] = [None] * k
    for j, system in enumerate(live.tolist()):
        var, cols = heads[system]
        sep = separators[id(cols)]
        conditional = GaussianConditional._own(
            var, R[j], {vid: S[a, b][j] for vid, a, b in cols}, d[j],
            log_norms[j], sep)
        Tj = T[j]
        marginal = JacobianFactor._own({vid: Tj[:, a:b] for vid, a, b in cols},
                                       Tj[:, -1], sep)
        out[system] = (conditional, marginal)
    return out


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
    separator = sorted(v for v in dims if v != var)
    dv = dims[var]
    (result,) = eliminate_stacked(_stack(factors, [var] + separator, dims), dv,
                                  [(var, _columns(separator, dims, dv))])
    if result is None:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "is rank deficient")
    return result


def back_substitute(conditionals: Sequence[GaussianConditional]) -> VectorValues:
    """Solve the triangular system defined by conditionals in elimination
    order (parents always eliminated later).  Conditionals at one depth
    below the roots (1 + their deepest parent's) need only shallower
    values, so each depth's conditionals of one dimension are solved
    together, with one stacked LU solve: each gets the bits of its own
    `solve`."""
    depth: Dict[Any, int] = {}
    levels: Dict[Tuple[int, int], List[GaussianConditional]] = {}
    for cond in reversed(list(conditionals)):
        level = 0
        for vid in cond.parent_blocks:
            if vid not in depth:
                raise ValueError(f"incomplete values: missing {vid!r}")
            level = max(level, depth[vid] + 1)
        depth[cond.frontal] = level
        levels.setdefault((level, cond.dim), []).append(cond)
    values: VectorValues = {}
    for (_, n), group in sorted(levels.items()):
        R = np.empty((len(group), n, n))
        rhs = np.empty((len(group), n, 1))
        for j, cond in enumerate(group):
            R[j] = cond.R
            rhs[j, :, 0] = cond._rhs(values)
        for cond, x in zip(group, np.linalg.solve(R, rhs)[:, :, 0]):
            values[cond.frontal] = x
    return values
