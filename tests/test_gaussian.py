import math

import numpy as np
import pytest

from hybridfg.gaussian import (RANK_TOL, GaussianConditional, JacobianFactor,
                               UnderconstrainedVariable, _layout,
                               back_substitute, eliminate_one,
                               eliminate_stacked, log_normalization_constant,
                               NoiseModel, sigma_cholesky, whiten)
from hybridfg.hybrid import NonlinearFactor
from hybridfg.nonlinear import LinearResidual

from helpers import (reference_back_substitute, reference_conditional,
                     reference_eliminate_one, same_bits, same_elimination,
                     stack_systems, stacked_results)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


class TestWhiten:
    def test_unit_noise(self):
        f = whiten({"x": [[1.0]]}, [5.0], 1.0)
        np.testing.assert_allclose(f.blocks["x"], [[1.0]])
        np.testing.assert_allclose(f.rhs, [5.0])

    def test_scalar_square_root(self):
        f = whiten({"x": [[1.0]]}, [4.0], 4.0)
        np.testing.assert_allclose(f.blocks["x"], [[0.5]])
        np.testing.assert_allclose(f.rhs, [2.0])

    def test_random_spd_preserves_quadratic_form(self):
        """0.5||Ax-b||^2 equals the Mahalanobis half-norm of Hx-z for any x."""
        rng = np.random.default_rng(0)
        H = rng.normal(size=(3, 3))
        z = rng.normal(size=3)
        sigma = _random_spd(rng, 3)
        siginv = np.linalg.inv(sigma)
        f = whiten({"x": H}, z, sigma)
        for _ in range(100):
            x = rng.normal(size=3)
            r = H @ x - z
            want = 0.5 * float(r @ siginv @ r)
            assert f.error({"x": x}) == pytest.approx(want, abs=1e-10)

    def test_non_pd_sigma_rejected(self):
        with pytest.raises(ValueError, match="invalid noise model"):
            whiten({"x": [[1.0], [1.0]]}, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            reason = "positive definite" if math.isfinite(bad) else "must be finite"
            for sigma in (bad, [1.0, bad], [[1.0, 0.0], [0.0, bad]]):
                with pytest.raises(ValueError, match=f"invalid noise model: .*{reason}"):
                    whiten({"x": [[1.0], [1.0]]}, [2.0, 2.0], sigma)
                with pytest.raises(ValueError, match=f"invalid noise model: .*{reason}"):
                    log_normalization_constant(sigma, 2)

    @pytest.mark.parametrize("kind", ["scalar", "diagonal", "full"])
    def test_one_solve_matches_per_block_solves(self, kind):
        """Whitening all blocks in one solve gives the bits of one solve per
        block, and the right-hand side the bits of its own solve.

        Single-column blocks are the exception: LAPACK solves a lone column
        by another kernel, so on its own such a block can differ from its
        slice of the stacked solve in the last bit.
        """
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            sigma = {"scalar": lambda: rng.uniform(1e-6, 10.0),
                     "diagonal": lambda: rng.uniform(1e-6, 10.0, size=n),
                     "full": lambda: _random_spd(rng, n)}[kind]()
            L = sigma_cholesky(sigma, n)
            if kind != "full":
                assert same_bits(L, np.linalg.cholesky(np.diag(np.broadcast_to(sigma, n))))
            blocks = {f"x{i}": rng.normal(size=(n, int(rng.integers(1, 5))))
                      for i in range(int(rng.integers(0, 4)))}
            z = rng.normal(size=n)
            f = whiten(blocks, z, sigma)
            assert np.array_equal(f.rhs, np.linalg.solve(L, z))
            for vid, H in blocks.items():
                want = np.linalg.solve(L, H)
                if H.shape[1] > 1:
                    assert np.array_equal(f.blocks[vid], want)
                else:
                    np.testing.assert_allclose(f.blocks[vid], want,
                                               rtol=1e-13, atol=1e-13)
        if kind != "full":      # variances over 600 orders of magnitude
            for _ in range(200):
                n = int(rng.integers(1, 7))
                sigma = 10.0 ** rng.uniform(-300, 300, size=() if kind == "scalar" else n)
                assert same_bits(sigma_cholesky(sigma, n),
                                 np.linalg.cholesky(np.diag(np.broadcast_to(sigma, n))))

    @pytest.mark.parametrize("sigma", [2.5, [0.5, 2.0, 3.0]], ids=["scalar", "vector"])
    def test_diagonal_covariance_skips_symmetry_test_and_lapack(self, monkeypatch, sigma):
        """A scalar or 1-D covariance is factored as the diagonal of square
        roots: building a NoiseModel, whiten and NonlinearFactor over one
        calls neither np.allclose nor np.linalg.cholesky; a 2-D one calls
        each once."""
        calls = {"allclose": 0, "cholesky": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "allclose", counting("allclose", np.allclose))
        monkeypatch.setattr(np.linalg, "cholesky",
                            counting("cholesky", np.linalg.cholesky))
        H = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        noise = NoiseModel(sigma, 3)
        whiten({"x": H}, [1.0, 2.0, 3.0], sigma)
        NonlinearFactor(LinearResidual({"x": H}, [1.0, 2.0, 3.0]), sigma)
        assert calls == {"allclose": 0, "cholesky": 0}
        NoiseModel(np.diag(np.broadcast_to(noise.sigma, 3)))
        assert calls == {"allclose": 1, "cholesky": 1}


class TestEliminateOne:
    def test_single_prior(self):
        f = whiten({"x": [[1.0]]}, [5.0], 1.0)
        cond, marginal = eliminate_one([f], "x")
        np.testing.assert_allclose(cond.R, [[1.0]])
        np.testing.assert_allclose(cond.solve({}), [5.0])
        assert marginal.rows == 0

    def test_two_priors_product(self):
        """Two unit-noise priors at 0 and 2: the quadrature oracle fixes the
        posterior mean at 1, precision 2, and leftover residual 1."""
        f1 = whiten({"x": [[1.0]]}, [0.0], 1.0)
        f2 = whiten({"x": [[1.0]]}, [2.0], 1.0)
        xs = np.linspace(-8.0, 10.0, 1 << 14)
        dens = np.exp(-0.5 * (xs ** 2 + (xs - 2.0) ** 2))
        mean = np.trapezoid(xs * dens, xs) / np.trapezoid(dens, xs)
        cond, marginal = eliminate_one([f1, f2], "x")
        np.testing.assert_allclose(cond.R, [[math.sqrt(2.0)]])
        assert cond.solve({})[0] == pytest.approx(mean, abs=1e-9)
        assert marginal.error({}) == pytest.approx(1.0, abs=1e-12)

    def test_chain_marginal_matches_schur_complement(self):
        """Eliminating x0 from a two-variable chain leaves a marginal on x1
        whose information matches dense marginalization."""
        rng = np.random.default_rng(1)
        prior = whiten({"x0": [[1.0]]}, [rng.normal()], 0.7)
        link = whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [rng.normal()], 1.3)
        cond, marginal = eliminate_one([prior, link], "x0")
        # Dense joint information over [x0, x1].
        A = np.zeros((2, 2))
        b = np.zeros(2)
        A[0, 0] = prior.blocks["x0"][0, 0]
        b[0] = prior.rhs[0]
        A[1, 0] = link.blocks["x0"][0, 0]
        A[1, 1] = link.blocks["x1"][0, 0]
        b[1] = link.rhs[0]
        lam = A.T @ A
        eta = A.T @ b
        lam_marg = lam[1, 1] - lam[1, 0] / lam[0, 0] * lam[0, 1]
        eta_marg = eta[1] - lam[1, 0] / lam[0, 0] * eta[0]
        At = marginal.blocks["x1"]
        np.testing.assert_allclose((At.T @ At).item(), lam_marg, atol=1e-10)
        np.testing.assert_allclose((At.T @ marginal.rhs).item(), eta_marg, atol=1e-10)

    def test_underconstrained_variable(self):
        f = whiten({"x": [[1.0, 0.0]]}, [0.0], 1.0)  # 1 row for a 2-dof var
        with pytest.raises(UnderconstrainedVariable):
            eliminate_one([f], "x")

    def test_exactness_identity(self):
        """The stacked quadratic splits exactly into conditional + marginal
        parts: checked at 100 random points on random multi-variable stacks."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            nvars = int(rng.integers(2, 5))
            ids = [f"x{i}" for i in range(nvars)]
            factors = []
            for _ in range(nvars + 2):
                sub = rng.choice(nvars, size=int(rng.integers(1, 3)), replace=False)
                blocks = {ids[i]: rng.normal(size=(2, 1)) for i in sub}
                factors.append(JacobianFactor(blocks, rng.normal(size=2)))
            if not any(ids[0] in f.blocks for f in factors):
                continue
            cond, marginal = eliminate_one(factors, ids[0])
            for _ in range(100):
                x = {vid: rng.normal(size=1) for vid in ids}
                total = sum(f.error(x) for f in factors)
                r = cond.R @ x[ids[0]] - cond.d
                for vid, S in cond.parent_blocks.items():
                    r = r + S @ x[vid]
                split = 0.5 * float(r @ r) + marginal.error(x)
                assert split == pytest.approx(total, rel=1e-9, abs=1e-9)


def _loop_row_signs(T: np.ndarray, tol: float) -> np.ndarray:
    """Reference: the per-row loop eliminate_one used to canonicalize signs."""
    T = T.copy()
    for i in range(T.shape[0]):
        nz = np.flatnonzero(np.abs(T[i]) > tol)
        if nz.size and T[i, nz[0]] < 0:
            T[i] *= -1.0
    return T


class TestMarginalRowSigns:
    def test_matches_per_row_loop(self):
        """On random stacks with rank-deficient separators, duplicated and
        all-zero rows, every marginal row starts with a nonnegative
        significant entry and equals the per-row loop bit for bit."""
        rng = np.random.default_rng(11)
        seps = ["a", "b", "c"]
        for trial in range(300):
            dims = {"x": int(rng.integers(1, 3))}
            dims.update({v: int(rng.integers(1, 4)) for v in seps})
            factors = [JacobianFactor({"x": np.eye(dims["x"])},
                                      rng.normal(size=dims["x"]))]
            for _ in range(int(rng.integers(1, 6))):
                rows = int(rng.integers(1, 5))
                used = [v for v in ["x"] + seps if rng.random() < 0.5] or ["a"]
                blocks = {v: rng.normal(size=(rows, dims[v])) for v in used}
                if rng.random() < 0.3:      # a column of the separator dies
                    v = used[-1]
                    blocks[v][:, 0] = 0.0
                if rng.random() < 0.3:      # a row repeats another
                    for B in blocks.values():
                        B[-1] = B[0]
                rhs = rng.normal(size=rows)
                if rng.random() < 0.2:      # an all-zero row
                    for B in blocks.values():
                        B[-1] = 0.0
                    rhs[-1] = 0.0
                factors.append(JacobianFactor(blocks, rhs))
            _, marginal = eliminate_one(factors, "x")
            present = sorted({v for f in factors for v in f.blocks} - {"x"})
            Rfull = np.linalg.qr(stack_systems(factors, ["x"] + present, dims)[0],
                                 mode="r")
            tol = RANK_TOL * max(float(np.max(np.abs(Rfull))), 1.0)
            want = _loop_row_signs(Rfull[dims["x"]:], tol)[:, dims["x"]:]
            got = np.hstack([marginal.blocks[v] for v in present]
                            + [marginal.rhs[:, None]]) if present \
                else marginal.rhs[:, None]
            assert np.array_equal(got, want), trial
            for row in got:
                significant = np.flatnonzero(np.abs(row) > tol)
                assert not significant.size or row[significant[0]] >= 0


def _random_batch(rng):
    """k systems of one random layout on "x" and up to three separator
    variables of dimension 1-3: shared factors (the same in every system)
    and per-system factors, with zero x blocks (rank-deficient systems),
    zero rows, and layouts with fewer rows than columns or than x needs."""
    dims = {"x": int(rng.integers(1, 4))}
    dims.update({f"s{i}": int(rng.integers(1, 4))
                 for i in range(int(rng.integers(0, 4)))})
    layout = []
    for _ in range(int(rng.integers(1, 5))):
        used = [v for v in dims if rng.random() < 0.6] or ["x"]
        layout.append((used, int(rng.integers(1, 5)), rng.random() < 0.3))
    if not any("x" in used for used, _, _ in layout):
        layout[0][0].append("x")
    k = int(rng.integers(1, 7))

    def factor(used, rows):
        blocks = {v: rng.normal(size=(rows, dims[v])) for v in used}
        rhs = rng.normal(size=rows)
        if "x" in blocks and rng.random() < 0.15:
            blocks["x"][:] = 0.0
        if rng.random() < 0.1:
            for B in blocks.values():
                B[-1] = 0.0
            rhs[-1] = 0.0
        return JacobianFactor(blocks, rhs)

    shared = [factor(used, rows) for used, rows, is_shared in layout if is_shared]
    per_cell = [[factor(used, rows) for _ in range(k)]
                for used, rows, is_shared in layout if not is_shared]
    if not per_cell:
        k = 1
    systems = [shared + [col[i] for col in per_cell] for i in range(k)]
    present = sorted({v for used, _, _ in layout for v in used} - {"x"})
    return (stack_systems(shared, ["x"] + present, dims, per_cell), present,
            dims, systems)


def _one_head(M, present, dims):
    """(dv, heads) for k systems that all eliminate "x" onto `present`:
    the dimension eliminate_stacked takes and the (variable, column
    ranges) pairs stacked_results reads."""
    return dims["x"], [("x", _layout("x", present, dims)[0])] * len(M)


class TestEliminateStacked:
    def test_batch_matches_per_cell_reference(self):
        """One batched QR gives, system by system, the bits of the
        reference's per-stack elimination: R, d, parent blocks,
        log-normalizer, marginal blocks and rhs, and None exactly where the
        reference finds x rank deficient."""
        rng = np.random.default_rng(31)
        seen = {"rank": 0, "1-D x": 0, "wide": 0, "no separator": 0,
                "too few rows": 0, "batch": 0}
        for trial in range(400):
            M, present, dims, systems = _random_batch(rng)
            want = []
            for factors in systems:
                try:
                    want.append(reference_eliminate_one(factors, "x"))
                except UnderconstrainedVariable:
                    want.append(None)
            if M.shape[1] < dims["x"]:
                seen["too few rows"] += 1
                with pytest.raises(UnderconstrainedVariable, match="rows"):
                    eliminate_stacked(M, dims["x"], ["x"] * len(M))
                continue
            dv, heads = _one_head(M, present, dims)
            got = stacked_results(eliminate_stacked(M, dv, [v for v, _ in heads]),
                                  heads)
            assert len(got) == len(systems), trial
            for g, w in zip(got, want):
                assert (g is None) == (w is None), trial
                if g is not None:
                    assert same_elimination(g, w), trial
            seen["rank"] += want.count(None)
            seen["1-D x"] += dims["x"] == 1
            seen["wide"] += M.shape[1] < M.shape[2]
            seen["no separator"] += not present
            seen["batch"] += len(systems) > 1
        assert all(seen.values()), seen

    def test_eliminate_one_is_the_batch_of_one(self):
        rng = np.random.default_rng(32)
        for trial in range(200):
            M, present, dims, systems = _random_batch(rng)
            for factors in systems:
                try:
                    want = reference_eliminate_one(factors, "x")
                except UnderconstrainedVariable:
                    with pytest.raises(UnderconstrainedVariable):
                        eliminate_one(factors, "x")
                    continue
                assert same_elimination(eliminate_one(factors, "x"), want), trial

    def test_systems_with_their_own_heads_match_reference(self):
        """Systems of one shape that eliminate different variables onto
        separators of different variables and column splits: each keeps
        the bits of the reference's elimination of its own factors."""
        rng = np.random.default_rng(34)
        seen = {"rank": 0, "split differs": 0}
        for trial in range(200):
            dv = int(rng.integers(1, 4))
            width = int(rng.integers(0, 5))
            m = int(rng.integers(dv, 7))
            stacks, heads, want, splits = [], [], [], set()
            for j in range(int(rng.integers(1, 6))):
                var, dims, left = ("x", j), {("x", j): dv}, width
                while left:
                    dims[("s", j, len(dims))] = d = int(rng.integers(1, left + 1))
                    left -= d
                separator = sorted(v for v in dims if v != var)
                splits.add(tuple(dims[v] for v in separator))
                blocks = {v: rng.normal(size=(m, dims[v])) for v in dims}
                if rng.random() < 0.15:
                    blocks[var][:] = 0.0
                factors = [JacobianFactor(blocks, rng.normal(size=m))]
                stacks.append(stack_systems(factors, [var] + separator, dims))
                heads.append((var, _layout(var, separator, dims)[0]))
                try:
                    want.append(reference_eliminate_one(factors, var))
                except UnderconstrainedVariable:
                    want.append(None)
            got = stacked_results(eliminate_stacked(
                np.concatenate(stacks), dv, [v for v, _ in heads]), heads)
            for g, w in zip(got, want):
                assert (g is None) == (w is None), trial
                if g is not None:
                    assert same_elimination(g, w), trial
            seen["rank"] += want.count(None)
            seen["split differs"] += len(splits) > 1
        assert all(seen.values()), seen

    def test_non_finite_error_names_the_system(self):
        M = np.random.default_rng(35).normal(size=(3, 4, 3))
        M[1, 2, 1] = np.nan
        heads = [(v, (("y", 1, 2),)) for v in ("a", "b", "c")]
        with pytest.raises(ValueError, match="eliminating 'b': non-finite"):
            eliminate_stacked(M, 1, [v for v, _ in heads])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        M = np.random.default_rng(33).normal(size=(3, 4, 3))
        M[1, 2, 1] = bad
        with pytest.raises(ValueError):
            eliminate_stacked(M, 1, ["x"] * len(M))


class TestSortedIds:
    def test_computed_once_at_construction(self):
        f = JacobianFactor({"b": [[1.0]], "a": [[2.0]]}, [0.0])
        assert f.variables == ("a", "b") and f.variables is f.variables
        c = GaussianConditional("x", [[1.0]], {"z": [[1.0]], "y": [[1.0]]}, [0.0])
        assert c.parents == ("y", "z") and c.parents is c.parents
        cond, marginal = eliminate_one([f, JacobianFactor({"a": [[1.0]],
                                                           "c": [[1.0]]}, [1.0])],
                                       "a")
        assert cond.parents == marginal.variables == ("b", "c")


class TestLogNormalizer:
    def test_log_det_identity(self):
        """exp(log_normalizer) equals sqrt(|2 pi Sigma|) with
        Sigma = (R^T R)^{-1}, to 1e-12."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            R = np.triu(rng.normal(size=(n, n)))
            R[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n)
            cond = GaussianConditional("x", R, {}, rng.normal(size=n))
            sigma = cond.covariance()
            want = 0.5 * math.log(np.linalg.det(2.0 * math.pi * sigma))
            assert cond.log_normalizer == pytest.approx(want, abs=1e-12)

    def test_density_integrates_to_one_by_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            r = rng.uniform(0.5, 3.0)
            d = rng.normal()
            cond = GaussianConditional("x", [[r]], {}, [d])
            mean = d / r
            sd = 1.0 / r
            xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 4096)
            dens = [cond.density({"x": np.array([x])}) for x in xs]
            assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-4)

    def test_matches_sigma_helper(self):
        rng = np.random.default_rng(5)
        sigma = _random_spd(rng, 3)
        want = 0.5 * math.log(np.linalg.det(2.0 * math.pi * sigma))
        assert log_normalization_constant(sigma) == pytest.approx(want, abs=1e-12)


class TestBackSubstitute:
    def test_single_conditional(self):
        cond = GaussianConditional("x", [[2.0]], {}, [6.0])
        out = back_substitute([cond])
        np.testing.assert_allclose(out["x"], [3.0])

    def test_parent_substitution(self):
        parent = GaussianConditional("y", [[1.0]], {}, [2.0])
        child = GaussianConditional("x", [[1.0]], {"y": [[-1.0]]}, [1.0])
        out = back_substitute([child, parent])
        np.testing.assert_allclose(out["y"], [2.0])
        np.testing.assert_allclose(out["x"], [3.0])

    def test_parent_missing_from_the_list_raises(self):
        child = GaussianConditional("x", [[1.0]], {"y": [[-1.0]]}, [1.0])
        with pytest.raises(ValueError, match="incomplete values: missing 'y'"):
            back_substitute([child])

    def test_group_with_different_parent_layouts(self):
        """Conditionals of one depth and row shape whose parents differ in
        number and dimensions share only some column ranges: each still
        gets the bits of its own solve."""
        rng = np.random.default_rng(8)

        def cond(frontal, parents, dim):
            R = np.triu(rng.normal(size=(dim, dim))) + 3.0 * np.eye(dim)
            return GaussianConditional(
                frontal, R, {v: rng.normal(size=(dim, d)) for v, d in parents},
                rng.normal(size=dim))
        roots = [cond(v, (), d) for v, d in
                 (("p", 1), ("q", 2), ("r", 2), ("s", 1), ("t", 1))]
        children = [cond("a", (("p", 1), ("q", 2)), 2),
                    cond("b", (("r", 2), ("s", 1)), 2),
                    cond("c", (("p", 1), ("s", 1), ("t", 1)), 2)]
        conds = children + roots
        got, want = back_substitute(conds), reference_back_substitute(conds)
        assert got.keys() == want.keys()
        assert all(same_bits(got[v], want[v]) for v in want)

    def test_parents_out_of_id_order(self):
        """Parent blocks given out of id order, of mixed dimensions, lie in
        the columns in the order given: solve and log_density match the
        dense formulas on the given blocks, and back_substitute, whose
        groups mix the column orders (z, a) and (a, z), matches the
        one-at-a-time reference bit for bit."""
        rng = np.random.default_rng(9)
        given = {}

        def cond(frontal, parents, dim):
            R = np.triu(rng.normal(size=(dim, dim))) + 3.0 * np.eye(dim)
            blocks = {v: rng.normal(size=(dim, d)) for v, d in parents}
            d = rng.normal(size=dim)
            given[frontal] = (R, blocks, d)
            return GaussianConditional(frontal, R, blocks, d)
        roots = [cond("a", (), 2), cond("m", (), 1), cond("z", (), 3)]
        children = [cond("c1", (("z", 3), ("a", 2)), 2),
                    cond("c2", (("a", 2), ("z", 3)), 2),
                    cond("c3", (("z", 3), ("m", 1), ("a", 2)), 1),
                    cond("c4", (("m", 1), ("a", 2)), 2)]
        conds = children + roots
        got, want = back_substitute(conds), reference_back_substitute(conds)
        assert got.keys() == want.keys()
        assert all(same_bits(got[v], want[v]) for v in want)
        values = {v: rng.normal(size=n) for v, n in
                  (("a", 2), ("m", 1), ("z", 3), ("c1", 2), ("c2", 2),
                   ("c3", 1), ("c4", 2))}
        for c in children:
            R, blocks, d = given[c.frontal]
            rhs = d - sum(S @ values[v] for v, S in blocks.items())
            np.testing.assert_allclose(c.solve(values), np.linalg.solve(R, rhs),
                                       rtol=1e-12, atol=1e-12)
            r = R @ values[c.frontal] - rhs
            n = R.shape[0]
            log_norm = 0.5 * n * math.log(2.0 * math.pi) \
                - math.log(abs(np.linalg.det(R)))
            assert c.log_density(values) == pytest.approx(
                -0.5 * float(r @ r) - log_norm, rel=1e-12, abs=1e-12)

    def test_chain_matches_dense_least_squares(self):
        rng = np.random.default_rng(6)
        f1 = whiten({"x0": [[1.0]]}, [rng.normal()], 0.5)
        f2 = whiten({"x0": [[-1.0]], "x1": [[1.0]]}, [rng.normal()], 1.5)
        c0, m0 = eliminate_one([f1, f2], "x0")
        c1, _ = eliminate_one([m0], "x1")
        out = back_substitute([c0, c1])
        A = np.array([[f1.blocks["x0"][0, 0], 0.0],
                      [f2.blocks["x0"][0, 0], f2.blocks["x1"][0, 0]]])
        b = np.array([f1.rhs[0], f2.rhs[0]])
        dense, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert out["x0"][0] == pytest.approx(dense[0], abs=1e-10)
        assert out["x1"][0] == pytest.approx(dense[1], abs=1e-10)

    def test_gradient_vanishes_at_solution(self):
        """The back-substituted minimizer zeroes the gradient of the total
        quadratic (inf-norm <= 1e-8) on random graphs."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            ids = [f"x{i}" for i in range(n)]
            factors = [whiten({ids[0]: [[1.0]]}, [rng.normal()], 1.0)]
            for i in range(n - 1):
                factors.append(whiten({ids[i]: [[-1.0]], ids[i + 1]: [[1.0]]},
                                      [rng.normal()], rng.uniform(0.5, 2.0)))
            conds = []
            facs = list(factors)
            for vid in ids:
                involved = [f for f in facs if vid in f.blocks]
                facs = [f for f in facs if vid not in f.blocks]
                cond, marg = eliminate_one(involved, vid)
                conds.append(cond)
                if marg.blocks:
                    facs.append(marg)
            x = back_substitute(conds)
            for vid in ids:
                grad = 0.0
                for f in factors:
                    if vid in f.blocks:
                        r = f.unwhitened_residual(x)
                        grad += float((f.blocks[vid].T @ r)[0])
                assert abs(grad) <= 1e-8


class TestFactorError:
    def test_zero_residual(self):
        f = JacobianFactor({"x": [[1.0]]}, [1.0])
        assert f.error({"x": np.array([1.0])}) == 0.0

    def test_half_squared(self):
        f = JacobianFactor({"x": [[1.0]]}, [0.0])
        assert f.error({"x": np.array([2.0])}) == 2.0

    def test_missing_value(self):
        f = JacobianFactor({"x": [[1.0]]}, [0.0])
        with pytest.raises(ValueError, match="incomplete values"):
            f.error({})


class TestConditionalValidation:
    def test_singular_r_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            GaussianConditional("x", [[0.0]], {}, [1.0])

    def test_parent_value_of_wrong_size_rejected(self):
        """Parent values of sizes 2 and 1 where the blocks take 1 and 2 join
        to the right length, but each must fit its own block."""
        c = GaussianConditional("x", [[1.0]], {"a": [[1.0]], "b": [[1.0, 1.0]]}, [0.0])
        values = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]), "x": np.array([0.0])}
        for read in (c.solve, c.log_density):
            with pytest.raises(ValueError):
                read(values)

    def test_frontal_cannot_be_its_own_parent(self):
        with pytest.raises(ValueError, match="own parent"):
            GaussianConditional("x", [[2.0]], {"x": [[1.0]]}, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array, at", [("R", (1, 1)), ("R", (0, 1)),
                                           ("S", (1, 0)), ("d", 0)])
    def test_non_finite_entries_rejected(self, bad, array, at):
        args = {"R": np.array([[2.0, 0.5], [0.0, 1.0]]),
                "S": np.array([[1.0], [-1.0]]), "d": np.array([1.0, 2.0])}
        args[array][at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GaussianConditional("x", args["R"], {"y": args["S"]}, args["d"])

    def test_upper_triangular_keeps_the_former_bits(self):
        """On upper-triangular R the constructor gives, bit for bit, the
        rows, log-normalizer, column ranges and parents of the former
        sign-flip construction (helpers.reference_conditional): 1,200
        random inputs with mixed diagonal signs, entries over six orders
        of magnitude and 0-3 parents in random order."""
        rng = np.random.default_rng(36)
        seen = {"negative diagonal": 0, "unsorted parents": 0, "no parents": 0}
        for trial in range(1200):
            n = int(rng.integers(1, 7))
            R = np.triu(rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n)))
            R[np.diag_indices(n)] = (rng.choice([-1.0, 1.0], n)
                                     * 10.0 ** rng.uniform(-1, 1, n))
            names = [str(v) for v in rng.permutation(list("abcdef"))[:rng.integers(0, 4)]]
            blocks = {v: rng.normal(size=(n, int(rng.integers(1, 4))))
                      * 10.0 ** rng.uniform(-3, 3) for v in names}
            d = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            c = GaussianConditional("x", R, blocks, d)
            rows, log_norm, cols, parents = reference_conditional("x", R, blocks, d)
            assert same_bits(c._rows[c._at], rows), trial
            assert same_bits(c.log_normalizer, log_norm), trial
            assert c._cols == cols and c.parents == parents, trial
            seen["negative diagonal"] += bool((np.diag(R) < 0).any())
            seen["unsorted parents"] += names != sorted(names)
            seen["no parents"] += not names
        assert all(seen.values()), seen

    def test_non_triangular_r_is_normalized(self):
        """A nonsingular R that is not triangular gets the log-normalizer
        (n/2) log(2 pi) - log|det R|, and its density integrates to 1 over
        a 2-D grid at a fixed parent value."""
        rng = np.random.default_rng(37)
        Rs = [np.array([[1.0, 1.0], [1.0, 2.0]])] + [rng.normal(size=(2, 2)) + np.eye(2)
                                                     for _ in range(3)]
        for R in Rs:
            cond = GaussianConditional("x", R, {"y": rng.normal(size=(2, 1))},
                                       rng.normal(size=2))
            want = math.log(2.0 * math.pi) - math.log(abs(np.linalg.det(R)))
            assert cond.log_normalizer == pytest.approx(want, abs=1e-12)
            y = rng.normal(size=1)
            mean = cond.solve({"y": y})
            sd = np.sqrt(np.diag(cond.covariance()))
            axes = [np.linspace(mu - 9 * s, mu + 9 * s, 161) for mu, s in zip(mean, sd)]
            dens = np.array([[cond.density({"x": np.array([u, v]), "y": y})
                              for v in axes[1]] for u in axes[0]])
            total = np.trapezoid(np.trapezoid(dens, axes[1], axis=1), axes[0])
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_sign_normalization(self):
        cond = GaussianConditional("x", [[-2.0]], {"y": [[1.0]]}, [-6.0])
        assert cond.R[0, 0] == 2.0
        np.testing.assert_allclose(cond.parent_blocks["y"], [[-1.0]])
        np.testing.assert_allclose(cond.d, [6.0])
