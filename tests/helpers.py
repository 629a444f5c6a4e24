"""Shared builders for randomized test graphs, and a command-line runner."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np

import hybridfg
from hybridfg import (DiscreteFactor, DiscreteKey, GaussianConditional,
                      HybridBayesNet, HybridFactorGraph,
                      HybridGaussianConditional, HybridGaussianFactor,
                      HybridNonlinearFactor, JacobianFactor, NonlinearFactor,
                      Pose2, log_normalization_constant, whiten)
from hybridfg.discrete import multiply_factors
from hybridfg.gaussian import RANK_TOL, UnderconstrainedVariable, _marginal
from hybridfg.nonlinear import (FD_STEP, BetweenResidual, FuncResidual,
                                LinearResidual, PriorResidual)


def reference_eliminate_one(factors, var):
    """Reference: eliminate_one as it ran before elimination was batched,
    one QR per stack, with the conditional and the marginal built by their
    public, checking constructors and the marginal rows signed row by row."""
    dims = {}
    for f in factors:
        for vid in f.blocks:
            if dims.setdefault(vid, f.dim(vid)) != f.dim(vid):
                raise ValueError(f"inconsistent dimension for {vid!r}")
    if var not in dims:
        raise UnderconstrainedVariable(f"{var!r} appears in no factor")
    separator = sorted(v for v in dims if v != var)
    offsets, c = {}, 0
    for vid in [var] + separator:
        offsets[vid] = c
        c += dims[vid]
    M = np.zeros((sum(f.rows for f in factors), c + 1))
    r = 0
    for f in factors:
        for vid, A in f.blocks.items():
            M[r:r + f.rows, offsets[vid]:offsets[vid] + A.shape[1]] = A
        M[r:r + f.rows, -1] = f.rhs
        r += f.rows
    dv = dims[var]
    if M.shape[0] < dv:
        raise UnderconstrainedVariable(f"{var!r} has too few rows")
    Rfull = np.linalg.qr(M, mode="r")
    if not np.all(np.isfinite(Rfull)):
        raise ValueError("non-finite entries")
    tol = RANK_TOL * max(float(np.max(np.abs(Rfull))), 1.0)
    if np.any(np.abs(np.diag(Rfull)[:dv]) <= tol):
        raise UnderconstrainedVariable(f"{var!r} is rank deficient")
    conditional = GaussianConditional(
        var, Rfull[:dv, :dv],
        {vid: Rfull[:dv, offsets[vid]:offsets[vid] + dims[vid]]
         for vid in separator}, Rfull[:dv, -1])
    T = Rfull[dv:].copy()
    for i in range(T.shape[0]):
        nz = np.flatnonzero(np.abs(T[i]) > tol)
        if nz.size and T[i, nz[0]] < 0:
            T[i] *= -1.0
    marginal = JacobianFactor({vid: T[:, offsets[vid]:offsets[vid] + dims[vid]]
                               for vid in separator}, T[:, -1])
    return conditional, marginal


def stack_systems(shared, order, dims, per_cell=()):
    """Test input: k systems [A | b] of one layout as a (k, m, n+1) array,
    columns laid out per `order`: the rows of the `shared` factors, the
    same in every system, then for each position of `per_cell` the rows of
    its k factors, one per system.  Without `per_cell`, k is 1."""
    offsets, ncols = {}, 0
    for vid in order:
        offsets[vid] = ncols
        ncols += dims[vid]
    k = len(per_cell[0]) if per_cell else 1
    systems = [list(shared) + [col[i] for col in per_cell] for i in range(k)]
    M = np.zeros((k, sum(f.rows for f in systems[0]), ncols + 1))
    for j, factors in enumerate(systems):
        r = 0
        for f in factors:
            for vid, A in f.blocks.items():
                M[j, r:r + f.rows, offsets[vid]:offsets[vid] + A.shape[1]] = A
            M[j, r:r + f.rows, -1] = f.rhs
            r += f.rows
    return M


def stacked_results(out, heads):
    """eliminate_stacked's output `out` for the systems of `heads`, per
    system: (conditional, marginal JacobianFactor) built as views of its
    arrays, or None where the system's variable is rank deficient."""
    results = []
    for p, ((var, cols), live) in enumerate(zip(heads, out.live)):
        separator = tuple(vid for vid, _, _ in cols)
        results.append(live and (
            GaussianConditional._own(var, out.rows, p, cols, out.log_norms[p],
                                     separator),
            _marginal(out.T[p], cols, separator)) or None)
    return results


def same_bits(a, b) -> bool:
    """Arrays equal bit for bit, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_conditional(c1, c2) -> bool:
    """Bitwise equal conditionals: R, d, every parent block and the
    log-normalizer."""
    return (c1.frontal == c2.frontal and c1.parents == c2.parents
            and list(c1.parent_blocks) == list(c2.parent_blocks)
            and same_bits(c1.R, c2.R) and same_bits(c1.d, c2.d)
            and all(same_bits(c1.parent_blocks[v], c2.parent_blocks[v])
                    for v in c1.parent_blocks)
            and same_bits(c1.log_normalizer, c2.log_normalizer))


def same_marginal(m1, m2) -> bool:
    """Bitwise equal factors: every block and the rhs."""
    return (m1.variables == m2.variables and list(m1.blocks) == list(m2.blocks)
            and all(same_bits(m1.blocks[v], m2.blocks[v]) for v in m1.blocks)
            and same_bits(m1.rhs, m2.rhs))


def same_elimination(got, want) -> bool:
    """Bitwise equal (conditional, marginal) pairs."""
    return same_conditional(got[0], want[0]) and same_marginal(got[1], want[1])


def _reference_eliminate_cell(factors, var):
    """reference_eliminate_one on one stack, with sum_product's errors:
    too few rows, rank deficiency and non-finite entries."""
    m = sum(f.rows for f in factors)
    dv = next(f.dim(var) for f in factors if var in f.blocks)
    if m < dv:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       f"has {m} rows, needs {dv}")
    try:
        return reference_eliminate_one(factors, var)
    except UnderconstrainedVariable:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r} "
                                       "is rank deficient") from None
    except ValueError:
        raise ValueError(f"eliminating {var!r}: non-finite entries") from None


def _allowed_by(rows, assignment) -> bool:
    """Whether some row (a full assignment of a discrete factor's keys)
    agrees with `assignment` on every key both hold."""
    return any(all(assignment.get(kid, v) == v for kid, v in row.items())
               for row in rows)


def reference_eliminate_continuous(factors, var, rules=()):
    """Reference: Sum-Product elimination of a continuous variable, one
    reference_eliminate_one per live cell of the clique's mode grid, in
    flat order.  A cell stacks the plain factors, then each hybrid's
    component, in bucket order; it is nil where a hybrid has no component,
    where `var` is underconstrained, or where it disagrees with every
    nonzero row of a rule (the nonzero rows, as assignments, of one of
    the graph's zero-holding discrete factors), unless that last test
    would leave no cell at all.  Returns (conditional, separator) as
    sum_product places them: the separator is a JacobianFactor, a
    HybridGaussianFactor with constants c_in - log_normalizer, a
    DiscreteFactor of the per-cell residuals (no continuous separator
    left), or None."""
    plains, hybrids, base = [], [], 0.0
    for f in factors:
        if isinstance(f, JacobianFactor):
            plains.append(f)
        elif isinstance(f, HybridGaussianFactor) and not f.keys:
            jf, c = f.components.leaves[()]
            plains.append(jf)
            base += c
        elif isinstance(f, HybridGaussianFactor):
            hybrids.append(f)
        else:
            raise TypeError("continuous elimination takes Jacobian/hybrid factors")
    keys = {}
    for f in hybrids:
        keys.update((k.id, k) for k in f.keys)
    keys = tuple(keys[kid] for kid in sorted(keys))
    variables = {v for f in plains for v in f.variables}
    variables.update(v for f in hybrids for v in f.continuous_ids)
    if var not in variables:
        raise UnderconstrainedVariable(f"underconstrained variable: {var!r}")
    has_separator = len(variables) > 1
    if not keys:
        conditional, marginal = _reference_eliminate_cell(plains, var)
        return conditional, marginal if has_separator else None
    cells = [{k.id: v for k, v in zip(keys, cell)} for cell in
             itertools.product(*[range(k.cardinality) for k in keys])]
    live = [all(f.component(a) is not None for f in hybrids) for a in cells]
    allowed = [ok and all(_allowed_by(rows, a) for rows in rules)
               for ok, a in zip(live, cells)]
    if any(allowed):
        live = allowed
    conditionals, separators, residuals = [], [], []
    for assignment, ok in zip(cells, live):
        leaves = [f.component(assignment) for f in hybrids]
        result = None
        if ok:
            c_in = base
            for _, c in leaves:
                c_in += c
            try:
                result = _reference_eliminate_cell(
                    plains + [jf for jf, _ in leaves], var)
            except UnderconstrainedVariable:
                pass
        if result is None:
            conditionals.append(None)
            separators.append(None)
            residuals.append(math.inf)
            continue
        conditional, marginal = result
        c_out = c_in - conditional.log_normalizer
        conditionals.append(conditional)
        separators.append((marginal, c_out))
        if not has_separator:
            residuals.append(marginal.error({}) + c_out)
    if all(c is None for c in conditionals):
        raise UnderconstrainedVariable(
            f"variable unconstrained in every mode: {var!r}")
    conditional = HybridGaussianConditional(
        keys, hybridfg.DecisionTree(keys, conditionals))
    if has_separator:
        return conditional, HybridGaussianFactor.from_components(keys, separators)
    # Potentials exp(-(residual - min residual)), nil cells 0.
    residuals = np.array(residuals)
    finite = np.isfinite(residuals)
    potentials = np.zeros(len(residuals))
    potentials[finite] = np.exp(-(residuals[finite] - residuals[finite].min()))
    return conditional, DiscreteFactor(keys, potentials)


def reference_sum_product(g, ordering):
    """Reference: sum_product as it ran before wavefront elimination, a
    one-at-a-time bucket loop over the ordering; each factor and each
    separator waits in the bucket of its first variable.  Continuous
    variables go through reference_eliminate_continuous, so nothing of the
    batched elimination is used; the joint is the product of the discrete
    buckets' factors, in ordering order, divided by its sum.  The rules of
    every elimination are the nonzero rows of the graph's discrete factors
    that have keys and hold a zero."""
    cont = set(g.continuous_variables())
    rules = []
    for f in g.discrete_factors:
        potentials = f.potentials.leaves
        if f.keys and (potentials == 0).any():
            rules.append([{k.id: v for k, v in zip(f.keys, cell)}
                          for cell in np.ndindex(potentials.shape)
                          if potentials[cell] > 0])
    position = {vid: i for i, vid in enumerate(ordering)}
    buckets = [[] for _ in ordering]

    def place(f):
        ids = ([k.id for k in f.keys] if isinstance(f, DiscreteFactor) else
               f.continuous_ids if isinstance(f, HybridGaussianFactor) else
               f.variables)
        if ids:
            buckets[min(position[v] for v in ids)].append(f)

    for f in g.all_factors():
        place(f)
    conditionals = []
    for vid, bucket in zip(ordering, buckets):
        if vid in cont:
            conditional, separator = reference_eliminate_continuous(
                bucket, vid, rules)
            conditionals.append(conditional)
            if separator is not None:
                place(separator)
    if not g.discrete_keys():
        return HybridBayesNet(conditionals)
    product = multiply_factors([f for vid, bucket in zip(ordering, buckets)
                                if vid not in cont for f in bucket]).potentials
    total = float(product.leaves.sum())
    if not total > 0.0:
        raise ValueError("all discrete assignments are impossible")
    return HybridBayesNet(conditionals, hybridfg.DecisionTree(
        product.keys, product.leaves / total))


def reference_back_substitute(conditionals):
    """Reference: back-substitution one conditional at a time."""
    values = {}
    for cond in reversed(list(conditionals)):
        values[cond.frontal] = cond.solve(values)
    return values


def copy_net(bn):
    """A deep copy of a net: its conditionals view copies of their arrays,
    its joint is a copy."""
    def copy_conditional(c):
        return None if c is None else GaussianConditional._own(
            c.frontal, c._rows.copy(), c._at, c._cols, c.log_normalizer, c.parents)
    conditionals = []
    for c in bn.conditionals:
        if isinstance(c, HybridGaussianConditional):
            leaves = np.array([copy_conditional(x) for x in c.components.leaves.flat],
                              dtype=object).reshape(c.components.leaves.shape)
            c = HybridGaussianConditional._own(hybridfg.DecisionTree._own(
                c.keys, leaves), c.frontals, c.parents)
        else:
            c = copy_conditional(c)
        conditionals.append(c)
    joint = bn.discrete_joint()
    return HybridBayesNet(conditionals, hybridfg.DecisionTree(
        joint.keys, joint.leaves.copy()))


def same_net(a, b) -> bool:
    """Bitwise equal nets: conditionals in the same order, Gaussian ones
    (every live component of a hybrid one, nil at the same cells) as in
    same_conditional, and joints with the same keys and leaves."""
    ja, jb = a.discrete_joint(), b.discrete_joint()
    if len(a.conditionals) != len(b.conditionals) or ja.keys != jb.keys \
            or not same_bits(ja.leaves, jb.leaves):
        return False
    for c1, c2 in zip(a.conditionals, b.conditionals):
        if type(c1) is not type(c2):
            return False
        if isinstance(c1, GaussianConditional):
            if not same_conditional(c1, c2):
                return False
        else:
            l1, l2 = c1.components.leaves.flat, c2.components.leaves.flat
            if c1.keys != c2.keys or not all(
                    (x is None and y is None) or (
                        x is not None and y is not None and same_conditional(x, y))
                    for x, y in zip(l1, l2)):
                return False
    return True


# Reference: SE(2), residuals and whitening as they ran before linearization
# was stacked, one pose and one residual at a time.

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _reference_rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_compose(p1, p2):
    t = np.array([p1.x, p1.y]) + _reference_rotation(p1.theta) @ np.array(
        [p2.x, p2.y])
    return Pose2(t[0], t[1], p1.theta + p2.theta)


def reference_inverse(p):
    t = -(_reference_rotation(p.theta).T @ np.array([p.x, p.y]))
    return Pose2(t[0], t[1], -p.theta)


def reference_between(p1, p2):
    return reference_compose(reference_inverse(p1), p2)


def reference_local(p1, p2):
    return reference_between(p1, p2).as_vector()


def _reference_retract_value(value, delta):
    if isinstance(value, Pose2):
        d = np.asarray(delta, dtype=float).reshape(-1)
        return reference_compose(value, Pose2(d[0], d[1], d[2]))
    return np.asarray(value, dtype=float) + np.asarray(delta, dtype=float)


def reference_retract_values(values, delta):
    return {vid: _reference_retract_value(v, delta[vid]) if vid in delta else v
            for vid, v in values.items()}


def _reference_numerical_jacobians(residual, values, variables):
    out = {}
    for vid in variables:
        value = values[vid]
        dim = 3 if isinstance(value, Pose2) else int(np.asarray(value).size)
        cols = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = FD_STEP
            plus = dict(values)
            plus[vid] = _reference_retract_value(value, e)
            minus = dict(values)
            minus[vid] = _reference_retract_value(value, -e)
            cols.append((residual(plus) - residual(minus)) / (2.0 * FD_STEP))
        out[vid] = np.column_stack(cols)
    return out


def reference_evaluate(res, values):
    """(residual, Jacobians) of one residual, computed on its own."""
    if isinstance(res, BetweenResidual):
        i, j = res.variables
        rel = reference_between(values[i], values[j])
        Rt = _reference_rotation(rel.theta).T
        r = reference_local(rel, res.measurement)
        tm = res.measurement.translation()
        J1 = np.zeros((3, 3))
        J1[:2, :2] = Rt
        J1[:2, 2] = Rt @ (_J @ tm)
        J1[2, 2] = 1.0
        J2 = np.zeros((3, 3))
        J2[:2, :2] = -np.eye(2)
        J2[:2, 2] = -(_J @ r[:2])
        J2[2, 2] = -1.0
        return r, {i: J1, j: J2}
    if isinstance(res, PriorResidual):
        r = reference_local(values[res.variables[0]], res.mean)
        J = np.zeros((3, 3))
        J[:2, :2] = -np.eye(2)
        J[:2, 2] = -(_J @ r[:2])
        J[2, 2] = -1.0
        return r, {res.variables[0]: J}
    if isinstance(res, FuncResidual):
        return res.evaluate(values), _reference_numerical_jacobians(
            res.evaluate, values, res.variables)
    return res.evaluate(values), res.jacobians(values)


def reference_linearize_component(res, noise, values):
    """(whitened factor, constant) of one residual: one solve against the
    noise factor for all Jacobian blocks, one for the right-hand side."""
    r, jacs = reference_evaluate(res, values)
    L = noise.L
    wb = {}
    if jacs:
        W = np.linalg.solve(L, np.hstack(list(jacs.values())))
        c = 0
        for vid, J in jacs.items():
            wb[vid] = W[:, c:c + J.shape[1]]
            c += J.shape[1]
    return JacobianFactor(wb, np.linalg.solve(L, -r)), noise.log_normalizer


def reference_noise_error(noise, r):
    w = np.linalg.solve(noise.L, r)
    return 0.5 * float(w @ w)


def reference_linearize(graph, values):
    """The linearized factors of a nonlinear graph, one residual at a time:
    a JacobianFactor per plain factor, a list of leaves per hybrid one."""
    out = []
    for f in graph.continuous_factors:
        out.append(reference_linearize_component(f.residual, f.noise, values)[0])
    for f in graph.hybrid_factors:
        out.append([None if leaf is None
                    else reference_linearize_component(*leaf, values)
                    for leaf in f.components.leaves.flat])
    return out


def reference_graph_error(graph, values, assignment):
    total = 0.0
    for f in graph.continuous_factors:
        total += reference_noise_error(f.noise,
                                       reference_evaluate(f.residual, values)[0])
    for f in graph.hybrid_factors:
        leaf = f.component(assignment)
        if leaf is None:
            total += math.inf
            continue
        noise = leaf[1]
        total += reference_noise_error(
            noise, reference_evaluate(leaf[0], values)[0]) + noise.log_normalizer
    for f in graph.discrete_factors:
        p = f.value(assignment)
        total += -math.log(p) if p > 0 else math.inf
    return total


def near_pi_angle(rng):
    """An angle within 1e-12 of +pi or -pi, or a plain one."""
    if rng.random() < 0.4:
        return float(rng.choice([-1.0, 1.0])) * (math.pi - rng.uniform(0, 1e-12))
    return rng.uniform(-math.pi, math.pi)


def random_pose(rng):
    return Pose2(rng.uniform(-5, 5), rng.uniform(-5, 5), near_pi_angle(rng))


def _random_sigma(rng, dim):
    kind = rng.integers(3)
    if kind == 0:
        return rng.uniform(0.01, 4.0)
    if kind == 1:
        return rng.uniform(0.01, 4.0, size=dim)
    A = rng.normal(size=(dim, dim))
    return A @ A.T + dim * np.eye(dim)


def _random_residual(rng, poses, vectors):
    """A residual of a random class over random variables."""
    kind = rng.integers(4)
    if kind == 0:
        i, j = rng.choice(len(poses), size=2, replace=False)
        return BetweenResidual(poses[i], poses[j], random_pose(rng))
    if kind == 1:
        return PriorResidual(poses[int(rng.integers(len(poses)))],
                             random_pose(rng))
    dim = int(rng.integers(1, 4))
    if kind == 2:
        picks = rng.choice(len(vectors), size=int(rng.integers(
            1, len(vectors) + 1)), replace=False)[::-1]   # blocks out of id order
        return LinearResidual({vectors[v][0]: rng.normal(size=(dim, vectors[v][1]))
                               for v in picks}, rng.normal(size=dim))
    pose = poses[int(rng.integers(len(poses)))]
    vec = vectors[int(rng.integers(len(vectors)))][0]
    w = rng.normal(size=(dim, 3))

    def fn(values, pose=pose, vec=vec, w=w):
        p, x = values[pose], np.asarray(values[vec], dtype=float)
        feats = np.array([p.x * math.cos(p.theta), p.y + math.sin(p.theta),
                          float(np.sum(x * x))])
        return w @ feats
    return FuncResidual((pose, vec), dim, fn)


def random_nonlinear_graph(rng):
    """A nonlinear hybrid graph over Pose2 and vector variables with
    between, prior, linear and finite-difference residuals; hybrid factors
    over 1-3 keys whose leaves share residuals, differ in noise and are
    sometimes nil.  Returns (graph, values)."""
    poses = [("x", k) for k in range(int(rng.integers(2, 5)))]
    vectors = [(("v", k), int(rng.integers(1, 4)))
               for k in range(int(rng.integers(1, 3)))]
    values = {p: random_pose(rng) for p in poses}
    values.update({v: rng.normal(size=d) for v, d in vectors})
    g = HybridFactorGraph()
    for _ in range(int(rng.integers(1, 5))):
        res = _random_residual(rng, poses, vectors)
        g.add(NonlinearFactor(res, _random_sigma(rng, res.dim)))
    pool = [DiscreteKey(("m", j), int(rng.integers(2, 4))) for j in range(4)]
    for _ in range(int(rng.integers(1, 4))):
        keys = [pool[j] for j in sorted(rng.choice(
            4, size=int(rng.integers(1, 4)), replace=False))]
        first = _random_residual(rng, poses, vectors)
        shared = [first] + [
            r for r in (_random_residual(rng, poses, vectors) for _ in range(2))
            if type(r) is type(first) and r.variables == first.variables
            and r.dim == first.dim]
        n = math.prod(k.cardinality for k in keys)
        leaves = [None if rng.random() < 0.25 else
                  (shared[int(rng.integers(len(shared)))],
                   _random_sigma(rng, first.dim)) for _ in range(n)]
        if all(leaf is None for leaf in leaves):
            leaves[0] = (first, _random_sigma(rng, first.dim))
        g.add(HybridNonlinearFactor.from_components(keys, leaves))
        if rng.random() < 0.3:      # a residual shared across factors too
            g.add(NonlinearFactor(first, _random_sigma(rng, first.dim)))
    return g, values


def random_hybrid_graph(rng, n_cont=4, n_disc=3, with_discrete_factor=True,
                        two_var_hybrids=False):
    """A scalar chain with an anchor prior, plain between factors, and
    hybrid measurements whose modes differ in mean and noise scale.

    Every continuous variable is constrained in every mode, so all modes are
    full rank and the brute-force oracle applies.
    """
    g = HybridFactorGraph()
    xs = [f"x{i}" for i in range(n_cont)]
    g.add(whiten({xs[0]: [[1.0]]}, [rng.normal()], rng.uniform(0.5, 2.0)))
    for i in range(n_cont - 1):
        g.add(whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [rng.normal()],
                     rng.uniform(0.5, 2.0)))
    keys = [DiscreteKey(f"m{j}", 2) for j in range(n_disc)]
    for k in keys:
        if two_var_hybrids and n_cont >= 2 and rng.random() < 0.5:
            i = int(rng.integers(n_cont - 1))
            blocks = {xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}
        else:
            blocks = {xs[int(rng.integers(n_cont))]: [[1.0]]}
        comps = []
        for _ in range(2):
            var = rng.uniform(0.3, 3.0) ** 2
            comps.append((whiten(blocks, [rng.normal(scale=2.0)], var),
                          log_normalization_constant(var)))
        g.add(HybridGaussianFactor.from_components([k], comps))
    if with_discrete_factor and n_disc >= 1 and rng.random() < 0.5:
        k = keys[int(rng.integers(n_disc))]
        g.add(DiscreteFactor([k], rng.uniform(0.1, 1.0, size=2)))
    return g


def mixture_graph():
    """The worked single-variable mixture: prior N(0,1) on x, measurement
    z=1 explained by mode means 0 or 4 with unit measurement noise."""
    m = DiscreteKey("m", 2)
    g = HybridFactorGraph()
    g.add(JacobianFactor({"x": [[1.0]]}, [0.0]))
    c = log_normalization_constant(1.0)
    g.add(HybridGaussianFactor.from_components([m], [
        (whiten({"x": [[1.0]]}, [1.0 - 0.0], 1.0), c),
        (whiten({"x": [[1.0]]}, [1.0 - 4.0], 1.0), c),
    ]))
    return g, m


def hypothesis_chain_graph(rng, n_keys=8):
    """Chain of scalar variables whose between measurements are all
    two-mode: a 2**n_keys joint hypothesis space.

    Mode evidences are drawn with widely varying ratios so the sorted joint
    probabilities are well separated and rank cuts are unambiguous.
    """
    g = HybridFactorGraph()
    xs = [f"x{i}" for i in range(n_keys + 1)]
    g.add(whiten({xs[0]: [[1.0]]}, [0.0], 0.1))
    g.add(whiten({xs[-1]: [[1.0]]}, [float(n_keys)], 0.5))
    for i in range(n_keys):
        k = DiscreteKey(f"m{i}", 2)
        comps = []
        for mode in range(2):
            z = 1.0 + rng.uniform(0.1, 1.7) * mode + rng.normal(scale=0.3)
            var = rng.uniform(0.2, 2.5)
            comps.append((whiten({xs[i]: [[-1.0]], xs[i + 1]: [[1.0]]}, [z], var),
                          log_normalization_constant(var)))
        g.add(HybridGaussianFactor.from_components([k], comps))
    return g


# Largest difference two runs' printed numbers may show when only rounding
# moved between them: the final batch stops at 1e-9 (slam_cli's
# OptimizeConfig tol), the scale of the 9 printed decimals.
OUTPUT_TOL = 5e-9


def output_differences(dir_a, dir_b, tol=OUTPUT_TOL):
    """Lines of trajectory.txt, modes.txt and history.txt in which two runs
    differ: a word without a decimal point (record, index, key, mode value)
    must match exactly, a number with one within `tol`.  Empty when the
    runs agree."""
    diffs = []
    for name in ("trajectory.txt", "modes.txt", "history.txt"):
        with open(os.path.join(dir_a, name), encoding="utf-8") as fh:
            lines_a = fh.read().splitlines()
        with open(os.path.join(dir_b, name), encoding="utf-8") as fh:
            lines_b = fh.read().splitlines()
        if len(lines_a) != len(lines_b):
            diffs.append(f"{name}: {len(lines_a)} lines against {len(lines_b)}")
            continue
        for a, b in zip(lines_a, lines_b):
            wa, wb = a.split(), b.split()
            if len(wa) != len(wb) or not all(
                    abs(float(x) - float(y)) <= tol if "." in x + y else x == y
                    for x, y in zip(wa, wb)):
                diffs.append(f"{name}: {a!r} against {b!r}")
    return diffs


def run_module(module, *args):
    """Run `python -m module args` on this checkout; returns the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridfg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)
