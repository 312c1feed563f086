"""Independent oracles used across the test suite.

Everything here is deliberately primitive: explicit weight enumeration,
Gelfand-Tsetlin counting, finite differences, and brute-force lattice
scans.  None of it shares code paths with the library implementations
it checks.
"""

import math

import numpy as np


def random_sphere_point(d, rng):
    """A Gaussian unit vector of C^{d+1}: d + 1 real parts, then d + 1
    imaginary parts, from rng."""
    z = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return z / np.linalg.norm(z)


def coadjoint(basis_matrices, g, gamma):
    """Coad_g gamma on full coalgebra coordinates, from its definition
    <Coad_g gamma, xi> = <gamma, Ad_{g^-1} xi>.

    The value on basis matrix B_m is gamma paired with the coordinates of
    g^-1 B_m g, which are found by least squares in the real span of the
    basis (entries split into real and imaginary parts), not by the
    library's trace-form projection.
    """
    basis = np.asarray(basis_matrices, dtype=complex)
    g = np.asarray(g, dtype=complex)

    def real_rows(mats):
        flat = mats.reshape(len(mats), -1)
        return np.concatenate([flat.real, flat.imag], axis=1).T

    moved = np.linalg.inv(g) @ basis @ g
    coords, *_ = np.linalg.lstsq(real_rows(basis), real_rows(moved), rcond=None)
    return np.asarray(gamma, dtype=float) @ coords


def su2_character_weight_sum(nu, theta):
    """chi_nu(e^{theta Z}) = sum_{j=0}^{nu-1} e^{i (nu-1-2j) theta}."""
    nu = int(round(nu))
    return sum(np.exp(1j * (nu - 1 - 2 * j) * theta) for j in range(nu))


def u2_character_weight_sum(lam1, lam2, theta1, theta2):
    """Character of the U(2) irrep with highest weight (lam1, lam2),
    evaluated at diag(e^{i theta1}, e^{i theta2}), by explicit weight
    enumeration of Sym^{lam1-lam2} (x) det^{lam2}."""
    total = 0.0 + 0.0j
    for j in range(lam1 - lam2 + 1):
        w1, w2 = lam1 - j, lam2 + j
        total += np.exp(1j * (w1 * theta1 + w2 * theta2))
    return total


def gt_dimension(lam):
    """U(n) irrep dimension by counting Gelfand-Tsetlin patterns."""
    lam = [int(round(x)) for x in lam]
    if len(lam) == 1:
        return 1
    total = 0
    for mu in _interlacings(lam):
        total += gt_dimension(mu)
    return total


def _interlacings(lam):
    n = len(lam)
    def rec(i, prefix):
        if i == n - 1:
            yield prefix
            return
        lo, hi = lam[i + 1], lam[i]
        start = lo if not prefix else max(lo, -10**9)
        for m in range(lo, hi + 1):
            if prefix and m > prefix[-1]:
                continue
            yield from rec(i + 1, prefix + [m])
    yield from rec(0, [])


def su2_weight_count(nu):
    """Number of weights (with multiplicity) of the irrep labeled nu."""
    return len([j for j in range(int(round(nu)))])


def finite_difference_exp_jacobian(basis_matrices, xi_coeffs, h=1e-5):
    """|det d(exp)_xi| against the left-invariant frame, by central
    differences of the matrix exponential; equals P(xi)^2.  As the
    determinant of an endomorphism of the algebra it is independent of
    the (fixed) coefficient basis."""
    from scipy.linalg import expm

    dim = len(basis_matrices)
    xi = sum(c * np.asarray(b) for c, b in zip(xi_coeffs, basis_matrices))
    e_xi_inv = np.linalg.inv(expm(xi))
    base = np.array([[-np.trace(np.asarray(a) @ np.asarray(b)).real
                      for b in basis_matrices] for a in basis_matrices])
    cols = []
    for j in range(dim):
        eta = np.asarray(basis_matrices[j])
        d = e_xi_inv @ (expm(xi + h * eta) - expm(xi - h * eta)) / (2 * h)
        vals = np.array([-np.trace(d @ np.asarray(b)).real for b in basis_matrices])
        cols.append(np.linalg.solve(base, vals))
    return abs(np.linalg.det(np.stack(cols, axis=1)))


def lattice_points(weights, target):
    """Brute-force list of {alpha >= 0 : W alpha = target} (as tuples) by
    scanning the full box (independent of the library's pivot solver and
    of its counting pass)."""
    from itertools import product

    W = np.asarray(weights, dtype=int)
    target = np.asarray(target, dtype=int)
    bound = int(target.max()) + 1
    return [alpha for alpha in product(range(bound), repeat=W.shape[1])
            if np.array_equal(W @ np.array(alpha), target)]


def lattice_points_nested(weights, target, pivots, free):
    """{alpha >= 0 : W alpha = target} (as tuples) in nested-loop order.

    The free columns are looped over outer to inner, each ascending from 0
    while its column sum times it fits in what is left of sum(target);
    the pivot coordinates are solved from W[:, pivots] a = target -
    W[:, free] F by Gauss-Jordan elimination in fractions.Fraction, and a
    row is kept iff a is integral and >= 0.
    """
    from fractions import Fraction

    W = np.asarray(weights, dtype=int).tolist()
    target = [int(t) for t in target]
    r, m = len(W), len(W[0])
    sums = [sum(row[j] for row in W) for j in range(m)]
    rows = []

    def solve(rhs):
        a = [[Fraction(W[i][p]) for p in pivots] + [Fraction(rhs[i])] for i in range(r)]
        for c in range(r):
            lead = next(i for i in range(c, r) if a[i][c] != 0)
            a[c], a[lead] = a[lead], a[c]
            pivot = a[c][c]
            a[c] = [v / pivot for v in a[c]]
            for i in range(r):
                factor = a[i][c]
                if i != c and factor:
                    a[i] = [vi - factor * vc for vi, vc in zip(a[i], a[c])]
        return [row[r] for row in a]

    def loop(fixed, left):
        if len(fixed) < len(free):
            s = sums[free[len(fixed)]]
            for v in range(left // s + 1):
                loop(fixed + [v], left - v * s)
            return
        rhs = [target[i] - sum(W[i][j] * v for j, v in zip(free, fixed)) for i in range(r)]
        solved = solve(rhs)
        if all(v.denominator == 1 and v >= 0 for v in solved):
            alpha = [0] * m
            for j, v in zip(list(free) + list(pivots), fixed + solved):
                alpha[j] = int(v)
            rows.append(tuple(alpha))

    loop([], sum(target))
    return rows


def lattice_count(weights, target):
    """Brute-force count of {alpha >= 0 : W alpha = target}."""
    return len(lattice_points(weights, target))


def coin_change_count(weights, total):
    """#{alpha >= 0 : weights . alpha = total} for positive integer weights,
    by an int64 coin-change table of total + 1 entries: adding weight w
    turns the table c into c[n] + c[n - w] + c[n - 2w] + ..., a running
    sum along each residue class mod w.  Every entry is bounded by
    C(total + d, d) (d + 1 = len(weights)), which must fit in int64."""
    from math import comb

    d = len(weights) - 1
    if comb(total + d, d) > np.iinfo(np.int64).max:
        raise ValueError("the count can overflow int64")
    ways = np.zeros(total + 1, dtype=np.int64)
    ways[0] = 1
    for w in weights:
        for r in range(w):
            ways[r::w] = np.cumsum(ways[r::w])
    return int(ways[total])


def simplex_quadrature_loop(d, n):
    """The simplex rule of ``models.simplex_quadrature`` built node by node
    in Python loops (its former implementation): Gauss-Legendre on [0, 1],
    the Duffy map for d = 2 and the nested map for d = 3."""
    from numpy.polynomial.legendre import leggauss

    xs, ws = leggauss(n)
    xs = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    nodes, weights = [], []
    if d == 2:
        for u, wu in zip(xs, ws):
            for v, wv in zip(xs, ws):
                t1, t2 = u, v * (1.0 - u)
                nodes.append([1.0 - t1 - t2, t1, t2])
                weights.append(wu * wv * (1.0 - u))
    elif d == 3:
        for u, wu in zip(xs, ws):
            for v, wv in zip(xs, ws):
                for w, ww in zip(xs, ws):
                    t1 = u
                    t2 = v * (1.0 - u)
                    t3 = w * (1.0 - u) * (1.0 - v)
                    nodes.append([1.0 - t1 - t2 - t3, t1, t2, t3])
                    weights.append(wu * wv * ww * (1.0 - u) ** 2 * (1.0 - v))
    else:
        raise ValueError("the loop reference covers d = 2 and d = 3")
    return np.array(nodes), np.array(weights)


def monomial_log_norms_gammaln(d, alphas):
    """log ||z^alpha||^2 = d log pi + sum_j log alpha_j! - log (|alpha| + d)!
    with gammaln called on every exponent entry (no log-factorial table)."""
    from scipy.special import gammaln

    alphas = np.asarray(alphas, dtype=int)
    n = alphas.sum(axis=1)
    return d * np.log(np.pi) + gammaln(alphas + 1.0).sum(axis=1) - gammaln(n + d + 1.0)


def fiber_phase_moment(model, x, xi_coeffs, h=1e-6):
    """<Phi, xi> = -alpha(xi_X) by finite differences of the lifted flow."""
    from scipy.linalg import expm

    a = sum(c * g for c, g in zip(xi_coeffs, model.generators))
    flow = expm(h * a) @ x
    velocity = (flow - x) / h
    alpha_val = np.imag(np.vdot(x, velocity))  # Im<velocity, x>
    return -alpha_val


def lifted_action(model, gs):
    """The lifted actions on C^{d+1} of a stack of group elements, by the
    catalog's lift rules: diag(e^{-i theta . W}) for torus angles theta
    (W the model's weight matrix), g itself on su2-cp1 and the block
    matrix (g, det(g)^{-1}) on u2-cp2."""
    if model.group.kind == "torus":
        phases = np.exp(-1j * np.asarray(gs, dtype=float) @ model.weights)
        return phases[:, :, None] * np.eye(model.ambient_dim)
    gs = np.asarray(gs, dtype=complex)
    if model.group.kind == "su":
        return gs
    out = np.zeros((len(gs), 3, 3), dtype=complex)
    out[:, :2, :2] = gs
    out[:, 2, 2] = 1.0 / np.linalg.det(gs)
    return out


def _euler_product(params):
    """Rz(alpha) Ry(beta) Rz(gamma) e^{i tau} for each row (alpha, beta,
    gamma[, tau]) of params, multiplied out matrix by matrix, with
    Rz(t) = diag(e^{it/2}, e^{-it/2}) and Ry(t) the real rotation by t/2."""
    params = np.atleast_2d(np.asarray(params, dtype=float))

    def rz(t):
        out = np.zeros((len(t), 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 1, 1] = np.exp(0.5j * t), np.exp(-0.5j * t)
        return out

    def ry(t):
        out = np.empty((len(t), 2, 2), dtype=complex)
        out[:, 0, 0] = out[:, 1, 1] = np.cos(t / 2)
        out[:, 1, 0] = np.sin(t / 2)
        out[:, 0, 1] = -out[:, 1, 0]
        return out

    out = rz(params[:, 0]) @ ry(params[:, 1]) @ rz(params[:, 2])
    if params.shape[1] == 4:
        out *= np.exp(1j * params[:, 3])[:, None, None]
    return out


def _orbit_grid(model, x, y):
    """The orbit-separation search grid: its nodes and a distance map."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    group = model.group
    if group.kind == "torus":
        n = 1024 if group.rank == 1 else 64
        axes = [2 * np.pi * np.arange(n) / n] * group.rank
        elements = lambda p: p
    else:
        n = 32 if group.kind == "su" else 24
        axes = [np.linspace(0, 2 * np.pi, n, endpoint=False),
                np.linspace(0, np.pi, n // 2 + 1),
                np.linspace(0, 4 * np.pi, n, endpoint=False)]
        if group.kind == "u":
            axes.append(np.linspace(0, np.pi, n // 2, endpoint=False))
        elements = _euler_product

    def distances(params):
        moved = np.einsum("nij,j->ni", lifted_action(model, elements(params)), x)
        # the chord form: arccos of the inner product is accurate only to
        # about sqrt(eps) = 1.5e-8 near 0, and to eps / sin(distance) above
        gaps = np.linalg.norm(moved - y, axis=1)
        return 2 * np.arcsin(np.minimum(gaps / 2, 1.0))

    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return grid, distances


def orbit_separation_grid(model, x, y):
    """The smallest round-sphere distance from G x to y over the grid nodes."""
    grid, distances = _orbit_grid(model, x, y)
    return float(np.min(distances(grid)))


def orbit_separation_nelder_mead(model, x, y):
    """dist_X(G x, G y): the orbit-separation grid, then scipy's Nelder-Mead
    polish of the best node (xatol 1e-12, fatol 1e-14); the library solves
    the same minimum in closed form."""
    from scipy.optimize import minimize

    grid, distances = _orbit_grid(model, x, y)
    dists = distances(grid)
    i = int(np.argmin(dists))
    res = minimize(lambda p: distances(p[None, :])[0], grid[i], method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return float(min(dists[i], res.fun))


def level_kernel_closed(d, n, x, y):
    """Level-n Szego kernel in closed form, (dim_n / vol(X)) <x, y>^n with
    dim_n = C(n + d, d) and vol(X) = pi^d / d!."""
    dim = 1.0
    for j in range(1, d + 1):
        dim *= (n + j) / j
    vol = np.pi ** d / np.prod(np.arange(1, d + 1)) if d else 1.0
    return dim / vol * complex(np.vdot(np.asarray(y, complex), np.asarray(x, complex))) ** n


def szego_kernel(d, x, y):
    """Full Szego kernel (1/vol(X)) (1 - <x,y>)^{-(d+1)} for <x,y> != 1."""
    t = complex(np.vdot(np.asarray(y, complex), np.asarray(x, complex)))
    vol = np.pi ** d / np.prod(np.arange(1, d + 1)) if d else 1.0
    return 1.0 / (vol * (1.0 - t) ** (d + 1))


def _su2_volume_quadrature(c):
    """vol^phi(SU(2)) for phi = c * trace form, by radial integration of
    the squared exp-map Jacobian over the injectivity ball: xi with
    eigen-angles +-rho has P(xi) = sin(rho)/rho and ||xi||_phi =
    sqrt(2 c) rho, injective for rho < pi."""
    x, w = np.polynomial.legendre.leggauss(200)
    rho = 0.5 * np.pi * (x + 1.0)
    integrand = np.sin(rho) ** 2  # (sin rho / rho)^2 * rho^2
    return (2 * c) ** 1.5 * 4 * np.pi * float((0.5 * np.pi * w) @ integrand)


def group_volumes_quadrature(metric):
    """vol^phi(G) for a torus, SU(2) or U(2), independent of the library's
    closed forms.

    Torus with Gram A: (2 pi)^r sqrt(det A).  SU(2): radial quadrature.
    U(2): the central circle {e^{i t} I} times SU(2), divided by the
    order-2 intersection.  Returns None for other groups.
    """
    group = metric.group
    if group.kind == "torus":
        gram = np.asarray(metric.gram, dtype=float)
        return (2 * np.pi) ** len(gram) * np.sqrt(np.linalg.det(gram))
    c = metric.scale
    if (group.kind, group.n) == ("su", 2):
        return _su2_volume_quadrature(c)
    if (group.kind, group.n) == ("u", 2):
        circle = 2 * np.pi * np.sqrt(2 * c)
        return _su2_volume_quadrature(c) * circle / 2.0
    return None


def monomial_sum_mp(alphas, x, y, dps=60):
    """(sum, sum of |terms|) of x^a conj(y)^a / ||z^a||^2 over the rows of
    alphas, in mpmath at dps digits, as mpmath numbers.

    The norms are exact: ||z^a||^2 = vol(X) a! d! / (|a| + d)! with
    vol(X) = pi^d / d!, the factorials as integers, so nothing is read
    from a log-factorial table.
    """
    import mpmath

    with mpmath.workdps(dps):
        xs = [mpmath.mpc(complex(v)) for v in x]
        ys = [mpmath.mpc(complex(v)).conjugate() for v in y]
        d = len(xs) - 1
        scale = mpmath.pi ** d
        total, magnitude = mpmath.mpc(0), mpmath.mpf(0)
        for a in np.asarray(alphas).tolist():
            norm_sq = scale * math.prod(math.factorial(j) for j in a) \
                / math.factorial(sum(a) + d)
            term = math.prod((xs[j] * ys[j]) ** a[j] for j in range(d + 1)) / norm_sq
            total += term
            magnitude += abs(term)
        return +total, +magnitude
