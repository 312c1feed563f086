"""Exact geometric models: CP^d, its unit-sphere circle bundle, and
linear group actions with lifted fiber weights.

The projective space carries the Fubini-Study form normalized so that a
line has symplectic area pi.  With that normalization the horizontal
space of the bundle S^{2d+1} -> CP^d at a unit vector x is the complex
orthocomplement x^perp inside C^{d+1}, and the Kaehler data are the
restrictions of the flat structures:

    rho(u, v) = Re<u, v>,   omega(u, v) = -Im<u, v>,   J = multiplication by i,

with <u, v> = sum_j u_j conj(v_j).  Tangent vectors to CP^d at [x] are
therefore represented as complex vectors orthogonal to x, and all model
geometry is linear algebra in C^{d+1}.

A model's group action is specified by skew-Hermitian generator
matrices A_j (one per Lie-algebra basis element, fiber twists
included).  The lifted contact field of xi is x -> A_xi x, and the
moment map is read off the vertical component:

    <Phi(m), xi> = -Im <A_xi x, x>.

For torus models with lift weights w^(j) the generators are
A_j = -i diag(w^(j)), so monomials z^alpha carry weight <w, alpha> under
the induced Hardy-space action and Phi([z]) = sum_j w_j |z_j|^2.  These
sign conventions are pinned by the Hamilton-vs-2 omega and
Duistermaat-Heckman consistency tests, not by fiat.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .groups import (
    AssumptionViolation,
    HalfWeight,
    adjoint_action,
    build_group,
    dominant_representative,
    embed_cartan_covector,
    half_weight,
    trace_metric,
)

CHART_RADIUS = 0.9


def hermitian_inner(u, v):
    """<u, v> = sum u_j conj(v_j)."""
    return complex(np.vdot(v, u))


def riemann_inner(u, v):
    return hermitian_inner(u, v).real


def symplectic_inner(u, v):
    return -hermitian_inner(u, v).imag


def sphere_distance(x, y):
    """Geodesic distance on the round unit sphere S^{2d+1}.

    Uniformly equivalent to the bundle metric (which rescales the fiber
    to unit length); only the k-scaling of separations enters any fit.
    """
    c = hermitian_inner(x, y).real
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A unit vector in C^{d+1} together with its projective class."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=complex)
        if abs(np.linalg.norm(x) - 1.0) > 1e-14:
            raise ValueError("model points must be unit vectors")
        object.__setattr__(self, "x", x)


def unit_point(coeffs):
    x = np.asarray(coeffs, dtype=complex)
    return x / np.linalg.norm(x)


@dataclass(frozen=True, eq=False)
class LocusSample:
    """On-locus point data: the coset move h_m, the scale sigma(m), and
    the split Cartan directions t_m / t'_m (phi-orthonormal)."""

    model: "ProjectiveModel"
    nu: HalfWeight
    x: np.ndarray
    phi: np.ndarray
    sigma: float
    h: object
    t_basis: tuple
    t_prime_basis: tuple
    residual: float


@dataclass(frozen=True, eq=False)
class ConeDistance:
    """Off-cone report: phi-distance from Phi(m) to the orbit cone."""

    phi: np.ndarray
    distance: float


class ProjectiveModel:
    """Base class; subclasses fix the group, the lift, and the isotypic
    bookkeeping.  All state except ``basis_cache`` is immutable after
    construction."""

    def __init__(self, model_id, group, metric, d, generators, lift_note,
                 default_nu):
        self.id = model_id
        self.group = group
        self.metric = metric
        self.d = d
        self.generators = np.asarray(generators, dtype=complex)   # (dim, d+1, d+1)
        self.lift_note = lift_note
        self.default_nu = half_weight(group, default_nu)
        # (nu coords, k) -> hardy.IsotypicBasis, filled by hardy.isotypic_basis
        self.basis_cache = {}
        for a in self.generators:
            if np.linalg.norm(a + a.conj().T) > 1e-12:
                raise ValueError("generators must be skew-Hermitian")
        self._check_volume()
        self._check_moment_nonvanishing()

    # -- basic geometry ----------------------------------------------------

    @property
    def ambient_dim(self):
        return self.d + 1

    def volume_m(self):
        """vol(M) = vol(X) = pi^d / d! under the line-area-pi normalization."""
        return np.pi ** self.d / _factorial(self.d)

    def point(self, coeffs):
        return unit_point(coeffs)

    def random_point(self, rng):
        z = rng.standard_normal(self.ambient_dim) + 1j * rng.standard_normal(self.ambient_dim)
        return z / np.linalg.norm(z)

    def horizontal(self, x, u):
        """Project an ambient vector onto the horizontal space x^perp."""
        return u - hermitian_inner(u, x) * x

    def generator_field(self, x, xi):
        """A_xi x for an algebra coefficient vector xi."""
        xi = np.asarray(xi, dtype=float)
        a = sum(c * g for c, g in zip(xi, self.generators))
        return a @ x

    def val(self, x, xi):
        """Evaluation map: the induced tangent vector xi_M at [x]."""
        return self.horizontal(x, self.generator_field(x, xi))

    def val_matrix(self, x):
        """All generator fields at once: columns xi_M for the basis."""
        cols = [self.val(x, e) for e in np.eye(self.group.dim)]
        return np.stack(cols, axis=1)

    def moment_map(self, x):
        """Phi([x]) as full coalgebra coordinates; x may be a stack of points."""
        x = np.asarray(x, dtype=complex)
        return -np.einsum("...a,jab,...b->...j", x.conj(), self.generators, x).imag

    def phi_sharp(self, x):
        """Phi([x])^phi as algebra coefficients."""
        return self.metric.sharp_full(self.moment_map(x))

    def moment_norm(self, x):
        return self.metric.norm_covector_full(self.moment_map(x))

    def unitary(self, g):
        """The lifted action of a group element on C^{d+1}."""
        return self.unitary_batch(self.group.check_element(g)[None])[0]

    def unitary_batch(self, gs):
        """Lifted actions of a stack of group elements (not validated)."""
        raise NotImplementedError

    def displace(self, x, theta, v):
        """Heisenberg-chart point x + (theta, v).

        theta-translation is fiber rotation; the theta = 0 curve
        tau -> x + tau v is alpha-horizontal at tau = 0 because v lies
        in x^perp, and the base chart is normal to second order.
        """
        v = np.asarray(v, dtype=complex)
        if abs(hermitian_inner(v, x)) > 1e-10 * max(1.0, np.linalg.norm(v)):
            raise ValueError("displacement must be horizontal (orthogonal to x)")
        nv = np.linalg.norm(v)
        if nv >= CHART_RADIUS:
            raise ValueError(f"displacement norm {nv:.3f} exceeds the chart radius")
        return np.exp(1j * theta) * (np.sqrt(1.0 - nv * nv) * x + v)

    def w_space(self, x):
        """Basis of the h-orthocomplement of g_M(m) inside T_mM.

        Complex-orthocomplement of span_C{xi_M(m)} in x^perp; asserted
        disjoint from the locus normal space in the tests.
        """
        vm = self.val_matrix(x)
        amb = null_space(x[None, :].conj())          # ON basis of x^perp
        coords = amb.conj().T @ vm                    # val vectors in that basis
        if np.linalg.norm(coords) < 1e-14:
            return [amb[:, j] for j in range(amb.shape[1])]
        w_coords = null_space(coords.conj().T)
        return [amb @ w_coords[:, j] for j in range(w_coords.shape[1])]

    # -- locus machinery -----------------------------------------------------

    def locus_decompose(self, nu, x, tol=1e-10):
        """Split Phi(m) = sigma(m) Coad_{h_m}(nu), or report the cone distance.

        Raises
        ------
        AssumptionViolation
            If Phi(m) vanishes (the theory requires the moment image to
            avoid the origin).
        """
        group, metric = self.group, self.metric
        nu = half_weight(group, nu)
        phi = self.moment_map(x)
        nphi = metric.norm_covector_full(phi)
        if nphi < 1e-12:
            raise AssumptionViolation("moment map vanishes at this point")
        q, h = dominant_representative(metric, phi)
        sigma = metric.pair_covectors(q, nu.coords) / metric.norm_covector(nu.coords) ** 2
        residual = metric.norm_covector(q - sigma * nu.coords)
        if sigma <= 0 or residual > tol * max(1.0, nphi):
            distance = metric.norm_covector(q - max(sigma, 0.0) * nu.coords)
            return ConeDistance(phi=phi, distance=distance)
        t_basis = tuple(adjoint_action(group, h, embed_cartan_covector(group, e))
                        for e in np.eye(group.rank))
        t_prime = tuple(adjoint_action(group, h, embed_cartan_covector(group, v))
                        for v in _metric_orthonormal_null(metric, nu.coords))
        return LocusSample(self, nu, np.asarray(x, dtype=complex), phi,
                           float(sigma), h, t_basis, t_prime, residual)

    def d_phi(self, nu, sample):
        """Gram matrix of the pulled-back metric on t'_m and its sqrt-det.

        Returns (D, scalar); the empty determinant convention gives
        scalar 1 when the rank is 1.
        """
        vecs = [self.val(sample.x, eta) for eta in sample.t_prime_basis]
        m = len(vecs)
        if m == 0:
            return np.zeros((0, 0)), 1.0
        D = np.empty((m, m))
        for a in range(m):
            for b in range(m):
                D[a, b] = riemann_inner(vecs[a], vecs[b])
        eigs = np.linalg.eigvalsh(D)
        if eigs.min() <= 0:
            raise AssumptionViolation(
                "pulled-back metric on t'_m is not positive definite "
                "(transversality of the moment map fails here)")
        return D, float(np.sqrt(np.linalg.det(D)))

    def normal_space(self, nu, sample):
        """Basis {J(eta_M)} of the locus normal space; dimension rank-1."""
        basis = [1j * self.val(sample.x, eta) for eta in sample.t_prime_basis]
        expected = self.group.rank - 1
        if len(basis) != expected:
            raise AssumptionViolation(
                f"normal space has dimension {len(basis)}, expected {expected}")
        return basis

    def projective_torus_multiplicity(self):
        """Generic stabilizer order of the induced Cartan-torus action on M.

        The Cartan generators are diagonal, so coordinate j picks up the
        phase rho_j . theta; projectively the action factors through the
        quotient by the overall phase and the generic stabilizer order is
        |det| of the phase-row differences (d = 2, r = 2 only, which is
        all the locus line quadrature needs).
        """
        r = self.group.rank
        rows = np.array([[self.generators[i][j, j].imag for i in range(r)]
                         for j in range(self.ambient_dim)])
        rows = np.rint(rows).astype(int)
        diffs = rows[1:] - rows[0]
        if diffs.shape != (2, 2):
            raise ValueError("orbit multiplicity implemented for d = 2, r = 2 models")
        det = int(round(np.linalg.det(diffs.astype(float))))
        if det == 0:
            raise AssumptionViolation("Cartan torus acts with positive-dimensional stabilizer")
        return abs(det)

    # -- isotypic bookkeeping -------------------------------------------------

    def isotypic_exponents(self, nu, k):
        """Monomial exponents spanning the k nu isotypic subspace."""
        raise NotImplementedError

    def valid_k(self, k):
        """Snap k to the nearest valid label multiplier (is a no-op unless
        the lattice constrains k, as it does for U(2))."""
        return int(k)

    def default_locus_point(self, nu=None):
        raise NotImplementedError

    # -- construction-time checks ---------------------------------------------

    def _check_volume(self):
        """vol(X) under (1/2 pi) alpha wedge pi* dV_M equals pi^d/d!."""
        nodes, weights = simplex_quadrature(self.d, 24)
        total = weights.sum()                         # = vol(simplex) = 1/d!
        vol_x = (2 * np.pi) ** self.d / 2 ** self.d * total
        target = np.pi ** self.d / _factorial(self.d)
        if abs(vol_x - target) > 1e-10 * target:
            raise AssumptionViolation("circle-bundle volume normalization broken")

    def _check_moment_nonvanishing(self):
        # the draw matches 400 successive random_point calls, then the vertices
        z = np.random.default_rng(11).standard_normal((400, 2, self.ambient_dim))
        z = z[:, 0] + 1j * z[:, 1]
        points = np.concatenate([z / np.linalg.norm(z, axis=1, keepdims=True),
                                 np.eye(self.ambient_dim)])
        phi = self.moment_map(points)
        norms = np.sqrt(np.einsum("nj,jn->n", phi, np.linalg.solve(self.metric.gram, phi.T)))
        worst = float(norms.min())
        if worst < 1e-3:
            raise AssumptionViolation(
                f"moment map nearly vanishes on {self.id} (min |Phi| = {worst:.2e})")
        self.min_moment_norm = worst

    def config(self):
        return {
            "id": self.id,
            "group": self.group.name,
            "d": self.d,
            "lift": self.lift_note,
            "default_nu": list(self.default_nu.coords),
            "metric_scale": self.metric.scale,
        }


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def simplex_quadrature(d, n):
    """Nodes/weights for int_{Delta_d} f(t) dt_1..dt_d, t_0 = 1 - sum.

    Returns barycentric nodes of shape (N, d+1); weights sum to 1/d!.
    Gauss-Legendre tensor rule (Duffy map for d = 2, nested for d = 3).
    """
    from numpy.polynomial.legendre import leggauss
    xs, ws = leggauss(n)
    xs = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    if d == 1:
        nodes = np.stack([1.0 - xs, xs], axis=1)
        return nodes, ws
    if d == 2:
        nodes, weights = [], []
        for u, wu in zip(xs, ws):
            for v, wv in zip(xs, ws):
                t1, t2 = u, v * (1.0 - u)
                nodes.append([1.0 - t1 - t2, t1, t2])
                weights.append(wu * wv * (1.0 - u))
        return np.array(nodes), np.array(weights)
    if d == 3:
        nodes, weights = [], []
        for u, wu in zip(xs, ws):
            for v, wv in zip(xs, ws):
                for w, ww in zip(xs, ws):
                    t1 = u
                    t2 = v * (1.0 - u)
                    t3 = w * (1.0 - u) * (1.0 - v)
                    nodes.append([1.0 - t1 - t2 - t3, t1, t2, t3])
                    weights.append(wu * wv * ww * (1.0 - u) ** 2 * (1.0 - v))
        return np.array(nodes), np.array(weights)
    raise ValueError("simplex quadrature implemented for d <= 3")


# -- torus models -------------------------------------------------------------


class TorusModel(ProjectiveModel):
    """Torus T^r acting linearly on CP^d with integer lift weights.

    ``weights`` is an (r, d+1) integer matrix; generator j acts on X by
    x -> exp(-i theta diag(weights[j])) x.
    """

    def __init__(self, model_id, weights, default_nu, metric=None):
        weights = np.asarray(weights, dtype=int)
        r, m = weights.shape
        group = build_group("torus", r)
        metric = metric or trace_metric(group)
        if metric.group.rank != r:
            raise ValueError("metric rank does not match the weight matrix")
        if np.any(weights < 0):
            raise ValueError("torus models require nonnegative lift weights")
        gens = [-1j * np.diag(weights[j].astype(float)) for j in range(r)]
        self.weights = weights
        note = "fiber weights " + ";".join(",".join(str(w) for w in row) for row in weights)
        super().__init__(model_id, group, metric, m - 1, gens, note, default_nu)
        self._positive_functional = self._find_positive_functional()

    def _find_positive_functional(self):
        for cand in [np.ones(self.group.rank), self.default_nu.coords]:
            proj = cand @ self.weights
            if np.all(proj > 0):
                return cand
        raise AssumptionViolation("weight columns are not contained in an open half-space")

    def unitary_batch(self, gs):
        thetas = np.asarray(gs, dtype=float)
        phases = np.exp(-1j * thetas @ self.weights)
        out = np.zeros((len(thetas), self.ambient_dim, self.ambient_dim), dtype=complex)
        idx = np.arange(self.ambient_dim)
        out[:, idx, idx] = phases
        return out

    def isotypic_exponents(self, nu, k):
        """Lattice points {alpha >= 0 : W alpha = k nu}, vectorized.

        Solves for r pivot coordinates after enumerating the free ones,
        whose ranges are bounded by a strictly positive functional on
        the weight columns; every candidate is verified exactly in
        integer arithmetic.
        """
        nu = half_weight(self.group, nu)
        target = np.round(k * nu.coords).astype(np.int64)
        if np.max(np.abs(k * nu.coords - target)) > 1e-9:
            return np.zeros((0, self.ambient_dim), dtype=int)
        if np.any(target < 0):
            return np.zeros((0, self.ambient_dim), dtype=int)
        W = self.weights.astype(np.int64)
        r, m = W.shape
        pivots = self._pivot_columns
        free = [j for j in range(m) if j not in pivots]
        inv_p = np.linalg.inv(W[:, pivots].astype(float))
        c = self._positive_functional
        cap = float(c @ target)
        cw = c @ self.weights
        if free:
            axes = [np.arange(int(np.floor(cap / cw[j] + 1e-9)) + 1) for j in free]
            grids = np.meshgrid(*axes, indexing="ij")
            F = np.stack([g.ravel() for g in grids], axis=-1).astype(np.int64)
            rhs = target[None, :] - F @ W[:, free].T
        else:
            F = np.zeros((1, 0), dtype=np.int64)
            rhs = target[None, :]
        a_p = np.rint(rhs @ inv_p.T).astype(np.int64)
        ok = np.all(a_p >= 0, axis=1) & np.all(F >= 0, axis=1) \
            & np.all(a_p @ W[:, pivots].T == rhs, axis=1)
        a_p, F = a_p[ok], F[ok]
        out = np.zeros((len(a_p), m), dtype=int)
        out[:, pivots] = a_p
        if free:
            out[:, free] = F
        order = np.lexsort(out.T[::-1])
        return out[order]

    @property
    def _pivot_columns(self):
        """First r weight columns forming an invertible integer matrix."""
        if not hasattr(self, "_pivot_cache"):
            from itertools import combinations
            r, m = self.weights.shape
            for cols in combinations(range(m), r):
                if abs(np.linalg.det(self.weights[:, cols].astype(float))) > 0.5:
                    self._pivot_cache = list(cols)
                    break
            else:
                raise AssumptionViolation("weight matrix has rank below the torus rank")
        return self._pivot_cache

    def default_locus_point(self, nu=None):
        nu = self.default_nu if nu is None else half_weight(self.group, nu)
        t = self._default_simplex_point(nu)
        return self.point(np.sqrt(t))

    def _default_simplex_point(self, nu):
        if self.group.rank == 1:
            if self.d == 1:
                return np.array([0.6, 0.4])
            return np.array([0.5, 0.3, 0.2])
        return self.locus_simplex_curve(nu)(0.5)

    def locus_simplex_curve(self, nu):
        """For r = 2, d = 2 catalog models: the locus segment s -> t(s)."""
        raise ValueError(f"{self.id} does not provide a locus curve")


class T2CP2Model(TorusModel):
    """T^2 on CP^2 with lift weights (1,0,1) and (0,1,1)."""

    def __init__(self, metric=None):
        super().__init__("t2-cp2", [[1, 0, 1], [0, 1, 1]], (2.0, 1.0), metric)

    def locus_simplex_curve(self, nu):
        nu = half_weight(self.group, nu)
        n1, n2 = nu.coords
        if n1 <= 0 or n2 <= 0:
            raise AssumptionViolation(
                f"locus of nu = {nu.coords} is empty for {self.id} "
                "(the ray misses the moment image)")
        s_max = n2 / (n1 + n2)

        def t_of_s(s):
            # s in [0, 1] sweeps t2 in [0, s_max]
            t2 = s * s_max
            sigma = (1.0 - t2) / n1
            t3 = sigma * n2 - t2
            t1 = 1.0 - t2 - t3
            return np.array([t1, t2, t3])

        return t_of_s


def _metric_orthonormal_null(metric, nu_coords):
    """phi-orthonormal basis of {eta in t : <nu, eta> = 0}."""
    basis = null_space(np.asarray(nu_coords, dtype=float)[None, :])
    gram_t = metric.gram[:len(nu_coords), :len(nu_coords)]
    out = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        for u in out:
            v = v - (u @ gram_t @ v) * u
        v = v / np.sqrt(v @ gram_t @ v)
        out.append(v)
    return out


# -- SU(2) on CP^1 -------------------------------------------------------------


class SU2CP1Model(ProjectiveModel):
    """SU(2) acting on CP^1 through the defining representation."""

    def __init__(self, metric=None):
        group = build_group("su", 2)
        metric = metric or trace_metric(group)
        gens = [np.asarray(b) for b in group.basis_matrices]
        super().__init__("su2-cp1", group, metric, 1, gens,
                         "defining representation, no fiber twist", (1.0,))

    def unitary_batch(self, gs):
        return np.asarray(gs, dtype=complex)

    def isotypic_exponents(self, nu, k):
        nu = half_weight(self.group, nu)
        level = int(round(k * nu.coords[0])) - 1
        if level < 0:
            return np.zeros((0, 2), dtype=int)
        return np.array([[a, level - a] for a in range(level + 1)], dtype=int)

    def default_locus_point(self, nu=None):
        return self.point([np.sqrt(0.7), np.sqrt(0.3)])


# -- U(2) on CP^2 ---------------------------------------------------------------


class U2CP2Model(ProjectiveModel):
    """U(2) on CP^2 = P(C^2 + C): mu_g(v, c) = (g v, det(g)^{-1} c).

    The det^{-1} twist on the extra coordinate keeps the lifted action
    genuinely free along the locus and moves the moment image off the
    origin.  Labels k nu are only integral for odd k, so
    :meth:`valid_k` snaps even k to the next odd value.
    """

    def __init__(self, metric=None):
        group = build_group("u", 2)
        metric = metric or trace_metric(group)
        gens = []
        for b in group.basis_matrices:
            a = np.zeros((3, 3), dtype=complex)
            a[:2, :2] = b
            a[2, 2] = -np.trace(b)
            gens.append(a)
        super().__init__("u2-cp2", group, metric, 2, gens,
                         "defining rep on C^2, det^-1 twist on the third coordinate",
                         (1.5, 0.5))

    def unitary_batch(self, gs):
        gs = np.asarray(gs, dtype=complex)
        out = np.zeros((len(gs), 3, 3), dtype=complex)
        out[:, :2, :2] = gs
        out[:, 2, 2] = 1.0 / np.linalg.det(gs)
        return out

    def valid_k(self, k):
        k = int(k)
        return k if k % 2 == 1 else k + 1

    def isotypic_exponents(self, nu, k):
        nu = half_weight(self.group, nu)
        if not nu.scaling_is_valid(k):
            return np.zeros((0, 3), dtype=int)
        lam = k * nu.coords - self.group.delta
        l1, l2 = int(round(lam[0])), int(round(lam[1]))
        # level pieces Sym^{n-e}((C^2)*) (x) det^e have highest weight (e, 2e - n)
        e = l1
        n = 2 * e - l2
        m = n - e
        if m < 0 or e < 0:
            return np.zeros((0, 3), dtype=int)
        return np.array([[a, m - a, e] for a in range(m + 1)], dtype=int)

    def locus_parameters(self, nu=None):
        """(t, sigma): the locus level ||v||^2 = t and the cone scale."""
        nu = self.default_nu if nu is None else half_weight(self.group, nu)
        n1, n2 = nu.coords
        t = (n1 - n2) / (2 * n1 - n2)
        if not 0.0 < t < 1.0:
            raise AssumptionViolation(f"locus of nu = {nu.coords} is empty for {self.id}")
        sigma = (1.0 - t) / n1
        return float(t), float(sigma)

    def locus_simplex_curve(self, nu=None):
        """Locus segment in toric coordinates (|v1|^2, |v2|^2, |c|^2)."""
        t, _ = self.locus_parameters(nu)

        def t_of_s(s):
            tau1 = s * t
            return np.array([tau1, t - tau1, 1.0 - t])

        return t_of_s

    def default_locus_point(self, nu=None):
        t, _ = self.locus_parameters(nu)
        return self.point([np.sqrt(0.6 * t), np.sqrt(0.4 * t), np.sqrt(1.0 - t)])


# -- catalog -------------------------------------------------------------------


def build_model(model_id, metric_scale=1.0):
    """Instantiate a catalog model by string id.

    Catalog: ``s1-cp1-w12`` (S^1 on CP^1, weights (1,2)),
    ``s1-cp2-w123`` (S^1 on CP^2, weights (1,2,3)), ``t2-cp2``
    (T^2 on CP^2, weights (1,0,1)/(0,1,1)), ``su2-cp1`` and ``u2-cp2``.
    """
    model_id = model_id.lower()
    if model_id == "s1-cp1-w12":
        group = build_group("torus", 1)
        return TorusModel("s1-cp1-w12", [[1, 2]], (1.0,),
                          trace_metric(group, metric_scale))
    if model_id == "s1-cp2-w123":
        group = build_group("torus", 1)
        return TorusModel("s1-cp2-w123", [[1, 2, 3]], (1.0,),
                          trace_metric(group, metric_scale))
    if model_id == "t2-cp2":
        group = build_group("torus", 2)
        return T2CP2Model(trace_metric(group, metric_scale))
    if model_id == "su2-cp1":
        group = build_group("su", 2)
        return SU2CP1Model(trace_metric(group, metric_scale))
    if model_id == "u2-cp2":
        group = build_group("u", 2)
        return U2CP2Model(trace_metric(group, metric_scale))
    raise ValueError(f"unknown model id {model_id!r}; see build_model.__doc__")


MODEL_IDS = ("s1-cp1-w12", "s1-cp2-w123", "t2-cp2", "su2-cp1", "u2-cp2")


def find_locus_point(model, nu=None, seeds=200, tol=1e-12, rng=None):
    """Locate a point of M_O by refining cone-distance minimizers.

    Grid/random seeds followed by Nelder-Mead refinement of the squared
    cone distance.  Raises :class:`AssumptionViolation` when the locus
    is empty (nothing comes close to the cone).
    """
    from scipy.optimize import minimize

    group = model.group
    nu = model.default_nu if nu is None else half_weight(group, nu)
    rng = np.random.default_rng(5) if rng is None else rng

    def distance_of(vec):
        x = unit_point(vec[:model.ambient_dim] + 1j * vec[model.ambient_dim:])
        out = model.locus_decompose(nu, x, tol=1e-9)
        if isinstance(out, LocusSample):
            return 0.0, x
        return out.distance, x

    best = (np.inf, None)
    for _ in range(seeds):
        vec = rng.standard_normal(2 * model.ambient_dim)
        d, x = distance_of(vec)
        if d < best[0]:
            best = (d, vec)
    res = minimize(lambda v: distance_of(v)[0] ** 2, best[1],
                   method="Nelder-Mead",
                   options={"xatol": 1e-14, "fatol": 1e-26, "maxiter": 4000})
    dist, x = distance_of(res.x)
    if dist > 1e-6:
        raise AssumptionViolation(
            f"locus of nu = {nu.coords} appears empty on {model.id} "
            f"(best refined cone distance {dist:.3g})")
    sample = model.locus_decompose(nu, x, tol=max(tol, 1e-8))
    return sample
