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

import math
from functools import cached_property, partial

import numpy as np
from numpy.random import default_rng

from .groups import (
    AssumptionViolation,
    UnsupportedGroupError,
    adjoint_action,
    build_group,
    dominant_representative,
    gauss_legendre,
    half_weight,
    scalar_or_stack,
    trace_metric,
)

CHART_RADIUS = 0.9
# Largest exponent an isotypic basis stores: its exponent arrays are int32.
_INT32_MAX = int(np.iinfo(np.int32).max)
# Largest build a basis, the log-factorial table or a coin-change count
# may take: a quarter of an 8 GB machine.  k = 16384 on s1-cp2-w123
# (22.4M monomials, 0.54 GB) fits, k = 32768 (89.5M, 2.148 GB) does not.
_BASIS_BUDGET_BYTES = 2 * 1024 ** 3


def _basis_row_bytes(d):
    """Peak bytes per listed row while a basis is built, normed and summed.

    tracemalloc at d = 1 / 2 / 3 on rank-1 tori (s1-cp1-w12 at k = 4e6,
    s1-cp2-w123 at 8192, weights (1, 2, 3, 4) at 1000; the log-factorial
    table grown first): the one-pass listing peaks at 16.0 / 20.0 / 24.2 B
    per row (the int32 exponents, 4 (d + 1) B, beside two int32 columns,
    the rows' places in their runs and one repeated start; weights
    (1, 2, 3, 4) adds 1.7 MB of offsets for its 83,834 runs), the log-norm
    stage at 16.1 / 20.0 / 24.2 B and a sum over every row at 16.2 / 20.1
    / 24.2 B (the basis itself, 4 (d + 1) + 8 B, and block workspaces of
    under 0.5 MB); u2-cp2 at k = 2e6 + 1 peaks at 20.2 B.  8 (d + 1)
    bounds them all, beside that fixed workspace.
    The kernel stores only bases of at most ``hardy._LIST_ROWS`` rows
    (under 2.5 MB each at d <= 3); a longer one is built only on a direct
    ``hardy.isotypic_basis`` request and not kept.  A sum of a stored basis
    adds 8 (d + 2) B per row for its float pre-pass (a float copy of the
    exponents and the row logs, 2.1 MB at 65535 rows at d = 2) and a copy
    of the rows it keeps.  A windowed sum lists nothing and keeps no
    basis, only the listing's runs, kept on the model (on a rank-1 torus
    one per prefix row of all but the last of its d free coordinates,
    O(k^(d - 1)): O(k) on s1-cp2-w123, one on the other catalog models);
    a diagonal evaluation on the cases above peaks at 1.1 / 2.3 / 54 MB
    (the window search's stacks grow with the runs).  It is refused at the
    same row count all the same.
    """
    return 8 * (d + 1)


def _cache_key(nu, k):
    """The key of a model's ``runs_cache``, ``basis_cache`` and ``base_cache``
    for the half-weight nu."""
    return tuple(nu.coords.tolist()), k     # not int(k): k = 2.5 lists nothing, k = 2 does


def hermitian_inner(u, v):
    """<u, v> = sum u_j conj(v_j)."""
    return complex(np.vdot(v, u))


def _null_space(a):
    """Orthonormal basis (columns) of the null space of a, from its SVD.

    Singular values up to max(s) * eps * max(M, N) count as zero, the
    rank rule of ``scipy.linalg.null_space``.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(u.shape[0], vh.shape[1])
    rank = int(np.sum(s > tol))
    return vh[rank:, :].T.conj()


def unit_point(coeffs):
    """coeffs / |coeffs| for one vector, or row by row for a stack.

    One vector keeps the rounding of numpy's vector norm, which the
    row-wise norm does not reproduce bit for bit.
    """
    x = np.asarray(coeffs, dtype=complex)
    if x.ndim == 1:
        return x / np.linalg.norm(x)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class LocusSample:
    """On-locus point data: the coset move h_m, the scale sigma(m), and
    a phi-orthonormal basis of t'_m = Ad_{h_m} t'.

    t' = {eta in t : <nu, eta> = 0} in the Cartan algebra t.  The whole
    t_m = Ad_{h_m} t is not stored; Ad_{h_m} of the Cartan basis gives it.

    For a stack of N points every array field (``x``, ``phi``, ``sigma``,
    ``h``, ``residual`` and each vector of the basis) has a leading axis
    of length N; for one point ``sigma`` and ``residual`` are floats.
    """

    def __init__(self, model, nu, x, phi, sigma, h, t_prime_basis, residual):
        self.model = model
        self.nu = nu
        self.x = x
        self.phi = phi
        self.sigma = sigma
        self.h = h
        self.t_prime_basis = t_prime_basis
        self.residual = residual


class ConeDistance:
    """Off-cone report: phi-distance from Phi(m) to the orbit cone (an
    (N,) array of per-point distances for a stack of N points)."""

    def __init__(self, phi, distance):
        self.phi = phi
        self.distance = distance


class IsotypicRuns:
    """The rows of an isotypic listing, as lines of exponents.

    Row s of run i, 0 <= s < lengths[i], is starts[i] + s step, and every
    row is the exponent of an isotypic monomial: nothing is rejected, so
    ``rows``, the row count, is its model's ``isotypic_dim``.  ``top`` is
    the largest |alpha| of a row (0 for an empty listing): |alpha| is
    linear along a run, so it is reached at a run end.  The starts are
    int64: O(runs) memory.  Read-only once made.
    """

    def __init__(self, starts, step, lengths):
        self.starts = starts      # (R, d+1) int64
        self.step = step          # (d+1,) int64
        self.lengths = lengths    # (R,) int64, positive
        self.rows = int(lengths.sum())
        first = starts.sum(axis=1)
        self.top = int(np.maximum(first, first + (lengths - 1) * step.sum()).max(initial=0))

    @cached_property
    def real_lines(self):
        """(starts, step) in float64, a run per column of the (d+1, R)
        starts: row s of run i is starts[:, i] + s step."""
        return np.ascontiguousarray(self.starts.T, dtype=float), self.step.astype(float)


class ProjectiveModel:
    """Base class; subclasses fix the group, the lift, and the isotypic
    bookkeeping.  All state except ``basis_cache``, ``runs_cache`` and
    ``base_cache`` is immutable after construction."""

    def __init__(self, model_id, group, metric, d, generators, lift_note,
                 default_nu):
        self.id = model_id
        self.group = group
        self.metric = metric
        self.d = d
        self.generators = np.asarray(generators, dtype=complex)   # (dim, d+1, d+1)
        self.lift_note = lift_note
        self.default_nu = half_weight(group, default_nu)
        # _cache_key(nu, k) -> hardy.IsotypicBasis, filled by
        # hardy.isotypic_basis with bases of at most hardy._LIST_ROWS rows only
        self.basis_cache = {}
        # _cache_key(nu, k) -> IsotypicRuns, filled by isotypic_runs
        self.runs_cache = {}
        # filled by the suites run on this model: _cache_key(nu, None) ->
        # (nu, x, sample) at the base locus point x (harness._locus_base) and
        # _cache_key(nu, k) -> Re Pi_{k nu}(x, x) (harness._base_diagonal)
        self.base_cache = {}
        for a in self.generators:
            if np.linalg.norm(a + a.conj().T) > 1e-12:
                raise ValueError("generators must be skew-Hermitian")
        self._check_moment_nonvanishing()

    # -- basic geometry ----------------------------------------------------

    @property
    def ambient_dim(self):
        return self.d + 1

    def resolve_nu(self, coords=None):
        """The half-weight with these coordinates, or the model's default."""
        return self.default_nu if coords is None else half_weight(self.group, coords)

    def horizontal(self, x, u):
        """Project an ambient vector onto the horizontal space x^perp
        (row by row for stacks)."""
        inner = np.einsum("...i,...i->...", u, np.conj(x))
        return u - inner[..., None] * x

    def generator_field(self, x, xi):
        """A_xi x for an algebra coefficient vector xi; x and xi may be
        stacks along a leading axis."""
        a = np.einsum("...j,jab->...ab", np.asarray(xi, dtype=float), self.generators)
        return np.einsum("...ab,...b->...a", a, x)

    def val(self, x, xi):
        """Evaluation map: the induced tangent vector xi_M at [x] (one
        point or a stack, as for :meth:`generator_field`)."""
        return self.horizontal(x, self.generator_field(x, xi))

    def val_matrix(self, x):
        """All generator fields at once: columns xi_M for the basis."""
        cols = [self.val(x, e) for e in np.eye(self.group.dim)]
        return np.stack(cols, axis=1)

    def moment_map(self, x):
        """Phi([x]) as full coalgebra coordinates; x may be a stack of points."""
        x = np.asarray(x, dtype=complex)
        return -np.einsum("...a,jab,...b->...j", x.conj(), self.generators, x).imag

    def nearest_orbit_point(self, x, y):
        """The point of the orbit G x nearest to y, for unit vectors x, y
        (each model solves this in closed form)."""
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
        amb = _null_space(x[None, :].conj())         # ON basis of x^perp
        coords = amb.conj().T @ vm                    # val vectors in that basis
        if np.linalg.norm(coords) < 1e-14:
            return [amb[:, j] for j in range(amb.shape[1])]
        w_coords = _null_space(coords.conj().T)
        return [amb @ w_coords[:, j] for j in range(w_coords.shape[1])]

    # -- locus machinery -----------------------------------------------------

    def locus_decompose(self, nu, x, tol=1e-10):
        """Split Phi(m) = sigma(m) Coad_{h_m}(nu), or report the cone distance.

        ``x`` is one point, shape (d+1,), or a stack of N points, shape
        (N, d+1), decomposed in one array pass.  A stack gives one
        :class:`LocusSample` with a leading axis on its array fields when
        every point lies on the locus, and otherwise one
        :class:`ConeDistance` with the N per-point distances (about 0 at
        the on-locus points).  One point is decomposed as a stack of one.

        Raises
        ------
        AssumptionViolation
            If Phi(m) vanishes at some point (the theory requires the
            moment image to avoid the origin).
        """
        group, metric = self.group, self.metric
        nu = half_weight(group, nu)
        x = np.asarray(x, dtype=complex)
        xs = np.atleast_2d(x)
        phi = self.moment_map(xs)
        nphi = metric.norm_covector(phi)
        if np.any(nphi < 1e-12):
            raise AssumptionViolation("moment map vanishes at this point")
        # a non-finite point skips the coset move: NaN q, sigma and distance
        finite = np.all(np.isfinite(phi), axis=-1)
        q, h = dominant_representative(metric, np.where(finite[:, None], phi, 0.0))
        q[~finite] = np.nan
        sigma = metric.pair_covectors(q, nu.coords) / metric.norm_covector(nu.coords) ** 2
        residual = metric.norm_covector(q - sigma[:, None] * nu.coords)
        # tested positively, so that a NaN point is off the locus
        if not np.all((sigma > 0) & (residual <= tol * np.maximum(1.0, nphi))):
            distance = metric.norm_covector(q - np.maximum(sigma, 0.0)[:, None] * nu.coords)
            if x.ndim == 1:
                return ConeDistance(phi=phi[0], distance=float(distance[0]))
            return ConeDistance(phi=phi, distance=distance)
        t_prime = tuple(adjoint_action(group, h, v)
                        for v in _metric_orthonormal_null(metric, nu.coords))
        if x.ndim == 1:
            return LocusSample(self, nu, x, phi[0], float(sigma[0]), h[0],
                               tuple(e[0] for e in t_prime), float(residual[0]))
        return LocusSample(self, nu, x, phi, sigma, h, t_prime, residual)

    def d_phi(self, nu, sample):
        """Gram matrix of the pulled-back metric on t'_m and its sqrt-det.

        Returns (D, scalar) for one point, or (N, m, m) Grams and N
        scalars for a stacked sample; the empty determinant convention
        gives scalar 1 when the rank is 1.
        """
        x = np.asarray(sample.x)
        vecs = np.zeros(x.shape[:-1] + (len(sample.t_prime_basis), x.shape[-1]), dtype=complex)
        for a, eta in enumerate(sample.t_prime_basis):
            vecs[..., a, :] = self.val(x, eta)
        D = np.einsum("...ai,...bi->...ab", vecs, vecs.conj()).real
        if np.any(np.linalg.eigvalsh(D) <= 0):
            raise AssumptionViolation(
                "pulled-back metric on t'_m is not positive definite "
                "(transversality of the moment map fails here)")
        return D, scalar_or_stack(np.sqrt(np.linalg.det(D)))

    def normal_space(self, nu, sample):
        """Basis {J(eta_M)} of the locus normal space; dimension rank-1."""
        return [1j * self.val(sample.x, eta) for eta in sample.t_prime_basis]

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

    def isotypic_dim(self, nu, k):
        """Exact dimension of the k nu isotypic subspace (0 is a valid
        answer), counted in closed form: nothing is listed."""
        raise NotImplementedError

    def isotypic_runs(self, nu, k):
        """The :class:`IsotypicRuns` whose listed rows span the k nu isotypic
        subspace, built once per (nu, k) and kept in ``runs_cache``.

        A listing's size checks all run here, once per (nu, k), in order:
        a model no exact listing covers is refused (:meth:`_check_listing`)
        before its rows are counted; a listing whose basis would take more
        than _BASIS_BUDGET_BYTES to build (its rows, :meth:`isotypic_dim`,
        at :func:`_basis_row_bytes` each) raises AssumptionViolation before
        any run is built; and one whose ``top`` passes int32 raises
        AssumptionViolation before its runs are kept or any row is listed.
        """
        nu = half_weight(self.group, nu)
        key = _cache_key(nu, k)
        runs = self.runs_cache.get(key)
        if runs is None:
            self._check_listing()
            rows = self.isotypic_dim(nu, k)
            need = rows * _basis_row_bytes(self.d)
            if need > _BASIS_BUDGET_BYTES:
                raise AssumptionViolation(
                    f"the k = {k} isotypic basis of {self.id} lists {rows} monomials "
                    f"and needs about {need} bytes, over the {_BASIS_BUDGET_BYTES}-byte "
                    "memory budget")
            runs = self._isotypic_runs(nu, k) if rows else IsotypicRuns(
                np.zeros((0, self.ambient_dim), dtype=np.int64),
                np.zeros(self.ambient_dim, dtype=np.int64), np.zeros(0, dtype=np.int64))
            if runs.top > _INT32_MAX:
                raise AssumptionViolation(
                    f"the k = {k} isotypic exponents of {self.id} reach {runs.top}, past "
                    "the int32 range of a basis")
            self.runs_cache[key] = runs
        return runs

    def _check_listing(self):
        """Raise, before a listing is counted, when no exact monomial
        listing covers this model; the base class refuses none."""

    def _isotypic_runs(self, nu, k):
        """The runs of :meth:`isotypic_runs` for a nonempty listing."""
        raise NotImplementedError

    def isotypic_exponents(self, nu, k):
        """Every row of :meth:`isotypic_runs` as one int32 (N, d+1) array,
        N its ``rows``, written in one pass column by column: each run's
        start repeated over its rows, plus the row's place in its run times
        the step.  All of it is int32, which is exact: every row passed the
        int32 check on ``top``, and |place step_j| is at most top."""
        runs = self.isotypic_runs(nu, k)
        out = np.empty((runs.rows, self.ambient_dim), dtype=np.int32)
        place = np.arange(runs.rows, dtype=np.int32)
        place -= np.repeat((np.cumsum(runs.lengths) - runs.lengths).astype(np.int32), runs.lengths)
        for col, start, step in zip(out.T, runs.starts.T.astype(np.int32), runs.step.tolist()):
            np.multiply(place, step, out=col)
            col += np.repeat(start, runs.lengths)
        return out

    def valid_k(self, k):
        """Snap k to the nearest valid label multiplier (is a no-op unless
        the lattice constrains k, as it does for U(2))."""
        return int(k)

    def default_locus_point(self, nu=None):
        raise NotImplementedError

    # -- construction-time checks ---------------------------------------------

    def _check_moment_nonvanishing(self):
        # 400 Gaussian unit points from default_rng(11), each drawn as its real
        # then its imaginary parts, then the vertices
        z = default_rng(11).standard_normal((400, 2, self.ambient_dim))
        z = z[:, 0] + 1j * z[:, 1]
        points = np.concatenate([z / np.linalg.norm(z, axis=1, keepdims=True),
                                 np.eye(self.ambient_dim)])
        phi = self.moment_map(points)
        worst = float(self.metric.norm_covector(phi).min())
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


def _weighted_count(weights, total):
    """#{alpha >= 0 : weights . alpha = total} for positive integer weights,
    as an exact Python integer, in O(d lcm(w)) time and memory.

    The count is a quasi-polynomial in total of degree d = len(weights) - 1
    with period L = lcm(weights) (Sylvester's denumerant; Beck & Robins,
    Computing the Continuous Discretely, ch. 1).  A coin-change pass lists
    the counts up to r + d L, r = total mod L; the d + 1 of them on the
    residue class of total fix its polynomial, which Newton's forward
    differences extend to total exactly.

    Raises AssumptionViolation, before the list is built, when its
    top + 1 entries (about 40 B each: a pointer and a Python int) would
    take more than _BASIS_BUDGET_BYTES, as weights whose lcm is in the
    billions do.
    """
    weights = [int(w) for w in weights]
    d = len(weights) - 1
    period = math.lcm(*weights)
    r = total % period
    top = min(total, r + d * period)
    need = 40 * (top + 1)
    if need > _BASIS_BUDGET_BYTES:
        raise AssumptionViolation(
            f"counting weights {weights} at total {total} lists {top + 1} partial "
            f"counts and needs about {need} bytes, over the {_BASIS_BUDGET_BYTES}-byte "
            "memory budget")
    ways = [1] + [0] * top
    for w in weights:
        for n in range(w, top + 1):
            ways[n] += ways[n - w]
    if total == top:
        return ways[total]
    diffs = ways[r::period]
    steps = (total - r) // period
    count = 0
    for j in range(d + 1):
        count += math.comb(steps, j) * diffs[0]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return count


def simplex_quadrature(d, n):
    """Nodes/weights for int_{Delta_d} f(t) dt_1..dt_d, t_0 = 1 - sum.

    Returns barycentric nodes of shape (N, d+1); weights sum to 1/d!.
    Gauss-Legendre tensor rule (Duffy map for d = 2, nested for d = 3),
    with the first tensor axis outermost in the node order.
    """
    if d not in (1, 2, 3):
        raise ValueError("simplex quadrature implemented for d <= 3")
    xs, ws = gauss_legendre(n)
    xs = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    if d == 1:
        nodes = np.stack([1.0 - xs, xs], axis=1)
        return nodes, ws
    grids = np.meshgrid(*([xs] * d), indexing="ij")
    wgrids = np.meshgrid(*([ws] * d), indexing="ij")
    u, v = grids[0], grids[1]
    t = [u, v * (1.0 - u)]
    weight = wgrids[0] * wgrids[1]
    if d == 2:
        weight = weight * (1.0 - u)
    else:
        t.append(grids[2] * (1.0 - u) * (1.0 - v))
        weight = weight * wgrids[2] * (1.0 - u) ** 2 * (1.0 - v)
    t0 = 1.0 - t[0]
    for tj in t[1:]:
        t0 = t0 - tj
    nodes = np.stack([t0] + t, axis=-1).reshape(-1, d + 1)
    return nodes, weight.ravel()


# -- complex power series, lowest degree first ----------------------------
# numpy.polynomial's steps on numpy's core, so the orbit-separation roots
# keep their bits without importing numpy.polynomial (3 ms of every
# ``import coorbit``): _series is its ``as_series``, _trim its ``trimseq``.

def _trim(c):
    """c without its trailing zero coefficients, keeping at least one."""
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:1]


def _series(c):
    """A trimmed complex copy of the coefficients c."""
    return _trim(np.array(c, dtype=complex, ndmin=1))


def _polymul(c1, c2):
    """The product of two series (``polymul``)."""
    return _trim(np.convolve(_series(c1), _series(c2)))


def _polysub(c1, c2):
    """c1 - c2 (``polysub``)."""
    c1, c2 = _series(c1), _series(c2)
    if len(c1) > len(c2):
        c1[:c2.size] -= c2
        return _trim(c1)
    c2 = -c2
    c2[:c1.size] += c1
    return _trim(c2)


def _polysquare(c):
    """c times c, untrimmed (``polypow(c, 2)``)."""
    c = _series(c)
    return np.convolve(c, c)


def _polyroots(c):
    """The roots of a series, sorted: the eigenvalues of its companion
    matrix (``polyroots``)."""
    c = _series(c)
    if len(c) < 2:
        return np.array([], dtype=complex)
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    mat = np.zeros((n, n), dtype=complex)
    mat.reshape(-1)[n::n + 1] = 1
    mat[:, -1] -= c[:-1] / c[-1]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots


# -- torus models -------------------------------------------------------------


class TorusModel(ProjectiveModel):
    """Torus T^r acting linearly on CP^d with integer lift weights.

    ``weights`` is an (r, d+1) integer matrix; generator j acts on X by
    x -> exp(-i theta diag(weights[j])) x.
    """

    def __init__(self, model_id, weights, default_nu, metric=None):
        weights = np.asarray(weights, dtype=int)
        r, m = weights.shape
        metric = metric or trace_metric(build_group("torus", r))
        group = metric.group
        if group.kind != "torus" or group.rank != r:
            raise ValueError("metric rank does not match the weight matrix")
        if np.any(weights < 0):
            raise ValueError("torus models require nonnegative lift weights")
        gens = [-1j * np.diag(weights[j].astype(float)) for j in range(r)]
        self.weights = weights
        note = "fiber weights " + ";".join(",".join(str(w) for w in row) for row in weights)
        super().__init__(model_id, group, metric, m - 1, gens, note, default_nu)

    def nearest_orbit_point(self, x, y):
        """exp(-i theta W) x at the theta maximizing Re <g x, y> =
        Re sum_j a_j z^{w_j}, a_j = x_j conj(y_j), z = e^{-i theta}.

        With W = max w, the critical points are the roots of the degree-2W
        polynomial sum_j w_j a_j z^{W + w_j} - sum_j w_j conj(a_j) z^{W - w_j}
        (z^W Im sum_j w_j a_j z^{w_j}, times 2i, on the unit circle).  The
        objective is evaluated at the angle of every root and at theta = 0,
        and the best angle polished (:meth:`_polished_point`).  Tori of
        rank 2 or more other than :class:`T2CP2Model` are refused.
        """
        if self.group.rank != 1:
            raise UnsupportedGroupError(
                f"no closed-form orbit separation for {self.id}; supported: "
                "rank-1 tori, t2-cp2, su2-cp1 and u2-cp2")
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        w = self.weights[0]
        a = x * np.conj(y)
        top = int(w.max())
        coeffs = np.zeros(2 * top + 1, dtype=complex)       # lowest power first
        np.add.at(coeffs, top + w, w * a)
        np.add.at(coeffs, top - w, -w * np.conj(a))
        z = np.exp(1j * np.angle(np.append(_polyroots(coeffs), 1.0)))
        values = (a * z[:, None] ** w).real.sum(axis=1)
        theta = -np.angle(z[np.argmax(values)])
        return self._polished_point(x, y, np.array([theta]))

    def isotypic_dim(self, nu, k):
        """Rank 1: the exponents counted by :func:`_weighted_count`, in
        O(d lcm(w)) time and memory at any k.  Tori of rank 2 or more
        other than :class:`T2CP2Model` are refused."""
        if self.group.rank != 1:
            raise UnsupportedGroupError(
                f"no closed-form isotypic dimension for {self.id}; supported: "
                "rank-1 tori, t2-cp2, su2-cp1 and u2-cp2")
        target = self.isotypic_target(nu, k)
        return 0 if target is None else _weighted_count(self.weights[0], int(target[0]))

    def _polished_point(self, x, y, theta):
        """The nearer to y of exp(-i theta W) x and the point after one Newton
        step on F(theta) = Re sum_j a_j e^{-i theta . w_j} from theta.

        A maximum at which the critical polynomial has a double root (every
        pair on one t2-cp2 orbit) comes out of the roots to about sqrt(eps)
        only; F is quadratic there, so one step restores full precision.
        """
        W = self.weights
        terms = x * np.conj(y) * np.exp(-1j * (theta @ W))
        grad = W @ terms.imag
        hess = -(W * terms.real) @ W.T
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        points = x * np.exp(-1j * (np.stack([theta, theta - step]) @ W))
        return points[np.argmin(np.linalg.norm(points - y, axis=1))]

    def isotypic_target(self, nu, k):
        """k nu as an integer weight vector, or None when no monomial has
        that weight (k nu non-integral or with a negative entry)."""
        nu = half_weight(self.group, nu)
        target = np.round(k * nu.coords).astype(np.int64)
        if np.max(np.abs(k * nu.coords - target)) > 1e-9 or np.any(target < 0):
            return None
        return target

    def _check_listing(self):
        """A rank-1 torus with a unit weight lists exactly (t2-cp2 does too,
        see :class:`T2CP2Model`); any other torus is refused."""
        if self.group.rank != 1 or not (self.weights[0] == 1).any():
            raise UnsupportedGroupError(
                f"no exact monomial listing for {self.id}; supported: rank-1 tori with "
                "a unit weight, t2-cp2 and u2-cp2")

    def _isotypic_runs(self, nu, k):
        """{alpha >= 0 : w . alpha = K}, K = k nu, as runs: the pivot is
        the first coordinate of weight 1, and the other (free) coordinates
        ascend with the first one outermost.

        The free coordinates F run over the simplex {F >= 0 : w_free . F
        <= K}, built one coordinate at a time as a ragged array (not over
        its bounding box), and the pivot is K - w_free . F (its weight is
        1), so every point of the simplex is a monomial.  All but the
        last free coordinate are listed whole, as prefix rows, one run
        each; along a run the last one steps up from 0 and the pivot down
        by its weight.
        """
        m, w = self.ambient_dim, self.weights[0]
        pivot = int(np.argmax(w == 1))
        free = [j for j in range(m) if j != pivot]
        cols, left = [], self.isotypic_target(nu, k)[:1]   # left = K - w_free . F
        for j in free[:-1]:
            reach = left // w[j] + 1
            starts = np.cumsum(reach) - reach
            value = np.arange(int(reach.sum()), dtype=np.int64) - np.repeat(starts, reach)
            cols = [np.repeat(col, reach) for col in cols] + [value]
            left = np.repeat(left, reach) - value * w[j]
        starts = np.zeros((len(left), m), dtype=np.int64)
        for j, col in zip(free, cols):
            starts[:, j] = col
        starts[:, pivot] = left
        step = np.zeros(m, dtype=np.int64)
        step[free[-1]], step[pivot] = 1, -w[free[-1]]
        return IsotypicRuns(starts, step, left // w[free[-1]] + 1)

    def default_locus_point(self, nu=None):
        nu = self.resolve_nu(nu)
        t = self._default_simplex_point(nu)
        return unit_point(np.sqrt(t))

    def _default_simplex_point(self, nu):
        if self.group.rank == 1:
            if self.d == 1:
                return np.array([0.6, 0.4])
            return np.concatenate([[0.5, 0.3], np.full(self.d - 1, 0.2 / (self.d - 1))])
        return self.locus_simplex_curve(nu)(0.5)

    def locus_simplex_curve(self, nu):
        """For r = 2, d = 2 catalog models: the locus segment s -> t(s),
        with s in [0, 1] a number or an array (one row of t per s)."""
        raise ValueError(f"{self.id} does not provide a locus curve")


class T2CP2Model(TorusModel):
    """T^2 on CP^2 with lift weights (1,0,1) and (0,1,1)."""

    def __init__(self, metric=None):
        super().__init__("t2-cp2", [[1, 0, 1], [0, 1, 1]], (2.0, 1.0), metric)

    def nearest_orbit_point(self, x, y):
        """The orbit point (x_0 u, x_1 v, x_2 u v) nearest to y, u = e^{-i theta_1},
        v = e^{-i theta_2}.

        With a_j = x_j conj(y_j), Re <g x, y> = Re(a_0 u) + Re((a_1 + a_2 u) v),
        so the best v is conj(a_1 + a_2 u) / |a_1 + a_2 u| (any v where that
        is 0) and u maximizes h(u) = Re(a_0 u) + |a_1 + a_2 u|.  On the unit
        circle h'(u) = 0 squares to Im(a_0 u)^2 |a_1 + a_2 u|^2 =
        Im(conj(a_1) a_2 u)^2, times u^3 the degree-6 polynomial
        (a_0 u^2 - conj a_0)^2 (a_1 + a_2 u)(conj(a_1) u + conj a_2)
        - u (b u^2 - conj b)^2, b = conj(a_1) a_2.  h is evaluated at every
        root projected onto the circle, at u = 1 and at conj(a_0) / |a_0|
        (the maximum when a_1 = a_2 = 0 and the polynomial vanishes), and
        the best (u, v) polished (:meth:`_polished_point`).
        """
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        a0, a1, a2 = x * np.conj(y)
        b = np.conj(a1) * a2
        quartic = _polysquare([-np.conj(a0), 0, a0])
        poly = _polysub(_polymul(quartic, _polymul([a1, a2], [np.conj(a2), np.conj(a1)])),
                        _polymul([0, 1], _polysquare([-np.conj(b), 0, b])))
        candidates = np.append(_polyroots(poly), [1.0, np.conj(a0)])
        u = np.exp(1j * np.angle(candidates))
        inner = a1 + a2 * u
        best = int(np.argmax((a0 * u).real + np.abs(inner)))
        u, inner = u[best], inner[best]
        v = np.conj(inner) / abs(inner) if inner != 0 else 1.0
        return self._polished_point(x, y, -np.angle([u, v]))

    def isotypic_dim(self, nu, k):
        """min(K_1, K_2) + 1 for k nu = (K_1, K_2): the exponents are
        (K_1 - t, K_2 - t, t), t = 0 ... min(K_1, K_2)."""
        target = self.isotypic_target(nu, k)
        return 0 if target is None else int(target.min()) + 1

    def _check_listing(self):
        """t2-cp2, unlike the other rank-2 tori, lists exactly: one run."""

    def _isotypic_runs(self, nu, k):
        """One run, (K_1 - t, K_2 - t, t) for t = 0 ... min(K_1, K_2)."""
        k1, k2 = self.isotypic_target(nu, k).tolist()
        return IsotypicRuns(np.array([[k1, k2, 0]], dtype=np.int64),
                            np.array([-1, -1, 1], dtype=np.int64),
                            np.array([min(k1, k2) + 1], dtype=np.int64))

    def locus_simplex_curve(self, nu):
        """The locus segment, (t_1, t_2, t_3) = (|x_0|^2, |x_1|^2, |x_2|^2)
        with t_1 + t_3 = sigma nu_1 and t_2 + t_3 = sigma nu_2.  For
        nu_1 >= nu_2 it sweeps t_2 over [0, nu_2 / (nu_1 + nu_2)]; for
        nu_1 < nu_2 it is the (nu_2, nu_1) segment with t_1 and t_2
        swapped, the symmetry that also swaps the two torus factors."""
        nu = half_weight(self.group, nu)
        n1, n2 = nu.coords
        if n1 <= 0 or n2 <= 0:
            raise AssumptionViolation(
                f"locus of nu = {nu.coords} is empty for {self.id} "
                "(the ray misses the moment image)")
        if n1 < n2:
            mirror = self.locus_simplex_curve((n2, n1))
            return lambda s: mirror(s)[..., [1, 0, 2]]
        s_max = n2 / (n1 + n2)

        def t_of_s(s):
            # s in [0, 1] sweeps t2 in [0, s_max]; an array of s gives rows
            t2 = s * s_max
            sigma = (1.0 - t2) / n1
            t3 = sigma * n2 - t2
            t1 = 1.0 - t2 - t3
            return np.stack([t1, t2, t3], axis=-1)

        return t_of_s


def _metric_orthonormal_null(metric, nu_coords):
    """phi-orthonormal basis of {eta in t : <nu, eta> = 0}."""
    basis = _null_space(np.asarray(nu_coords, dtype=float)[None, :])
    out = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        for u in out:
            v = v - metric.inner(u, v) * u
        v = v / np.sqrt(metric.inner(v, v))
        out.append(v)
    return out


# -- SU(2) on CP^1 -------------------------------------------------------------


_SU2_NO_LISTING = ("su2-cp1 lists no monomials: its k nu isotypic subspace is one "
                   "whole level, and its kernel is the closed level form")


class SU2CP1Model(ProjectiveModel):
    """SU(2) acting on CP^1 through the defining representation."""

    def __init__(self, metric=None):
        metric = metric or trace_metric(build_group("su", 2))
        group = metric.group
        if (group.kind, group.n) != ("su", 2):
            raise ValueError("the metric is not on SU(2)")
        gens = [np.asarray(b) for b in group.basis_matrices]
        super().__init__("su2-cp1", group, metric, 1, gens,
                         "defining representation, no fiber twist", (1.0,))

    def nearest_orbit_point(self, x, y):
        """y itself: SU(2) is transitive on the unit sphere of C^2."""
        return np.array(y, dtype=complex)

    def isotypic_level(self, nu, k):
        """The level n = k nu - 1: the k nu isotypic subspace is the whole
        of it (empty when n < 0)."""
        return int(round(k * half_weight(self.group, nu).coords[0])) - 1

    def isotypic_dim(self, nu, k):
        """n + 1, the dimension of level n = :meth:`isotypic_level`."""
        return max(self.isotypic_level(nu, k) + 1, 0)

    def _check_listing(self):
        raise NotImplementedError(_SU2_NO_LISTING)

    def default_locus_point(self, nu=None):
        return unit_point([np.sqrt(0.7), np.sqrt(0.3)])


# -- U(2) on CP^2 ---------------------------------------------------------------


class U2CP2Model(ProjectiveModel):
    """U(2) on CP^2 = P(C^2 + C): mu_g(v, c) = (g v, det(g)^{-1} c).

    The det^{-1} twist on the extra coordinate keeps the lifted action
    genuinely free along the locus and moves the moment image off the
    origin.  Labels k nu are only integral for odd k, so
    :meth:`valid_k` snaps even k to the next odd value.
    """

    def __init__(self, metric=None):
        metric = metric or trace_metric(build_group("u", 2))
        group = metric.group
        if (group.kind, group.n) != ("u", 2):
            raise ValueError("the metric is not on U(2)")
        gens = []
        for b in group.basis_matrices:
            a = np.zeros((3, 3), dtype=complex)
            a[:2, :2] = b
            a[2, 2] = -np.trace(b)
            gens.append(a)
        super().__init__("u2-cp2", group, metric, 2, gens,
                         "defining rep on C^2, det^-1 twist on the third coordinate",
                         (1.5, 0.5))

    def nearest_orbit_point(self, x, y):
        """(|v| v' / |v'|, |c| c' / |c'|) for x = (v, c), y = (v', c').

        SU(2) is transitive on each sphere of C^2 and the centre e^{i psi} I
        turns c by e^{-2 i psi}, so the orbit of x is every (v'', c'') with
        |v''| = |v| and |c''| = |c|; the distance to y is then
        sqrt((|v| - |v'|)^2 + (|c| - |c'|)^2).  Where v' or c' is 0, every
        point of that factor is equally near and x's own is kept.
        """
        x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        out = x.copy()
        for part in (slice(0, 2), slice(2, 3)):
            norm = np.linalg.norm(y[part])
            if norm > 0:
                out[part] = np.linalg.norm(x[part]) / norm * y[part]
        return out

    def valid_k(self, k):
        k = int(k)
        return k if k % 2 == 1 else k + 1

    def _isotypic_piece(self, nu, k):
        """(m, e): the k nu isotypic exponents are (a, m - a, e), a = 0 ... m;
        None when there are none."""
        nu = half_weight(self.group, nu)
        if not nu.scaling_is_valid(k):
            return None
        lam = k * nu.coords - self.group.delta
        l1, l2 = int(round(lam[0])), int(round(lam[1]))
        # level pieces Sym^{n-e}((C^2)*) (x) det^e have highest weight (e, 2e - n)
        e = l1
        n = 2 * e - l2
        m = n - e
        return None if m < 0 or e < 0 else (m, e)

    def isotypic_dim(self, nu, k):
        """m + 1 (see :meth:`_isotypic_piece`)."""
        piece = self._isotypic_piece(nu, k)
        return 0 if piece is None else piece[0] + 1

    def _isotypic_runs(self, nu, k):
        """One run, (a, m - a, e) for a = 0 ... m (see :meth:`_isotypic_piece`)."""
        m, e = self._isotypic_piece(nu, k)
        return IsotypicRuns(np.array([[0, m, e]], dtype=np.int64),
                            np.array([1, -1, 0], dtype=np.int64), np.array([m + 1], dtype=np.int64))

    def locus_parameters(self, nu=None):
        """(t, sigma): the locus level ||v||^2 = t and the cone scale."""
        nu = self.resolve_nu(nu)
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
            return np.stack([tau1, t - tau1, np.full_like(tau1, 1.0 - t)], axis=-1)

        return t_of_s

    def default_locus_point(self, nu=None):
        t, _ = self.locus_parameters(nu)
        return unit_point([np.sqrt(0.6 * t), np.sqrt(0.4 * t), np.sqrt(1.0 - t)])


# -- catalog -------------------------------------------------------------------


# id -> (group, constructor from the metric), in catalog order
_CATALOG = {
    "s1-cp1-w12": ("t1", partial(TorusModel, "s1-cp1-w12", [[1, 2]], (1.0,))),
    "s1-cp2-w123": ("t1", partial(TorusModel, "s1-cp2-w123", [[1, 2, 3]], (1.0,))),
    "t2-cp2": ("t2", T2CP2Model),
    "su2-cp1": ("su2", SU2CP1Model),
    "u2-cp2": ("u2", U2CP2Model),
}
MODEL_IDS = tuple(_CATALOG)


def build_model(model_id, metric_scale=1.0):
    """Instantiate a catalog model by string id.

    Catalog: ``s1-cp1-w12`` (S^1 on CP^1, weights (1,2)),
    ``s1-cp2-w123`` (S^1 on CP^2, weights (1,2,3)), ``t2-cp2``
    (T^2 on CP^2, weights (1,0,1)/(0,1,1)), ``su2-cp1`` and ``u2-cp2``.
    """
    if model_id.lower() not in _CATALOG:
        raise ValueError(f"unknown model id {model_id!r}; see build_model.__doc__")
    group, make = _CATALOG[model_id.lower()]
    return make(trace_metric(build_group(group), metric_scale))
