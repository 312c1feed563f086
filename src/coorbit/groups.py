"""Compact connected Lie groups: torus(r), SU(n) and U(n).

Root data, Weyl groups, integral lattices, Ad-invariant metrics, and the
linear-algebra primitives consumed by the character formulas and the
projective models: the musical isomorphism gamma -> gamma^phi, the
restriction of ad_tau to the orthocomplement of the Cartan algebra, and
closed-form Riemannian volumes.

Conventions
-----------
* Cartan covectors are length-``rank`` arrays of values on the fixed
  Cartan basis: torus uses the standard basis of R^r, SU(n) uses
  H_j = i(E_jj - E_{j+1,j+1}) and U(n) uses H_j = i E_jj.  For SU(2)
  this makes the single coordinate the value on Z = diag(i, -i), and
  for U(n) the coordinates are the usual decreasing tuples.
* Full coalgebra covectors are length-``dim`` arrays of values on the
  full fixed basis (Cartan basis followed by the off-diagonal pairs
  E_jk - E_kj and i(E_jk + E_kj), j < k).
* Algebra vectors are coefficient arrays with respect to the same
  basis; for matrix groups :func:`algebra_matrix` realizes them as
  skew-Hermitian matrices.
* SU(n)/U(n) metrics are positive multiples of trace(A conj(B)^T);
  tori accept an arbitrary SPD Gram matrix in the standard basis.

All objects are immutable after construction and all functions are
pure, so everything here is safe to share across threads.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np


class UnsupportedGroupError(ValueError):
    """Requested group kind is outside torus(r) / SU(n) / U(n)."""


class AssumptionViolation(RuntimeError):
    """A runtime hypothesis of the asymptotic theory fails."""


_MAX_WEYL_RANK = 7  # n! Weyl elements are materialized; keep n small


def _pair_indices(n):
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def _basis_matrices(kind, n):
    """Fixed skew-Hermitian basis for su(n)/u(n) (Cartan first)."""
    mats = []
    if kind == "su":
        for j in range(n - 1):
            h = np.zeros((n, n), dtype=complex)
            h[j, j] = 1j
            h[j + 1, j + 1] = -1j
            mats.append(h)
    else:
        for j in range(n):
            h = np.zeros((n, n), dtype=complex)
            h[j, j] = 1j
            mats.append(h)
    for j, k in _pair_indices(n):
        u = np.zeros((n, n), dtype=complex)
        u[j, k] = 1.0
        u[k, j] = -1.0
        mats.append(u)
        v = np.zeros((n, n), dtype=complex)
        v[j, k] = 1j
        v[k, j] = 1j
        mats.append(v)
    return mats


def _su_coord_maps(n):
    """Maps between SU(n) Cartan covector coords and R^n eigen-patterns.

    Coordinates are values on H_j = i(E_jj - E_{j+1,j+1}); the pattern g
    is the sum-zero vector with <gamma, diag(i theta)> = sum g_j theta_j,
    so coords_j = g_j - g_{j+1}.
    """
    T = np.zeros((n - 1, n))
    for j in range(n - 1):
        T[j, j] = 1.0
        T[j, j + 1] = -1.0
    # right inverse landing in the sum-zero subspace
    P0 = np.eye(n) - np.full((n, n), 1.0 / n)
    Tplus = P0 @ T.T @ np.linalg.inv(T @ P0 @ T.T)
    return T, Tplus


@dataclass(frozen=True, eq=False)
class CompactGroup:
    """Root datum of a supported compact connected group.

    Attributes
    ----------
    kind : str
        One of ``"torus"``, ``"su"``, ``"u"``.
    n : int
        Torus rank, or the matrix size for SU(n)/U(n).
    dim, rank : int
        Group dimension d_G and rank r_G; ``n_pos = (dim - rank)//2``.
    positive_roots : ndarray, shape (n_pos, rank)
        Positive roots as Cartan covector coordinates.
    delta : ndarray, shape (rank,)
        Half-sum of the positive roots.
    weyl_elements : tuple of (ndarray, int)
        Orthogonal actions on Cartan covector coordinates with signs.
    lattice_basis : ndarray, shape (rank, rank)
        Columns span the lattice of integral forms L(G).  For U(n) the
        valid irrep labels are delta + L(G) (half-odd-integer tuples).
    """

    kind: str
    n: int
    dim: int
    rank: int
    positive_roots: np.ndarray
    delta: np.ndarray
    weyl_elements: tuple
    lattice_basis: np.ndarray
    basis_matrices: tuple = field(repr=False, default=())

    @property
    def n_pos(self):
        return (self.dim - self.rank) // 2

    @property
    def is_matrix_group(self):
        return self.kind in ("su", "u")

    @property
    def weyl_order(self):
        return len(self.weyl_elements)

    @property
    def name(self):
        if self.kind == "torus":
            return f"T^{self.n}"
        return f"{self.kind.upper()}({self.n})"

    def identity_element(self):
        if self.kind == "torus":
            return np.zeros(self.n)
        return np.eye(self.n, dtype=complex)

    def check_element(self, g):
        """Validate a group element (angles for tori, unitary matrix else)."""
        g = np.asarray(g)
        if self.kind == "torus":
            if g.shape != (self.n,) or not np.isrealobj(g):
                raise ValueError(f"torus element must be {self.n} real angles")
            return g
        if g.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        if np.linalg.norm(g @ g.conj().T - np.eye(self.n)) > 1e-10:
            raise ValueError("group element is not unitary")
        if self.kind == "su" and abs(np.linalg.det(g) - 1.0) > 1e-10:
            raise ValueError("group element is not special unitary")
        return g


def build_group(kind, n=None):
    """Construct a :class:`CompactGroup` with populated root datum.

    Parameters
    ----------
    kind : str or tuple
        ``"torus"``/``"su"``/``"u"`` together with ``n``, a tuple like
        ``("su", 2)``, or a compact string such as ``"t2"``, ``"su2"``,
        ``"u3"``, ``"torus(3)"``.
    """
    if isinstance(kind, tuple):
        kind, n = kind
    if n is None:
        kind, n = _parse_kind_string(kind)
    kind = kind.lower()
    if kind in ("t", "torus"):
        if n < 1:
            raise UnsupportedGroupError("torus rank must be >= 1")
        r = n
        return CompactGroup(
            kind="torus", n=r, dim=r, rank=r,
            positive_roots=np.zeros((0, r)),
            delta=np.zeros(r),
            weyl_elements=((np.eye(r), 1),),
            lattice_basis=np.eye(r),
        )
    if kind not in ("su", "u"):
        raise UnsupportedGroupError(f"unsupported group kind {kind!r}")
    if kind == "su" and n < 2:
        raise UnsupportedGroupError("SU(n) needs n >= 2")
    if kind == "u" and n < 1:
        raise UnsupportedGroupError("U(n) needs n >= 1")
    if n > _MAX_WEYL_RANK:
        raise UnsupportedGroupError(f"n={n} too large (Weyl group is materialized)")

    if kind == "u":
        rank, dim = n, n * n
        pattern_to_coords = np.eye(n)
        coords_to_pattern = np.eye(n)
    else:
        rank, dim = n - 1, n * n - 1
        pattern_to_coords, coords_to_pattern = _su_coord_maps(n)

    roots = []
    for j, k in _pair_indices(n):
        pat = np.zeros(n)
        pat[j], pat[k] = 1.0, -1.0
        roots.append(pattern_to_coords @ pat)
    roots = np.array(roots)
    delta = 0.5 * roots.sum(axis=0)

    weyl = []
    for perm in permutations(range(n)):
        P = np.zeros((n, n))
        P[list(perm), range(n)] = 1.0
        mat = pattern_to_coords @ P @ coords_to_pattern
        sign = int(round(np.linalg.det(P)))
        weyl.append((mat, sign))

    return CompactGroup(
        kind=kind, n=n, dim=dim, rank=rank,
        positive_roots=roots, delta=delta,
        weyl_elements=tuple(weyl),
        lattice_basis=np.eye(rank),
        basis_matrices=tuple(_basis_matrices(kind, n)),
    )


def _parse_kind_string(text):
    text = str(text).strip().lower().replace("torus", "t")
    if "(" in text:
        head, num = text.rstrip(")").split("(")
        return head, int(num)
    head = text.rstrip("0123456789")
    num = text[len(head):]
    if not num:
        raise UnsupportedGroupError(f"cannot parse group {text!r}")
    return head, int(num)


def algebra_matrix(group, coeffs):
    """Realize an algebra coefficient vector as a skew-Hermitian matrix."""
    if not group.is_matrix_group:
        raise ValueError("torus algebra vectors have no canonical matrix form")
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros((group.n, group.n), dtype=complex)
    for c, b in zip(coeffs, group.basis_matrices):
        out += c * b
    return out


def matrix_coefficients(group, mat):
    """Inverse of :func:`algebra_matrix` (trace-orthogonal projection)."""
    vals = np.array([-np.trace(mat @ b).real for b in group.basis_matrices])
    gram = _base_gram(group)
    return np.linalg.solve(gram, vals)


def cartan_matrix_of(group, t_coeffs):
    """Matrix of a Cartan-algebra vector given Cartan-basis coefficients."""
    full = np.zeros(group.dim)
    full[:group.rank] = np.asarray(t_coeffs, dtype=float)
    return algebra_matrix(group, full)


def diag_angles(group, t_coeffs):
    """Eigen-pattern theta with sum c_j H_j = diag(i theta_1, ...)."""
    c = np.asarray(t_coeffs, dtype=float)
    if group.kind == "torus":
        return c
    if group.kind == "u":
        return c
    theta = np.zeros(group.n)
    for j, cj in enumerate(c):
        theta[j] += cj
        theta[j + 1] -= cj
    return theta


def _base_gram(group):
    """Gram matrix of the reference metric in the fixed basis.

    Torus: identity.  SU(n)/U(n): trace form, block diagonal across the
    Cartan/off-diagonal split (off-diagonal pairs have norm^2 = 2).
    """
    if group.kind == "torus":
        return np.eye(group.dim)
    gram = np.zeros((group.dim, group.dim))
    B = group.basis_matrices
    for i in range(group.rank):
        for j in range(group.rank):
            gram[i, j] = -np.trace(B[i] @ B[j]).real
    for i in range(group.rank, group.dim):
        gram[i, i] = 2.0
    return gram


@dataclass(frozen=True, eq=False)
class InvariantMetric:
    """Ad-invariant Euclidean product phi on the Lie algebra.

    ``gram`` is the SPD matrix of phi in the fixed basis.  For SU(n) and
    U(n) it must be ``scale`` times the trace form; tori take arbitrary
    SPD Gram matrices.
    """

    group: CompactGroup
    gram: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        if gram.shape != (self.group.dim, self.group.dim):
            raise ValueError("Gram matrix has the wrong shape")
        if np.linalg.norm(gram - gram.T) > 1e-12:
            raise ValueError("Gram matrix must be symmetric")
        if np.linalg.eigvalsh(gram).min() <= 0:
            raise ValueError("Gram matrix must be positive definite")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_cartan_gram", gram[:self.group.rank, :self.group.rank])
        if self.group.is_matrix_group:
            self._check_ad_invariance()

    # -- pairings ---------------------------------------------------------

    def inner(self, a, b):
        """phi(a, b) for algebra coefficient vectors."""
        return float(np.asarray(a) @ self.gram @ np.asarray(b))

    def inner_matrices(self, A, B):
        """phi(A, B) = scale * trace(A conj(B)^T) for matrix arguments."""
        return self.scale * np.trace(A @ B.conj().T).real

    def sharp(self, gamma):
        """gamma^phi for a Cartan covector: Cartan-basis coefficients.

        Uniquely determined by gamma = phi(gamma^phi, .); Cartan
        covectors are extended by zero on the phi-orthocomplement of t,
        which coincides with the trace-orthocomplement for supported
        metrics, so the solve stays inside the Cartan block.
        """
        return np.linalg.solve(self._cartan_gram, np.asarray(gamma, dtype=float))

    def sharp_full(self, gamma_full):
        """gamma^phi for a full coalgebra covector (length-dim coords)."""
        return np.linalg.solve(self.gram, np.asarray(gamma_full, dtype=float))

    def norm_covector(self, gamma):
        """||gamma||_phi = ||gamma^phi||_phi for a Cartan covector."""
        gamma = np.asarray(gamma, dtype=float)
        return float(np.sqrt(gamma @ np.linalg.solve(self._cartan_gram, gamma)))

    def norm_covector_full(self, gamma_full):
        gamma_full = np.asarray(gamma_full, dtype=float)
        return float(np.sqrt(gamma_full @ np.linalg.solve(self.gram, gamma_full)))

    def norm_vector(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return float(np.sqrt(coeffs @ self.gram @ coeffs))

    def unit_covector(self, gamma):
        """gamma_{phi,u} = gamma / ||gamma||_phi."""
        return np.asarray(gamma, dtype=float) / self.norm_covector(gamma)

    def unit_sharp(self, gamma):
        """gamma^phi_u = gamma^phi / ||gamma||_phi."""
        return self.sharp(gamma) / self.norm_covector(gamma)

    def pair_covectors(self, a, b):
        """phi(a, b) for Cartan covectors, i.e. phi(a^phi, b^phi)."""
        return float(np.asarray(a) @ self.sharp(b))

    # -- validation -------------------------------------------------------

    def _check_ad_invariance(self):
        # the trace form is Ad-invariant, hence so is every positive multiple
        base = _base_gram(self.group)
        if np.linalg.norm(self.gram - self.scale * base) > 1e-10 * self.scale:
            raise ValueError(
                "SU(n)/U(n) metrics must be positive multiples of the trace form")


def trace_metric(group, scale=1.0):
    """Default metric: phi(A,B) = scale * trace(A conj(B)^T); identity on tori."""
    if scale <= 0:
        raise ValueError("metric scale must be positive")
    return InvariantMetric(group, scale * _base_gram(group), scale=float(scale))


def torus_metric(group, gram):
    """Torus metric with an arbitrary SPD Gram matrix."""
    if group.kind != "torus":
        raise ValueError("torus_metric only applies to tori")
    return InvariantMetric(group, np.asarray(gram, dtype=float))


# -- half-weights ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HalfWeight:
    """Regular dominant half-weight nu labeling an irrep.

    nu = lambda + delta with lambda a dominant weight; regularity and
    dominance mean phi(nu, beta) > 0 for every positive root beta (a
    metric-independent condition for the supported metrics).
    """

    group: CompactGroup
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.group.rank,):
            raise ValueError(f"nu needs {self.group.rank} coordinates")
        object.__setattr__(self, "coords", coords)
        g = self.group
        lam = coords - g.delta
        frac = lam - np.round(lam)
        if np.max(np.abs(frac), initial=0.0) > 1e-9:
            raise ValueError(f"nu - delta = {lam} is not an integral weight")
        metric = trace_metric(g)
        for beta in g.positive_roots:
            if metric.pair_covectors(coords, beta) <= 0:
                raise ValueError(
                    f"nu = {coords} is not regular dominant (fails on root {beta})")
        if g.kind == "torus" and np.allclose(coords, 0.0):
            raise ValueError("torus half-weights must be nonzero")

    @property
    def highest_weight(self):
        return self.coords - self.group.delta

    def scaled(self, k):
        """k*nu (valid as a label only when k*nu - delta stays integral)."""
        return HalfWeight(self.group, k * self.coords)

    def scaling_is_valid(self, k):
        lam = k * self.coords - self.group.delta
        return bool(np.max(np.abs(lam - np.round(lam)), initial=0.0) <= 1e-9)


def half_weight(group, coords):
    """Validated :class:`HalfWeight` from coordinates; a HalfWeight passes through."""
    if isinstance(coords, HalfWeight):
        return coords
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    return HalfWeight(group, coords)


# -- adjoint / coadjoint ----------------------------------------------------

def adjoint_action(group, g, coeffs):
    """Ad_g xi = g xi g^{-1} in basis coefficients (identity on tori)."""
    if group.kind == "torus":
        return np.asarray(coeffs, dtype=float)
    g = group.check_element(g)
    xi = algebra_matrix(group, coeffs)
    return matrix_coefficients(group, g @ xi @ g.conj().T)


def coadjoint_action(group, g, gamma_full):
    """Coad_g on full coalgebra coordinates: <Coad_g gamma, xi> = <gamma, Ad_{g^-1} xi>."""
    if group.kind == "torus":
        return np.asarray(gamma_full, dtype=float)
    g = group.check_element(g)
    gamma_full = np.asarray(gamma_full, dtype=float)
    out = np.empty(group.dim)
    for m, b in enumerate(group.basis_matrices):
        back = matrix_coefficients(group, g.conj().T @ b @ g)
        out[m] = gamma_full @ back
    return out


def dominant_representative(metric, gamma_full):
    """Dominant Cartan coordinates q and a move h with gamma = Coad_h(q).

    Tori: (gamma, identity).  SU(n)/U(n): the eigenvalues i theta of
    gamma^phi in descending theta order give q = scale * theta (U) or
    q = scale * (theta_j - theta_{j+1}) (SU), and h is the matching
    eigenvector matrix (determinant 1 for SU); h is defined modulo the
    stabilising torus.
    """
    group = metric.group
    if group.kind == "torus":
        return np.asarray(gamma_full, dtype=float), group.identity_element()
    herm = -1j * algebra_matrix(group, metric.sharp_full(gamma_full))
    eigvals, eigvecs = np.linalg.eigh(herm)
    order = np.argsort(eigvals)[::-1]
    theta = eigvals[order]
    h = eigvecs[:, order]
    if group.kind == "u":
        return metric.scale * theta, h
    h = h * np.linalg.det(h) ** (-1.0 / group.n)
    return metric.scale * (theta[:-1] - theta[1:]), h


def embed_cartan_covector(group, gamma):
    """Extend a Cartan covector by zero on the orthocomplement of t."""
    full = np.zeros(group.dim)
    full[:group.rank] = np.asarray(gamma, dtype=float)
    return full


def ad_on_cartan_complement(metric, t_coeffs):
    """Restriction of ad_tau to the phi-orthocomplement of the Cartan algebra.

    Parameters
    ----------
    metric : InvariantMetric
    t_coeffs : array_like
        Cartan-basis coefficients of tau in t.

    Returns
    -------
    mat : ndarray, shape (dim-rank, dim-rank)
        Matrix in a fixed phi-orthonormal basis of t^{perp_phi}
        (the normalized off-diagonal pairs); skew-symmetric.
    absdet : float
        |det|; 1 by convention on tori (empty operator), 0 when tau is
        not regular.
    """
    group = metric.group
    if group.kind == "torus":
        return np.zeros((0, 0)), 1.0
    theta = diag_angles(group, t_coeffs)
    pairs = _pair_indices(group.n)
    m = 2 * len(pairs)
    mat = np.zeros((m, m))
    absdet = 1.0
    for idx, (j, k) in enumerate(pairs):
        a = theta[j] - theta[k]
        mat[2 * idx, 2 * idx + 1] = -a
        mat[2 * idx + 1, 2 * idx] = a
        absdet *= a * a
    return mat, abs(absdet)


# -- volumes ----------------------------------------------------------------

def group_volumes(metric):
    """Riemannian volumes (vol^phi(G), vol^phi(T)) in closed form.

    Torus with Gram A: both equal (2 pi)^r sqrt(det A).  For the trace
    form, vol(U(n)) = (2 pi)^{n(n+1)/2} / prod_{k<n} k! and
    vol(SU(n)) = sqrt(n) (2 pi)^{n(n+1)/2 - 1} / prod_{k<n} k!; a metric
    scale c multiplies volumes by c^{dim/2} (c^{rank/2} for the torus).
    Cross-checked by quadrature in :func:`group_volumes_quadrature`.
    """
    group = metric.group
    if group.kind == "torus":
        v = (2 * np.pi) ** group.n * np.sqrt(np.linalg.det(metric.gram))
        return v, v
    import math

    n, c = group.n, metric.scale
    fact = 1.0
    for k in range(1, n):
        fact *= math.factorial(k)
    if group.kind == "u":
        vol_g = (2 * np.pi) ** (n * (n + 1) / 2) / fact
        vol_t = (2 * np.pi) ** n
    else:
        vol_g = np.sqrt(n) * (2 * np.pi) ** (n * (n + 1) / 2 - 1) / fact
        vol_t = np.sqrt(n) * (2 * np.pi) ** (n - 1)
    return c ** (group.dim / 2) * vol_g, c ** (group.rank / 2) * vol_t


def group_volumes_quadrature(metric, nodes=4000):
    """Quadrature cross-check of vol^phi(G) for torus, SU(2), U(2).

    SU(2): radial integration of the squared exp-map Jacobian over the
    injectivity ball.  U(2): central circle times SU(2), divided by the
    order-2 intersection.  Returns None for other groups.
    """
    group = metric.group
    if group.kind == "torus":
        return group_volumes(metric)[0]
    c = metric.scale
    if (group.kind, group.n) == ("su", 2):
        # xi with eigen-angles +-rho has P(xi) = sin(rho)/rho and
        # ||xi||_phi = sqrt(2 c) rho; injectivity for rho < pi.
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(nodes if nodes < 2000 else 200)
        rho = 0.5 * np.pi * (x + 1.0)
        wr = 0.5 * np.pi * w
        integrand = np.sin(rho) ** 2  # (sin rho / rho)^2 * rho^2
        return (2 * c) ** 1.5 * 4 * np.pi * float(wr @ integrand)
    if (group.kind, group.n) == ("u", 2):
        su2 = trace_metric(build_group("su", 2), scale=c)
        vol_su2 = group_volumes_quadrature(su2, nodes)
        circle = 2 * np.pi * np.sqrt(2 * c)  # central circle {e^{i t} I}
        return vol_su2 * circle / 2.0
    return None


# -- Haar quadrature --------------------------------------------------------

def haar_quadrature(group, level=48):
    """Nodes and weights for the normalized Haar measure.

    Torus: product trapezoid with ``level`` angles per circle (exact on
    trigonometric polynomials below the grid degree).  SU(2): ZYZ Euler
    angles, uniform in the two rotations and Gauss-Legendre against
    sin(beta)/2.  U(2): central phase in [0, pi) times SU(2).

    Returns
    -------
    nodes : ndarray
        Group elements: shape (N, r) angle vectors for tori, (N, 2, 2)
        matrices otherwise.  Node order runs over (tau,) beta, alpha,
        gamma from the outermost axis in.
    weights : ndarray
        Positive weights with sum 1.
    """
    if group.kind == "torus":
        thetas = 2 * np.pi * np.arange(level) / level
        grids = np.meshgrid(*([thetas] * group.n), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        return nodes, np.full(len(nodes), 1.0 / len(nodes))
    if group.n != 2:
        raise UnsupportedGroupError(
            f"no Haar quadrature for {group.name}; supported: tori, SU(2), U(2)")
    from numpy.polynomial.legendre import leggauss
    x, gw = leggauss(level)
    betas = 0.5 * np.pi * (x + 1.0)
    bw = 0.5 * np.pi * gw * np.sin(betas) / 2.0  # integrates to 1
    alphas = 2 * np.pi * np.arange(level) / level
    gammas = 4 * np.pi * np.arange(level) / level
    weights = np.repeat(bw / level ** 2, level ** 2)
    if group.kind == "su":
        b, a, c = np.meshgrid(betas, alphas, gammas, indexing="ij")
        params = [a, b, c]
    else:
        m = max(4, level // 2)
        taus = np.pi * np.arange(m) / m
        t, b, a, c = np.meshgrid(taus, betas, alphas, gammas, indexing="ij")
        params = [a, b, c, t]
        weights = np.tile(weights, m) / m
    return euler_elements(np.stack([p.ravel() for p in params], axis=-1)), weights


def euler_elements(params):
    """SU(2)/U(2) elements from ZYZ Euler angles.

    Row (alpha, beta, gamma) of ``params`` maps to
    Rz(alpha) Ry(beta) Rz(gamma) with Rz(t) = diag(e^{it/2}, e^{-it/2})
    and Ry(t) the real rotation by t/2; a fourth column tau multiplies
    the element by the central phase e^{i tau} (U(2)).

    Parameters
    ----------
    params : array_like, shape (N, 3) or (N, 4)

    Returns
    -------
    ndarray, shape (N, 2, 2)
    """
    params = np.asarray(params, dtype=float)
    a, b, c = params[:, 0], params[:, 1], params[:, 2]
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    ea, ec = np.exp(1j * a / 2), np.exp(1j * c / 2)
    g = np.empty((len(params), 2, 2), dtype=complex)
    g[:, 0, 0] = ea * cb * ec
    g[:, 0, 1] = -ea * sb / ec
    g[:, 1, 0] = sb * ec / ea
    g[:, 1, 1] = cb / (ea * ec)
    if params.shape[1] == 4:
        g *= np.exp(1j * params[:, 3])[:, None, None]
    return g


def random_unitary(n, rng, special=False):
    """Haar-random U(n) (or SU(n)) element via QR of a Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    if special:
        q = q * np.linalg.det(q) ** (-1.0 / n)
    return q


def rational_pairing(group, a, b):
    """Exact trace-form pairing phi(a, b) of Cartan covectors over Q."""
    if group.kind == "torus":
        return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
    n = group.n
    if group.kind == "u":
        return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
    # SU(n): convert coords to sum-zero patterns with rational arithmetic
    def pattern(coords):
        g = [Fraction(0)] * n
        # solve g_j - g_{j+1} = coords_j with sum zero
        for j in range(n - 1, 0, -1):
            g[j - 1] = g[j] + Fraction(coords[j - 1])
        shift = sum(g, Fraction(0)) / n
        return [x - shift for x in g]
    pa, pb = pattern(a), pattern(b)
    return sum(x * y for x, y in zip(pa, pb))
