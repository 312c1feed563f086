"""Compact connected Lie groups: torus(r), SU(n) and U(n).

Root data, Weyl group orders, integral lattices, Ad-invariant metrics, and
the linear-algebra primitives consumed by the character formulas and the
projective models: the musical isomorphism gamma -> gamma^phi, the
restriction of ad_tau to the orthocomplement of the Cartan algebra, and
closed-form Riemannian volumes.

Conventions
-----------
* The fixed basis of the algebra lists the Cartan basis first: torus
  uses the standard basis of R^r, SU(n) uses H_j = i(E_jj - E_{j+1,j+1})
  and U(n) uses H_j = i E_jj, followed (SU(n)/U(n)) by the off-diagonal
  pairs E_jk - E_kj and i(E_jk + E_kj), j < k.  For SU(2) the single
  Cartan coordinate is the value on Z = diag(i, -i), and for U(n) the
  Cartan coordinates are the usual decreasing tuples.
* :attr:`CompactGroup.cartan_diagonal` D (row j is diag(H_j)/i) is the one
  map between Cartan coordinates and eigen-angles: exp(sum c_j H_j) =
  diag(e^{i c D}), and a covector with eigen-pattern g (the sum-zero
  vector with <gamma, diag(i theta)> = sum g_j theta_j on SU(n)) has
  Cartan coordinates D g.  Roots and coroots are read from it; the Weyl
  group, which permutes the eigen-angles, is kept only as its order.
* Covectors are arrays of values on that basis and algebra vectors are
  coefficient arrays with respect to it.  A Cartan datum is given by
  its leading ``rank`` coordinates, a full one by all ``dim``; the
  functions below read the leading block that matches the length, so
  both kinds go through one rule.  For matrix groups
  :func:`algebra_matrix` realizes algebra vectors as skew-Hermitian
  matrices.
* SU(n)/U(n) metrics are positive multiples of trace(A conj(B)^T);
  tori accept an arbitrary SPD Gram matrix in the standard basis.
  Every supported Gram matrix is block-diagonal (the Cartan block and
  its complement), so a Cartan covector extended by zero has its sharp
  in t and the leading block of the inverse Gram is the inverse of the
  Cartan block.

All objects are immutable after construction and all functions are
pure, so everything here is safe to share across threads.
"""

import math
from functools import cached_property, lru_cache

import numpy as np


class UnsupportedGroupError(ValueError):
    """Requested group kind is outside torus(r) / SU(n) / U(n)."""


class AssumptionViolation(RuntimeError):
    """A runtime hypothesis of the asymptotic theory fails."""


# the algebra basis is stored densely, dim * n^2 complex entries (1.6 GB
# at n = 100), so SU(n)/U(n) are refused past this n
_MAX_MATRIX_SIZE = 7


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
    trace_gram : ndarray, shape (dim, dim)
        Gram matrix of the reference metric in the fixed basis: the
        identity on tori, -trace(A B) on SU(n)/U(n).
    cartan_diagonal : ndarray, shape (rank, n)
        Row j is diag(H_j)/i, the eigen-angles of the Cartan basis
        element H_j (the identity on tori, whose elements are angles).
    basis_matrices : ndarray, shape (dim, n, n)
        The fixed skew-Hermitian basis (empty on tori).
    """

    def __init__(self, kind, n, dim, rank, positive_roots, delta, trace_gram,
                 cartan_diagonal, basis_matrices=()):
        self.kind = kind
        self.n = n
        self.dim = dim
        self.rank = rank
        self.positive_roots = positive_roots
        self.delta = delta
        self.trace_gram = trace_gram
        self.cartan_diagonal = cartan_diagonal
        self.basis_matrices = basis_matrices

    @property
    def n_pos(self):
        return (self.dim - self.rank) // 2

    @property
    def is_matrix_group(self):
        return self.kind in ("su", "u")

    @property
    def weyl_order(self):
        """|W|: n! on SU(n)/U(n) (the eigen-angle permutations), 1 on tori."""
        return math.factorial(self.n) if self.is_matrix_group else 1

    @cached_property
    def coroots(self):
        """Coroots beta^vee = 2 beta^phi / phi(beta, beta) of the positive
        roots as integer columns of Cartan coefficients, shape
        (rank, n_pos): ``coords @ coroots`` pairs a Cartan covector with
        every coroot.  The root beta with eigen-pattern e_j - e_k has
        trace length sqrt 2 and coroot the Cartan element c with
        eigen-angles D^T c = e_j - e_k, that is (D D^T) c = beta."""
        D = self.cartan_diagonal
        return np.rint(np.linalg.solve(D @ D.T, self.positive_roots.T)).astype(int)

    @property
    def name(self):
        if self.kind == "torus":
            return f"T^{self.n}"
        return f"{self.kind.upper()}({self.n})"

    def check_element(self, g):
        """Validate a group element (angles for tori, unitary matrix else)
        or a stack of them along a leading axis."""
        g = np.asarray(g)
        if self.kind == "torus":
            if g.ndim not in (1, 2) or g.shape[-1] != self.n or not np.isrealobj(g):
                raise ValueError(f"torus element must be {self.n} real angles")
            return g
        if g.ndim not in (2, 3) or g.shape[-2:] != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix")
        gram = g @ g.conj().swapaxes(-1, -2)
        if np.any(np.linalg.norm(gram - np.eye(self.n), axis=(-2, -1)) > 1e-10):
            raise ValueError("group element is not unitary")
        if self.kind == "su" and np.any(abs(np.linalg.det(g) - 1.0) > 1e-10):
            raise ValueError("group element is not special unitary")
        return g


def build_group(kind, n=None):
    """Construct a :class:`CompactGroup` with populated root datum.

    Parameters
    ----------
    kind : str
        ``"torus"``/``"su"``/``"u"`` together with ``n``, or a compact
        string such as ``"t2"``, ``"su2"``, ``"u3"``, ``"torus(3)"``.
    """
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
            trace_gram=np.eye(r),
            cartan_diagonal=np.eye(r),
        )
    if kind not in ("su", "u"):
        raise UnsupportedGroupError(f"unsupported group kind {kind!r}")
    if kind == "su" and n < 2:
        raise UnsupportedGroupError("SU(n) needs n >= 2")
    if kind == "u" and n < 1:
        raise UnsupportedGroupError("U(n) needs n >= 1")
    if n > _MAX_MATRIX_SIZE:
        raise UnsupportedGroupError(f"n={n} too large (the algebra basis is dense)")

    rank, dim = (n, n * n) if kind == "u" else (n - 1, n * n - 1)
    basis = np.array(_basis_matrices(kind, n))
    D = np.diagonal(basis[:rank], axis1=1, axis2=2).imag

    pairs = _pair_indices(n)
    patterns = np.zeros((len(pairs), n))
    for idx, (j, k) in enumerate(pairs):
        patterns[idx, [j, k]] = 1.0, -1.0
    roots = patterns @ D.T
    delta = 0.5 * roots.sum(axis=0)
    return CompactGroup(
        kind=kind, n=n, dim=dim, rank=rank,
        positive_roots=roots, delta=delta,
        trace_gram=-np.einsum("aij,bji->ab", basis, basis).real,
        cartan_diagonal=D,
        basis_matrices=basis,
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


def _leading_size(group, v):
    """Length of the last axis of v: ``rank`` for Cartan data, ``dim``
    for full data."""
    n = np.shape(v)[-1]
    if n not in (group.rank, group.dim):
        raise ValueError(f"expected {group.rank} Cartan or {group.dim} full "
                         f"coordinates, got {n}")
    return n


def algebra_matrix(group, coeffs):
    """Realize algebra coefficients, Cartan (length ``rank``) or full
    (length ``dim``), or a stack of them along leading axes, as
    skew-Hermitian matrices."""
    if not group.is_matrix_group:
        raise ValueError("torus algebra vectors have no canonical matrix form")
    coeffs = np.asarray(coeffs, dtype=float)
    n = _leading_size(group, coeffs)
    return np.einsum("...m,mij->...ij", coeffs, group.basis_matrices[:n])


def matrix_coefficients(group, mat):
    """Inverse of :func:`algebra_matrix` (trace-orthogonal projection)."""
    vals = -np.einsum("...ij,mji->...m", mat, group.basis_matrices).real
    return np.linalg.solve(group.trace_gram, vals[..., None])[..., 0]


class InvariantMetric:
    """Ad-invariant Euclidean product phi on the Lie algebra.

    ``gram`` is the SPD matrix of phi in the fixed basis.  For SU(n) and
    U(n) it must be ``scale`` times the trace form; tori take arbitrary
    SPD Gram matrices.
    """

    def __init__(self, group, gram, scale=1.0):
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (group.dim, group.dim):
            raise ValueError("Gram matrix has the wrong shape")
        if np.linalg.norm(gram - gram.T) > 1e-12:
            raise ValueError("Gram matrix must be symmetric")
        if np.linalg.eigvalsh(gram).min() <= 0:
            raise ValueError("Gram matrix must be positive definite")
        self.group = group
        self.gram = gram
        self.scale = scale
        # the inverse Gram matrix, for the sharp maps and covector norms
        # called thousands of times per suite
        self._gram_inv = np.linalg.inv(gram)
        if group.is_matrix_group:
            self._check_ad_invariance()

    def _inverse_block(self, gamma):
        """The leading block of the inverse Gram that matches gamma's length."""
        n = _leading_size(self.group, gamma)
        return self._gram_inv[:n, :n]

    # -- pairings ---------------------------------------------------------

    def inner(self, a, b):
        """phi(a, b) for coefficient vectors of one length, Cartan (``rank``
        values) or full (``dim`` values), through the matching leading
        block of the Gram matrix; a float for one pair."""
        a = np.asarray(a, dtype=float)
        n = _leading_size(self.group, a)
        return scalar_or_stack(a @ self.gram[:n, :n] @ np.asarray(b, dtype=float))

    def inner_matrices(self, A, B):
        """phi(A, B) = scale * trace(A conj(B)^T) for matrix arguments."""
        return self.scale * np.trace(A @ B.conj().T).real

    def sharp(self, gamma):
        """gamma^phi, uniquely determined by gamma = phi(gamma^phi, .).

        A full covector (``dim`` values) gives full coefficients.  A
        Cartan covector (``rank`` values) is extended by zero on the
        phi-orthocomplement of t, so its sharp lies in t and is returned
        as Cartan coefficients.  ``gamma`` may be a stack along leading
        axes.
        """
        gamma = np.asarray(gamma, dtype=float)
        return gamma @ self._inverse_block(gamma).T

    def norm_covector(self, gamma):
        """||gamma||_phi = ||gamma^phi||_phi for a Cartan or full covector;
        a float for one covector, an array for a stack along leading axes."""
        gamma = np.asarray(gamma, dtype=float)
        return scalar_or_stack(np.sqrt(np.einsum(
            "...i,ij,...j->...", gamma, self._inverse_block(gamma), gamma)))

    def pair_covectors(self, a, b):
        """phi(a, b) = phi(a^phi, b^phi) for covectors of one length (Cartan
        or full); ``a`` may be a stack along leading axes, which gives an
        array."""
        return scalar_or_stack(np.asarray(a) @ self.sharp(b))

    # -- validation -------------------------------------------------------

    def _check_ad_invariance(self):
        # the trace form is Ad-invariant, hence so is every positive multiple
        base = self.group.trace_gram
        if np.linalg.norm(self.gram - self.scale * base) > 1e-10 * self.scale:
            raise ValueError(
                "SU(n)/U(n) metrics must be positive multiples of the trace form")


def scalar_or_stack(values):
    """A float for a 0-d result, the array itself for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def trace_metric(group, scale=1.0):
    """Default metric: phi(A,B) = scale * trace(A conj(B)^T); identity on tori."""
    if scale <= 0:
        raise ValueError("metric scale must be positive")
    return InvariantMetric(group, scale * group.trace_gram, scale=float(scale))


# -- half-weights ----------------------------------------------------------

class HalfWeight:
    """Regular dominant half-weight nu labeling an irrep.

    nu = lambda + delta with lambda a dominant weight; regularity and
    dominance mean phi(nu, beta) > 0 for every positive root beta (a
    metric-independent condition for the supported metrics).
    """

    def __init__(self, group, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (group.rank,):
            raise ValueError(f"nu needs {group.rank} coordinates")
        self.group = g = group
        self.coords = coords
        lam = coords - g.delta
        frac = lam - np.round(lam)
        if np.max(np.abs(frac), initial=0.0) > 1e-9:
            raise ValueError(f"nu - delta = {lam} is not an integral weight")
        failed = np.flatnonzero(coords @ g.coroots <= 0)
        if failed.size:
            raise ValueError(f"nu = {coords} is not regular dominant "
                             f"(fails on root {g.positive_roots[failed[0]]})")
        if g.kind == "torus" and np.allclose(coords, 0.0):
            raise ValueError("torus half-weights must be nonzero")

    @property
    def highest_weight(self):
        return self.coords - self.group.delta

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
    """Ad_g xi = g xi g^{-1} in basis coefficients (identity on tori).

    ``g`` may be a stack of elements along a leading axis (and ``coeffs``
    one vector or a matching stack); the result then has that leading axis.
    """
    g = group.check_element(g)
    if group.kind == "torus":   # the identity, repeated along g's leading axis
        return np.asarray(coeffs, dtype=float) + np.zeros(g.shape[:-1] + (1,))
    xi = algebra_matrix(group, coeffs)
    return matrix_coefficients(group, g @ xi @ g.conj().swapaxes(-1, -2))


def dominant_representative(metric, gamma_full):
    """Dominant Cartan coordinates q and a move h with gamma = Coad_h(q).

    Tori: (gamma, identity).  SU(n)/U(n): the eigenvalues i theta of
    gamma^phi in descending theta order give q = scale * D theta with D
    the :attr:`~CompactGroup.cartan_diagonal`, and h is the matching
    eigenvector matrix (determinant 1 for SU); h is defined modulo the
    stabilising torus.  ``gamma_full`` may be a stack of covectors along
    leading axes; q and h then carry those axes.
    """
    group = metric.group
    gamma_full = np.asarray(gamma_full, dtype=float)
    if group.kind == "torus":
        return gamma_full, np.zeros(gamma_full.shape[:-1] + (group.n,))
    herm = -1j * algebra_matrix(group, metric.sharp(gamma_full))
    eigvals, eigvecs = np.linalg.eigh(herm)
    order = np.argsort(eigvals, axis=-1)[..., ::-1]
    theta = np.take_along_axis(eigvals, order, axis=-1)
    h = np.take_along_axis(eigvecs, order[..., None, :], axis=-1)
    if group.kind == "su":
        h = h * (np.linalg.det(h) ** (-1.0 / group.n))[..., None, None]
    return metric.scale * (theta @ group.cartan_diagonal.T), h


def complement_frame(metric):
    """The phi-orthonormal frame of t^{perp_phi} in which
    :func:`ad_on_cartan_complement` is written: the off-diagonal basis
    pairs over sqrt(2 scale), shape (dim - rank, n, n)."""
    group = metric.group
    return group.basis_matrices[group.rank:] / np.sqrt(2 * metric.scale)


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
    theta = np.asarray(t_coeffs, dtype=float) @ group.cartan_diagonal
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
    The test suite cross-checks it against an independent quadrature
    (``group_volumes_quadrature`` in ``tests/oracles.py``).
    """
    group = metric.group
    if group.kind == "torus":
        v = (2 * np.pi) ** group.n * np.sqrt(np.linalg.det(metric.gram))
        return v, v
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


# -- Haar quadrature --------------------------------------------------------

@lru_cache(maxsize=16)
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes,
    weights), computed once per order and shared by every quadrature.

    numpy's ``numpy.polynomial.legendre.leggauss`` step for step, so every
    node and weight keeps its bits, on numpy's core alone (importing
    numpy.polynomial took 3 ms of every ``import coorbit``): the
    eigenvalues of the symmetric scaled companion matrix of P_n, one
    Newton step, weights 1 / (P_{n-1} P_n') with both factors scaled to
    a largest modulus of 1, both arrays symmetrized, and the weights
    scaled to sum to 2.
    """
    if n < 1:
        raise ValueError(f"Gauss-Legendre order must be a positive integer; got {n}")
    # the scaled companion matrix of the Legendre series e_n = P_n; its
    # last-column correction, -c[:-1] / c[-1] times a scale, is zero
    mat = np.zeros((n, n))
    scl = 1. / np.sqrt(2 * np.arange(n) + 1)
    top = mat.reshape(-1)[1::n + 1]
    top[...] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[n::n + 1] = top
    x = np.linalg.eigvalsh(mat)
    c = np.zeros(n + 1)
    c[n] = 1.0
    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    for a in (x, w):
        a.flags.writeable = False
    return x, w


def _legval(x, c):
    """The Legendre series c (lowest degree first) at the points x, by
    numpy's ``legval`` Clenshaw steps."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c[0], c[1]
    else:
        nd = len(c)
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            tmp = c0
            nd = nd - 1
            c0 = c[-i] - c1 * ((nd - 1) / nd)
            c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c):
    """The derivative of the Legendre series c, by numpy's ``legder`` steps."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


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
    x, gw = gauss_legendre(level)
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

