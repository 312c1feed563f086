"""Character formulas: Weyl dimension/character, exp-map Jacobian,
coadjoint-orbit quadrature and the orbit-integral (Kirillov) character.

The two character routes implemented here are deliberately independent:
``weyl_character`` is Weyl's quotient written as the Schur polynomial
of the eigenvalues, one Jacobi-Trudi determinant with no division and
so no special case on walls, while ``kirillov_character`` integrates a
Fourier kernel over the coadjoint orbit, one node per torus ring, and
divides by the exp-map Jacobian.  Their agreement on regular torus
elements is one of the package's acceptance criteria.  The orbit route
covers the groups whose orbits are points or round 2-spheres: tori,
SU(2) and U(2).  SU(n)/U(n) with n >= 3 get the Weyl route only; their
orbit quadrature is refused with UnsupportedGroupError.

Quadrature sums rely on numpy's pairwise summation, so results are
reproducible independently of how the node set would be partitioned.
"""

from fractions import Fraction

import numpy as np

from .groups import (
    HalfWeight,
    UnsupportedGroupError,
    algebra_matrix,
    complement_frame,
    gauss_legendre,
    half_weight,
    haar_quadrature,
)


class QuadratureDisagreement(RuntimeError):
    """Successive quadrature refinements failed to agree."""


def _coords(nu):
    return nu.coords if isinstance(nu, HalfWeight) else np.atleast_1d(np.asarray(nu, dtype=float))


# -- Weyl dimension formula --------------------------------------------------

def _root_ratios(group, coords):
    """phi(gamma, beta) / phi(delta, beta) for every positive root beta.

    beta^phi is a positive multiple of the coroot beta^vee for every
    supported metric, so each ratio is <gamma, beta^vee> / <delta, beta^vee>
    with :attr:`CompactGroup.coroots`.
    """
    return (coords @ group.coroots) / (group.delta @ group.coroots)


def _exact_dimension(group, coords, k=1):
    """prod_beta <k gamma, beta^vee> / <delta, beta^vee> as a Fraction, each
    coordinate of gamma read as the nearest fraction with denominator
    <= 10^9; every <delta, beta^vee> is a positive integer."""
    gamma = [k * Fraction(c).limit_denominator(10 ** 9) for c in np.atleast_1d(coords)]
    val = Fraction(1)
    for coroot, height in zip(group.coroots.T.tolist(), (group.delta @ group.coroots).tolist()):
        val *= sum(c * b for c, b in zip(gamma, coroot)) / round(height)
    return val


def weyl_dimension(group, nu):
    """Irrep dimension d_nu = prod_beta phi(nu, beta) / phi(delta, beta).

    The product does not depend on the Ad-invariant metric phi and is
    empty (d_nu = 1) on tori.  It is taken in exact rational arithmetic,
    so the integer is right at any size, and must be a positive integer.
    """
    coords = _coords(nu)
    singular = np.flatnonzero(np.abs(coords @ group.coroots) < 1e-14)
    if singular.size:
        raise ValueError(
            f"nu is not regular: phi(nu, {group.positive_roots[singular[0]]}) = 0")
    val = _exact_dimension(group, coords)
    if val < 1 or val.denominator != 1:
        raise ValueError(f"Weyl dimension {val} is not a positive integer")
    return int(val)


def scaled_dimension(group, nu, k):
    """d_{k nu}: the product formula at k nu in exact rational arithmetic.

    The formula has n_pos factors, each linear in nu, so d_{k nu} =
    k^{n_pos} d_nu; the character suite's ``dimension-scaling`` verdict
    compares the two.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError("k must be a positive integer")
    d_knu = _exact_dimension(group, _coords(nu), k)
    if d_knu.denominator != 1:
        raise ValueError(f"dimension {d_knu} is not an integer")
    return int(d_knu)


# -- Weyl character formula ---------------------------------------------------

def _partition(group, nu):
    """The highest weight of ``nu`` as a non-increasing integer n-tuple p:
    U(n) labels as they are; SU(n) Dynkin labels l as
    p_j = l_j + ... + l_{n-1}, p_n = 0."""
    labels = np.rint(half_weight(group, nu).highest_weight).astype(int)
    if group.kind == "su":
        return np.append(np.cumsum(labels[::-1])[::-1], 0)
    return labels


def _schur(p, x):
    """The Schur polynomial s_p(x) at the n values x (shape (..., n)).

    s_p = det(x)^{p_n} s_q with q = p - p_n a partition of length l, and
    s_q = det[h_{q_i - i + j}], 1 <= i, j <= l, by the Jacobi-Trudi
    identity (Macdonald, Symmetric Functions and Hall Polynomials, 2nd
    ed., I.3).  h_0 ... h_m take one pass per value, h_m += x_j h_{m-1},
    after l zeros that stand for h_{-l} ... h_{-1}.  The determinant is
    the last entry of a fraction-free (Bareiss) elimination with partial
    pivoting, run on the whole stack at once: each step's entries are
    minors of the matrix, whose cross products divide exactly by the
    previous pivot (Bareiss, Math. Comp. 22, 1968).  So an integer
    matrix, as at the identity, gives the exact integer while the
    products formed stay below 2^53 (every SU(4) label in 1..9).  A
    column with no pivot leaves an all-zero block and the value 0.
    Nothing is divided by a difference of values, so walls and the
    identity need no special case, and q = () gives det(x)^{p_n}.
    """
    x = np.asarray(x, dtype=complex)
    shape, x = x.shape[:-1], x.reshape(-1, x.shape[-1])
    q = p[p > p[-1]] - p[-1]
    size = len(q)
    h = np.zeros((len(x), 2 * size + (q[0] if size else 1)), dtype=complex)
    h[:, size] = 1
    for xj in x.T:
        for m in range(size + 1, h.shape[1]):
            h[:, m] += xj * h[:, m - 1]
    a = h[:, size + q[:, None] + np.arange(size) - np.arange(size)[:, None]]
    rows, det = np.arange(len(x)), np.prod(x, axis=1) ** p[-1]
    last = np.ones(len(x), dtype=complex)
    for k in range(size - 1):
        pivot = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        top = a[rows, pivot]
        a[rows, pivot], a[:, k] = a[:, k], top
        det[pivot != k] *= -1
        cross = (top[:, k, None, None] * a[:, k + 1:, k + 1:]
                 - a[:, k + 1:, k, None] * top[:, None, k + 1:]) * last.conj()[:, None, None]
        # each part over |last|^2: numpy's complex division multiplies by a
        # rounded reciprocal.  A zero pivot leaves an all-zero block, over 1
        norm = (last.real ** 2 + last.imag ** 2)[:, None, None]
        norm[norm == 0] = 1
        a[:, k + 1:, k + 1:].real = cross.real / norm
        a[:, k + 1:, k + 1:].imag = cross.imag / norm
        last = top[:, k]
    return (det * (a[:, -1, -1] if size else 1)).reshape(shape)[()]


def weyl_character(group, nu, theta):
    """Character chi_nu at the torus element exp(sum theta_j H_j).

    ``theta`` holds ``rank`` angles (a complex is returned) or a stack of
    them, shape (N, rank) (an (N,) array is returned), evaluated in one
    pass.  Off tori this is Weyl's quotient A_nu / A_delta written as the
    Schur polynomial of the eigenvalues e^{i theta D}
    (D = :attr:`~coorbit.groups.CompactGroup.cartan_diagonal`), taken by
    :func:`_schur` without a division, so regular elements, walls and the
    identity go one way.
    """
    nu = half_weight(group, nu)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim > 2 or theta.shape[-1] != group.rank:
        raise ValueError(f"theta needs {group.rank} angles (or a stack of them)")
    if group.kind == "torus":
        return np.exp(1j * (theta @ nu.coords))
    return _schur(_partition(group, nu), np.exp(1j * (theta @ group.cartan_diagonal)))


def character_at_element(group, nu, g):
    """chi_{nu} at a group element or a stack of them.

    ``g`` is one element (an angle vector for tori, a matrix otherwise)
    or a stack of elements along a leading axis, as returned by
    :func:`haar_quadrature`; a stack gives an array of values and one
    element a scalar.  For n = 2 the character with highest weight
    (l1, l2) is e2^{l2} h_{l1-l2}(x1, x2), a polynomial in the trace e1
    and the determinant e2 read from the entries (l2 = 0 on SU(2)): no
    eigenvalues and no wall singularities.  h_m runs in s = e1 / 2 and the
    discriminant D = e1^2/4 - e2 = ((g00 - g11)/2)^2 + g01 g10 as
    h_j = s h_{j-1} + v_j, v_{j+1} = s v_j + D h_{j-1}, v_j = (x1^j + x2^j)/2;
    near +-I, where e1^2/4 - e2 cancels, the Newton-Girard form
    h_j = e1 h_{j-1} - e2 h_{j-2} loses m^2 eps relative and D read from
    the entries does not.  For any other n the eigenvalues of g go
    straight to the Jacobi-Trudi determinant of :func:`weyl_character`,
    with no angles.
    """
    nu = half_weight(group, nu)
    g = np.asarray(g)
    if group.kind == "torus":
        return np.exp(1j * (g.astype(float) @ nu.coords))
    p = _partition(group, nu)
    if group.n != 2:
        return _schur(p, np.linalg.eigvals(g))
    l1, l2 = p
    a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    s, disc = (a + d) / 2, ((a - d) / 2) ** 2 + b * c
    h, v = np.ones_like(s), s
    for _ in range(l1 - l2):
        h, v = s * h + v, s * v + disc * h
    return (a * d - b * c) ** l2 * h


# -- exp-map Jacobian ---------------------------------------------------------

def exp_jacobian(group, xi):
    """Square root P(xi) of the exp-map volume distortion, P(0) = 1.

    For xi in the Cartan algebra, given by its Cartan coefficients, this
    is the root product prod_{beta>0} sin(<beta,xi>/2) / (<beta,xi>/2);
    P is Ad-invariant, so that is all a class function needs.  Validated
    against a finite-difference Jacobian of the matrix exponential in
    the tests.

    Raises
    ------
    ValueError
        If xi lies outside the injectivity domain (an eigen-angle gap
        reaches 2 pi).
    """
    if group.kind == "torus":
        return 1.0
    xi = np.asarray(xi)
    val = 1.0
    for a in (float(beta @ xi) for beta in group.positive_roots):
        if abs(a) >= 2 * np.pi:
            raise ValueError("xi is outside the injectivity domain of exp")
        val *= np.sinc(a / (2 * np.pi))  # sin(a/2)/(a/2)
    return float(val)


# -- coadjoint orbits ---------------------------------------------------------

def orbit_volume(group, gamma):
    """Symplectic volume of the coadjoint orbit through a regular covector.

    vol(O_gamma) = (2 pi)^{n_pos} prod_beta phi(gamma, beta) / phi(delta, beta),
    which does not depend on phi; for half-weights this reduces to
    (2 pi)^{n_pos} d_gamma.
    """
    val = (2 * np.pi) ** group.n_pos
    for ratio in _root_ratios(group, _coords(gamma)):
        val *= ratio
    return float(val)


class OrbitQuadrature:
    """Quadrature for the Kostant-Kirillov volume on a coadjoint orbit.

    ``weights`` sum to vol(O_nu).  Each run of ``ring`` consecutive
    weights is one orbit of the maximal torus: an azimuth ring of the
    polar-major sphere rule (``ring`` = 2 level), or the single node of a
    torus point rule.  ``ring_nodes`` holds lambda^phi (matrices for
    SU(n)/U(n), coefficient vectors for tori) at the first (azimuth-0)
    node of each ring, the only node any sum reads; no other is built.
    """

    def __init__(self, group, metric, ring_nodes, weights, scheme, ring):
        self.group = group
        self.metric = metric
        self.ring_nodes = ring_nodes
        self.weights = weights
        self.scheme = scheme
        self.ring = ring

    @property
    def node_count(self):
        return len(self.weights)

    @property
    def volume(self):
        return float(np.sum(self.weights))

    def pairing(self, xi):
        """<lambda, xi> at the first node of every ring, xi given by its
        Cartan coefficients.  The torus fixes xi, so this is the value at
        every node of the ring, bit for bit: it reads only the diagonal of
        lambda^phi, which the off-diagonal frame turning a node around its
        ring leaves exactly alone."""
        nodes = self.ring_nodes
        if self.group.kind == "torus":
            xi = np.asarray(xi, dtype=float)
            return (nodes @ self.metric.gram) @ xi
        xi_mat = algebra_matrix(self.group, xi)
        vals = np.einsum("nij,ji->n", nodes, xi_mat.conj().T)
        return self.metric.scale * vals.real


def orbit_quadrature(group, metric, nu, level=64):
    """Nodes and weights integrating against the orbit volume form.

    Tori: the orbit is the single point nu (weight 1 = vol).  SU(2) and
    U(2): the orbit is a round 2-sphere; the rule is ``level``
    Gauss-Legendre polar rings x 2 level uniform azimuths, of which only
    each ring's first node is built, and each weight is its area weight
    times the Kostant-Kirillov density computed from sigma(ad_xi lambda,
    ad_eta lambda) = <lambda, [xi, eta]>.  The density is G-invariant,
    hence one number per orbit, evaluated at the first node (the weight
    sum is a genuine prediction, checked against (2 pi)^{n_pos} d_nu in
    the tests).

    Raises
    ------
    UnsupportedGroupError
        For SU(n)/U(n) with n >= 3, whose orbits have no deterministic
        rule here (:func:`haar_quadrature` refuses them too).
    """
    nu = half_weight(group, nu)
    if group.kind == "torus":
        return OrbitQuadrature(group, metric, metric.sharp(nu.coords)[None, :],
                               np.array([1.0]), "point", 1)
    if group.n != 2:
        raise UnsupportedGroupError(
            f"no orbit quadrature for {group.name}; supported: tori, SU(2), U(2)")
    n_azimuth = 2 * level
    nodes, radius = _sphere_nodes(group, metric, nu.coords, level)
    area_w = np.repeat(gauss_legendre(level)[1], n_azimuth) * (2 * np.pi / n_azimuth)
    # the density is G-invariant, so one node gives it for the whole orbit
    return OrbitQuadrature(group, metric, nodes,
                           area_w * radius ** 2 * _kk_density(metric, nodes[:1]),
                           f"gauss-sphere-{level}x{n_azimuth}", n_azimuth)


def _sphere_nodes(group, metric, coords, level):
    """lambda^phi at the azimuth-0 node center + radius (u z + s x),
    s = sqrt(1 - u^2), of each of the ``level`` Gauss-Legendre polar
    rings u, and the sphere's radius."""
    nu_sharp = algebra_matrix(group, metric.sharp(coords))
    center = np.trace(nu_sharp) / group.n * np.eye(group.n)
    radial = nu_sharp - center
    radius = np.sqrt(metric.inner_matrices(radial, radial))

    z_hat = np.array([[1j, 0], [0, -1j]], dtype=complex) / np.sqrt(2 * metric.scale)
    x_hat = complement_frame(metric)[0]

    u = gauss_legendre(level)[0][:, None, None]
    s = np.sqrt(1.0 - u * u)
    return center + radius * (u * z_hat + s * x_hat), radius


def _kk_density(metric, lam):
    """Kostant-Kirillov 2-form density against the Euclidean area.

    sigma(ad_xi lam, ad_eta lam) = <lam, [xi, eta]>; the density is the
    ratio |sigma(t1, t2)| / area(t1, t2) for any independent tangent
    pair, so at each node of the stack ``lam`` (shape (N, n, n)) the
    best-conditioned pair of generator fields is used: the longest
    field, then the partner spanning the largest area with it (first
    maximum in basis order for both).
    """
    B = metric.group.basis_matrices
    tangents = B @ lam[:, None]                      # (N, dim, n, n)
    tangents -= lam[:, None] @ B
    # phi(s, t) = scale * Re sum s conj(t): a real dot product of the float views
    flat = tangents.view(float).reshape(len(lam), len(B), -1)
    gram = metric.scale * np.einsum("nak,nbk->nab", flat, flat)
    rows = np.arange(len(lam))
    norms2 = np.einsum("naa->na", gram)
    i = np.argmax(norms2, axis=1)
    area2 = norms2[rows, i][:, None] * norms2 - gram[rows, i] ** 2
    area2[rows, i] = -np.inf
    j = np.argmax(area2, axis=1)
    bracket = B[i] @ B[j] - B[j] @ B[i]
    sigma = metric.scale * np.einsum("nij,nij->n", lam, bracket.conj()).real
    return np.abs(sigma) / np.sqrt(area2[rows, j])


# -- Kirillov orbit character -------------------------------------------------

def kirillov_character(group, metric, nu, xi, quad=None):
    """Orbit-integral character value at exp(xi), xi in Cartan coefficients.

    chi_nu(e^xi) = (2 pi)^{-n_pos} P(xi)^{-1}
    int_{O_nu} e^{i <lambda, xi>} dV(lambda), evaluated with ``quad`` or
    else :func:`orbit_quadrature` at its default level (which refuses
    SU(n)/U(n) with n >= 3).  The phase is one per torus ring of the rule
    (:meth:`OrbitQuadrature.pairing`), repeated over the ring's nodes, so
    the sum has the bits of a phase per node.  With xi = 0 this returns
    d_nu.  An xi that is not ``rank`` Cartan coefficients is refused.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (group.rank,):
        raise ValueError(f"xi must be the {group.rank} Cartan coefficients of a "
                         f"{group.name} element, not shape {xi.shape}")
    quad = orbit_quadrature(group, metric, nu) if quad is None else quad
    phases = np.repeat(np.exp(1j * quad.pairing(xi)), quad.ring)
    integral = np.sum(quad.weights * phases)
    p = exp_jacobian(group, xi)
    return (1 / (2 * np.pi)) ** group.n_pos * integral / p


# -- Peter-Weyl projector pairing --------------------------------------------

def peter_weyl_projector_weight(group, nu, k, f, level=24):
    """d_{k nu} * int_G conj(chi_{k nu}(g)) f(g) dHaar(g).

    The pairing defining the isotypic projector.  ``f`` is called once
    per quadrature level on the whole node stack of
    :func:`haar_quadrature` (shape (N, r) angle vectors for tori, (N, n, n)
    matrices otherwise) and must return N values, or one scalar for a
    constant.  Evaluated at two quadrature levels; if the refinement
    moves the value by more than 1e-6 (relative to its size) a
    :class:`QuadratureDisagreement` is raised carrying both estimates.

    Raises
    ------
    ValueError
        If ``f`` returns anything but a scalar or an (N,) array, as a
        function written for one element (``np.trace(g)``) does on a
        stack.
    """
    nu = half_weight(group, nu)
    knu = half_weight(group, k * nu.coords)
    d = weyl_dimension(group, knu)

    def estimate(lvl):
        nodes, weights = haar_quadrature(group, lvl)
        chis = character_at_element(group, knu, nodes)
        values = np.asarray(f(nodes))
        if values.shape not in ((), (len(nodes),)):
            raise ValueError(
                f"f returned shape {values.shape} on a stack of {len(nodes)} "
                "elements; it must return one value per element or a scalar")
        return d * np.sum(weights * np.conj(chis) * values)

    coarse = estimate(level)
    fine = estimate(int(level * 3 / 2) + 1)
    scale = max(1.0, abs(fine))
    if abs(fine - coarse) > 1e-6 * scale:
        raise QuadratureDisagreement(
            f"projector pairing did not converge: {coarse} vs {fine}")
    return fine
