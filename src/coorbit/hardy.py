"""Exact Hardy-space computations on the model circle bundles.

Level n of the Hardy space of S^{2d+1} is spanned by the degree-n
monomials z^alpha with squared norms

    ||z^alpha||^2 = vol(X) * alpha! * d! / (n + d)!   (vol(X) = pi^d/d!),

against dV_X = (1/2 pi) alpha wedge pi* dV_M.  Everything downstream
(equivariant kernels, isotypic dimensions, diagonal profiles) reduces to
finite sums over explicit exponent sets, evaluated in log space with a
max-shift so that values remain accurate far below the overflow and
underflow thresholds of double precision; sums over positive terms are
then exact to relative rounding error at any magnitude.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import gammaln

from .groups import euler_elements, half_weight
from .models import SU2CP1Model, hermitian_inner

_BIG_NEG = -1.0e6  # stand-in for log 0; alpha * _BIG_NEG underflows exp cleanly


def monomial_log_norms(d, alphas):
    """log ||z^alpha||^2 for an (N, d+1) exponent array."""
    alphas = np.asarray(alphas, dtype=int)
    n = alphas.sum(axis=1)
    return d * np.log(np.pi) + gammaln(alphas + 1.0).sum(axis=1) - gammaln(n + d + 1.0)


def level_exponents(d, n):
    """All exponent multi-indices with |alpha| = n (lexicographic)."""
    out = []
    for bars in combinations_with_replacement(range(d + 1), n):
        alpha = [0] * (d + 1)
        for b in bars:
            alpha[b] += 1
        out.append(alpha)
    if not out:
        out = [[0] * (d + 1)]
    return np.array(sorted(out), dtype=int)


@dataclass(frozen=True, eq=False)
class LevelBasis:
    """Monomial basis of one Fourier level of the Hardy space."""

    d: int
    level: int
    alphas: np.ndarray
    log_norms: np.ndarray

    @property
    def dim(self):
        return len(self.alphas)


def level_basis(d, n):
    alphas = level_exponents(d, n)
    return LevelBasis(d, n, alphas, monomial_log_norms(d, alphas))


@dataclass(frozen=True, eq=False)
class IsotypicBasis:
    """Monomials spanning the k nu isotypic subspace of a model."""

    nu_coords: np.ndarray
    k: int
    alphas: np.ndarray
    log_norms: np.ndarray

    @property
    def dim(self):
        return len(self.alphas)

    @property
    def levels(self):
        return np.unique(self.alphas.sum(axis=1)) if self.dim else np.array([], dtype=int)


def isotypic_basis(model, nu, k):
    """The k nu isotypic basis, built once per model and kept in its cache."""
    nu = half_weight(model.group, nu)
    key = (tuple(nu.coords.tolist()), int(k))
    basis = model.basis_cache.get(key)
    if basis is None:
        alphas = model.isotypic_exponents(nu, k)
        basis = IsotypicBasis(nu.coords, int(k), alphas, monomial_log_norms(model.d, alphas))
        model.basis_cache[key] = basis
    return basis


def isotypic_dim(model, nu, k):
    """Exact dimension of the k nu isotypic subspace (0 is a valid answer)."""
    return int(len(model.isotypic_exponents(nu, k)))


def _safe_log(z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, _BIG_NEG, dtype=complex)
    mask = np.abs(z) > 0
    out[mask] = np.log(z[mask])
    return out


def _basis_sum(alphas, log_norms, x, y):
    """(log magnitude, phase-sum) of sum_alpha x^a conj(y)^a / ||z^a||^2."""
    if len(alphas) == 0:
        return -np.inf, 0.0 + 0.0j
    expo = alphas @ _safe_log(x) + alphas @ np.conj(_safe_log(y)) - log_norms
    shift = float(np.max(expo.real))
    if shift <= _BIG_NEG / 2:
        return -np.inf, 0.0 + 0.0j
    total = np.sum(np.exp(expo - shift))
    if total == 0:
        return -np.inf, 0.0 + 0.0j
    return shift + float(np.log(np.abs(total))), total / np.abs(total)


def level_kernel(d, n, x, y):
    """Level-n Szego kernel by explicit basis projection.

    Equals (dim_n / vol(X)) <x, y>^n; the closed form serves as the
    internal oracle in the tests, this function keeps the honest sum.
    """
    basis = level_basis(d, n)
    logmag, phase = _basis_sum(basis.alphas, basis.log_norms, np.asarray(x, complex),
                               np.asarray(y, complex))
    if logmag == -np.inf:
        return 0.0 + 0.0j
    return np.exp(logmag) * phase


def level_kernel_closed(d, n, x, y):
    """(dim_n / vol(X)) <x, y>^n."""
    dim = 1.0
    for j in range(1, d + 1):
        dim *= (n + j) / j
    vol = np.pi ** d / np.prod(np.arange(1, d + 1)) if d else 1.0
    return dim / vol * hermitian_inner(np.asarray(x, complex), np.asarray(y, complex)) ** n


def equivariant_kernel(model, nu, k, x, y, basis=None):
    """Exact equivariant kernel Pi^mu_{k nu}(x, y) by basis projection.

    SU(2) on CP^1 uses the closed level-kernel form (the isotypic space
    is one whole level); everything else sums the isotypic monomials.
    """
    logmag, phase = equivariant_kernel_log(model, nu, k, x, y, basis)
    if logmag == -np.inf:
        return 0.0 + 0.0j
    return np.exp(logmag) * phase


def equivariant_kernel_log(model, nu, k, x, y, basis=None):
    """(log |Pi^mu_{k nu}(x, y)|, unit phase); -inf for the zero kernel."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if isinstance(model, SU2CP1Model):
        n = int(round(k * half_weight(model.group, nu).coords[0])) - 1
        if n < 0:
            return -np.inf, 0.0 + 0.0j
        inner = hermitian_inner(x, y)
        if inner == 0:
            return -np.inf, 0.0 + 0.0j
        logmag = np.log((n + 1) / np.pi) + n * np.log(abs(inner))
        phase = (inner / abs(inner)) ** n
        return float(logmag), phase
    if basis is None:
        basis = isotypic_basis(model, nu, k)
    return _basis_sum(basis.alphas, basis.log_norms, x, y)


def szego_kernel(d, x, y):
    """Full Szego kernel (1/vol(X)) (1 - <x,y>)^{-(d+1)} for <x,y> != 1."""
    t = hermitian_inner(np.asarray(x, complex), np.asarray(y, complex))
    vol = np.pi ** d / np.prod(np.arange(1, d + 1)) if d else 1.0
    return 1.0 / (vol * (1.0 - t) ** (d + 1))


def diag_profile(model, nu, k, points, basis=None):
    """Exact diagonal values Pi^mu_{k nu}(x, x) along a list of points."""
    if basis is None and not isinstance(model, SU2CP1Model):
        basis = isotypic_basis(model, nu, k)
    out = []
    for x in points:
        val = equivariant_kernel(model, nu, k, x, x, basis)
        out.append((np.asarray(x, complex), float(val.real)))
    return out


@dataclass(frozen=True, eq=False)
class OffOrbitValue:
    """|Pi^mu_{k nu}(x, y)| with orbit-separation metadata."""

    log_abs: float
    separation: float
    k: int


def _batched_sphere_distances(model, gs, x, y):
    moved = np.einsum("nij,j->ni", model.unitary_batch(gs), x)
    cos = np.clip((moved @ np.conj(y)).real, -1.0, 1.0)
    return np.arccos(cos)


def orbit_separation(model, x, y, coarse=None):
    """dist_X(G x, G y) by dense grid minimization plus local refinement.

    The distance is the round-sphere geodesic distance, uniformly
    equivalent to the bundle metric; only its k-scaling matters to the
    decay fits that consume it.  Grid densities: 1024 angles for a
    circle, 64 per axis for higher-rank tori, a 32^3 Euler grid for
    SU(2), 24^3 x 12 for U(2); Nelder-Mead polishes the best node.
    """
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    group = model.group

    if group.kind == "torus":
        r = group.rank
        grid_n = coarse or (1024 if r == 1 else 64)
        axes = [2 * np.pi * np.arange(grid_n) / grid_n] * r
        thetas = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
        dists = _batched_sphere_distances(model, thetas, x, y)
        i = int(np.argmin(dists))
        res = minimize(lambda t: _batched_sphere_distances(model, t[None, :], x, y)[0],
                       thetas[i], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14})
        return float(min(dists[i], res.fun))

    n_params = 3 if group.kind == "su" else 4
    n_grid = coarse or (32 if group.kind == "su" else 24)
    rngs = [np.linspace(0, 2 * np.pi, n_grid, endpoint=False),
            np.linspace(0, np.pi, n_grid // 2 + 1),
            np.linspace(0, 4 * np.pi, n_grid, endpoint=False)]
    if n_params == 4:
        rngs.append(np.linspace(0, np.pi, n_grid // 2, endpoint=False))
    grids = np.meshgrid(*rngs, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=-1)
    dists = _batched_sphere_distances(model, euler_elements(flat), x, y)
    i = int(np.argmin(dists))
    res = minimize(
        lambda p: _batched_sphere_distances(model, euler_elements(p[None, :]), x, y)[0],
        flat[i], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    return float(min(dists[i], res.fun))


def off_orbit_value(model, nu, k, x, y, separation=None, basis=None):
    """Kernel magnitude at an orbit-separated pair, for decay-rate fits."""
    if separation is None:
        separation = orbit_separation(model, x, y)
    logmag, _ = equivariant_kernel_log(model, nu, k, x, y, basis)
    return OffOrbitValue(log_abs=float(logmag), separation=float(separation), k=int(k))
