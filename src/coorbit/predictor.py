"""Prediction side of the scaling theorems: the universal Gaussian
exponent, the leading coefficient on the locus, near-diagonal kernel
predictions and the dimension-growth coefficient.

A near-diagonal prediction takes one k or a stack of k: its geometry
(the leading coefficient, sigma, the Gaussian factor) sits at the locus
point and is evaluated once per call; only the power of k varies along
the stack.

Only the leading term of the near-diagonal expansion is computed; the
k^{-1/2} correction ladder enters the package solely through fitted
convergence orders (the diagonal error decays like 1/k because the
odd-order terms vanish at zero displacement by parity).
"""

import json

import numpy as np

from .characters import orbit_volume
from .groups import (
    AssumptionViolation,
    ad_on_cartan_complement,
    gauss_legendre,
    group_volumes,
    half_weight,
)
from .models import (
    LocusSample,
    hermitian_inner,
    simplex_quadrature,
    unit_point,
)


def gaussian_pair_exponent(u, v):
    """psi_2(u, v) = -i omega_0(u, v) - ||u - v||^2 / 2.

    u, v are tangent vectors in the unitary chart (complex vectors with
    the standard Hermitian structure, omega_0(u, v) = -Im<u, v>).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    omega = -hermitian_inner(u, v).imag
    return -1j * omega - 0.5 * float(np.linalg.norm(u - v) ** 2)


def leading_coefficient(model, nu, sample):
    """The positive leading factor of the near-diagonal expansion at m.

    Assembled from its definition:

        2^{1 + (r-1)/2} pi / (||Phi(m)|| D(m))
        * vol(O_{nu_u})^2 / |det S_{nu_u^phi}|
        * vol(T) / vol(G)^2,

    every factor coming from the group/character layer.  The result is
    independent of the metric scale; that invariance is an acceptance
    criterion, not an assumption.  A stacked sample (see
    :meth:`ProjectiveModel.locus_decompose`) gives one value per point;
    only ||Phi(m)|| and D(m) vary along the stack.
    """
    group, metric = model.group, model.metric
    nu = half_weight(group, nu)
    if not isinstance(sample, LocusSample):
        raise AssumptionViolation("leading coefficient needs an on-locus sample")
    r = group.rank
    phi_norm = metric.norm_covector(sample.phi)
    _, dscalar = model.d_phi(nu, sample)
    nu_norm = metric.norm_covector(nu.coords)
    vol_orbit_unit = orbit_volume(group, nu.coords / nu_norm)
    _, det_s = ad_on_cartan_complement(metric, metric.sharp(nu.coords) / nu_norm)
    if det_s == 0:
        raise AssumptionViolation("restricted adjoint operator is singular (nu not regular)")
    vol_g, vol_t = group_volumes(metric)
    if np.any(phi_norm == 0) or np.any(dscalar == 0):
        raise AssumptionViolation("vanishing factor in the leading coefficient")
    return (2.0 ** (1 + (r - 1) / 2) * np.pi / (phi_norm * dscalar)
            * vol_orbit_unit ** 2 / det_s * vol_t / vol_g ** 2)


class Prediction:
    """Leading-order prediction for one near-diagonal kernel sample,
    with the sample point, displacements and ingredient breakdown."""

    def __init__(self, model_id, nu, k, x, v1, w1, v2, w2, leading_coefficient, sigma,
                 power, prefactor, gaussian_factor, value):
        self.model_id = model_id
        self.nu = nu
        self.k = k
        self.x = x
        self.v1 = v1
        self.w1 = w1
        self.v2 = v2
        self.w2 = w2
        self.leading_coefficient = leading_coefficient
        self.sigma = sigma
        self.power = power
        self.prefactor = prefactor
        self.gaussian_factor = gaussian_factor
        self.value = value

    def to_json(self):
        d = dict(vars(self))
        for key in ("x", "v1", "w1", "v2", "w2"):
            vec = getattr(self, key)
            d[key] = [[z.real, z.imag] for z in np.asarray(vec, dtype=complex)]
        d["gaussian_factor"] = [self.gaussian_factor.real, self.gaussian_factor.imag]
        d["value"] = [self.value.real, self.value.imag]
        return json.dumps(d, sort_keys=True)


def _span_residual(vec, basis):
    """Distance of vec from the real span of the basis vectors."""
    vec = np.asarray(vec, dtype=complex)
    if np.linalg.norm(vec) == 0:
        return 0.0
    if not basis:
        return float(np.linalg.norm(vec))
    B = np.stack([np.asarray(b, dtype=complex) for b in basis], axis=1)
    Br = np.concatenate([B.real, B.imag], axis=0)
    vr = np.concatenate([vec.real, vec.imag])
    coef, *_ = np.linalg.lstsq(Br, vr, rcond=None)
    return float(np.linalg.norm(vr - Br @ coef))


def predict_near_diagonal(model, nu, sample, k, v1=None, w1=None, v2=None, w2=None):
    """Leading term of Pi^mu_{k nu}(x + (v1+w1)/sqrt(k), x + (v2+w2)/sqrt(k)),
    for one k (one :class:`Prediction`) or a 1-D stack of k (a list, one
    per k).

    Everything but the power (k / (sigma pi))^{d + (1-r)/2} lives at the
    locus point, so the leading coefficient and the Gaussian factor are
    computed once per call.  A nonzero v_j must lie in the locus normal
    space and a nonzero w_j in the h-orthocomplement of the orbit
    directions (residual tolerance 1e-8); real-subspace membership is
    checked, not assumed, and a space is built only to check a nonzero
    displacement.  Displacement norms are guarded by the
    admissible-radius condition ||.|| <= 3 k^{1/6} at the smallest k.
    """
    group = model.group
    nu = half_weight(group, nu)
    if not isinstance(sample, LocusSample):
        raise AssumptionViolation("near-diagonal prediction needs an on-locus sample")
    if np.ndim(sample.sigma) != 0:
        raise ValueError("near-diagonal prediction takes a one-point sample, not a stack")
    stack = np.ndim(k) == 1
    ks = list(k) if stack else [k]
    if np.ndim(k) > 1 or not ks:
        raise ValueError("k must be one int or a nonempty 1-D sequence of ints")
    zero = np.zeros(model.ambient_dim, dtype=complex)
    v1 = zero if v1 is None else np.asarray(v1, dtype=complex)
    v2 = zero if v2 is None else np.asarray(v2, dtype=complex)
    w1 = zero if w1 is None else np.asarray(w1, dtype=complex)
    w2 = zero if w2 is None else np.asarray(w2, dtype=complex)

    if np.any(v1) or np.any(v2):
        normal = model.normal_space(nu, sample)
        for v in (v1, v2):
            if _span_residual(v, normal) > 1e-8 * max(1.0, np.linalg.norm(v)):
                raise AssumptionViolation("v displacement is not normal to the locus")
    if np.any(w1) or np.any(w2):
        wspan = [c * b for b in model.w_space(sample.x) for c in (1, 1j)]   # R-span = C-span of w
        for w in (w1, w2):
            if _span_residual(w, wspan) > 1e-8 * max(1.0, np.linalg.norm(w)):
                raise AssumptionViolation("w displacement is not h-orthogonal to the orbit")
    bound = 3.0 * min(ks) ** (1.0 / 6.0)       # the tightest radius of the stack
    for vec in (v1, v2, w1, w2):
        if np.linalg.norm(vec) > bound:
            raise AssumptionViolation("displacement exceeds the admissible radius")

    sigma = sample.sigma
    psi = leading_coefficient(model, nu, sample)
    power = model.d + (1 - group.rank) / 2.0
    expo = (gaussian_pair_exponent(w1, w2)
            - float(np.linalg.norm(v1) ** 2 + np.linalg.norm(v2) ** 2)) / sigma
    gauss = np.exp(expo)
    shared = dict(model_id=model.id, nu=tuple(nu.coords), x=sample.x, v1=v1, w1=w1, v2=v2,
                  w2=w2, leading_coefficient=float(psi), sigma=float(sigma),
                  power=float(power), gaussian_factor=complex(gauss))
    preds = []
    for kk in ks:       # one scalar power per k: the bits of a one-k call
        prefactor = psi * (kk / (sigma * np.pi)) ** power
        preds.append(Prediction(k=int(kk), prefactor=float(prefactor),
                                value=complex(prefactor * gauss), **shared))
    return preds if stack else preds[0]


def dimension_coefficient(model, nu=None, level=120):
    """delta_0 = 2^{-(r-1)/2} int_{M_O} Psi(m) / sigma(m)^{d+1-r} dV_{M_O}.

    Rank-1 models integrate over all of M (the locus has codimension 0)
    with the toric dV_M = pi^d dt; rank-2 models integrate over the
    locus hypersurface via its torus-invariant segment parametrization
    with a cosine endpoint map (the locus volume element is
    sqrt(det Gram(val_1, val_2, d x/d s))).  Either way the nodes are
    decomposed and weighted as one stack.
    """
    group = model.group
    nu = model.resolve_nu(nu)
    r = group.rank
    power = model.d + 1 - r
    if r == 1:
        nodes, weights = simplex_quadrature(model.d, max(24, level // 2))
        sample = model.locus_decompose(nu, unit_point(np.sqrt(nodes)))
        if not isinstance(sample, LocusSample):
            raise AssumptionViolation("rank-1 model point off the cone")
        psi = leading_coefficient(model, nu, sample)
        return np.pi ** model.d * np.sum(weights * psi / sample.sigma ** power)
    if r == 2 and model.d == 2:
        return _locus_line_integral(model, nu, power, level)
    raise AssumptionViolation(f"no locus quadrature for {model.id}")


def _locus_line_integral(model, nu, power, level):
    t_of_s = model.locus_simplex_curve(nu)
    mult = model.projective_torus_multiplicity()
    us, ws = gauss_legendre(level)
    h = 1e-4
    s = 0.5 * (1.0 - np.cos(np.pi * 0.5 * (us + 1.0)))          # cosine map [0,1]
    ds_du = 0.25 * np.pi * np.sin(np.pi * 0.5 * (us + 1.0))
    t = t_of_s(s)
    x = unit_point(np.sqrt(t))
    sample = model.locus_decompose(nu, x)
    if not isinstance(sample, LocusSample):
        raise AssumptionViolation("locus curve point fell off the cone")
    psi = leading_coefficient(model, nu, sample)
    # the simplex curves are affine in s, so a wide central difference
    # of t is exact; dx_j/ds = t_j'/(2 sqrt(t_j))
    hi, lo = np.minimum(s + h, 1.0), np.maximum(s - h, 0.0)
    tprime = (t_of_s(hi) - t_of_s(lo)) / (hi - lo)[:, None]
    u_tan = model.horizontal(x, tprime / (2.0 * np.sqrt(t)))
    eye = np.eye(model.group.dim)
    tangents = np.stack([model.val(x, eye[0]), model.val(x, eye[1]), u_tan], axis=1)
    G = np.einsum("nai,nbi->nab", tangents, tangents.conj()).real
    dens = np.sqrt(np.maximum(np.linalg.det(G), 0.0))
    terms = ws * ds_du * (2 * np.pi) ** 2 / mult * dens * psi / sample.sigma ** power
    return np.sum(terms) / np.sqrt(2.0)

