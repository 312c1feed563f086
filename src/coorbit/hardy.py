"""Exact Hardy-space computations on the model circle bundles.

Level n of the Hardy space of S^{2d+1} is spanned by the degree-n
monomials z^alpha with squared norms

    ||z^alpha||^2 = vol(X) * alpha! * d! / (n + d)!   (vol(X) = pi^d/d!),

against dV_X = (1/2 pi) alpha wedge pi* dV_M.  Equivariant kernels and
diagonal profiles (su2-cp1's closed level kernel aside) reduce to
finite sums over explicit exponent sets, evaluated in log space with a
max-shift so that values remain accurate far below the overflow and
underflow thresholds of double precision; sums over positive terms are
then exact to relative rounding error at any magnitude.  A sum runs over
blocks of _BLOCK_ROWS monomials and allocates nothing per term.  The
first kernel evaluation of a (nu, k) on a model streams: it lists the
isotypic monomials chunk by chunk (``isotypic_chunks``,
``models._LIST_ROWS`` rows at a time; on tori the prefix columns are
run-length expanded and the pivot coordinates solved with the integer
adjugate of the pivot columns, so every kept row is exact), norms each
chunk against a log-factorial table sized once from the listing's
exponent bound, and folds it into the sum, holding one chunk and no
basis.  A (nu, k) asked for again gets a stored basis, int32 exponents
and float64 log-norms (4 (d + 1) + 8 B per monomial, built at about
8 (d + 1) B per row), kept on the model and reused.  Both routes cut the
rows into the same blocks, so they agree bit for bit.  Log-factorials come
from one table, grown on demand, of a pure-Python port of Cephes lgam
(the values of scipy.special.gammaln, bit for bit, with numpy as the
only dependency).
Isotypic dimensions are never listed: each catalog model counts its own
in closed form (``isotypic_dim``), at any k.  Only the listings behind a
kernel sum are budgeted: each has its row count and exponent range known
before it is listed, and one whose basis would take more than
_BASIS_BUDGET_BYTES to build, whose exponents could pass int32 or whose
torus pivot solve could pass int64, is refused with AssumptionViolation
first, on the streamed route too, so both kernel routes refuse at the
same k.  Orbit separations are closed forms: each catalog model gives
the point of an orbit nearest to a target (rank-1 tori and t2-cp2 from
the roots of a critical-point polynomial, su2-cp1 and u2-cp2 directly).
"""

import math
from dataclasses import dataclass

import numpy as np

from .groups import AssumptionViolation, half_weight
from .models import _BASIS_BUDGET_BYTES, SU2CP1Model, hermitian_inner

_BIG_NEG = -1.0e6  # stand-in for log 0; alpha * _BIG_NEG underflows exp cleanly
# Rows of the exponent array cast to complex at a time in _block_exponents
# and read at a time in monomial_log_norms: a block and its products stay
# in cache, and no (N, d+1) complex copy exists.
_BLOCK_ROWS = 4096
# A shifted term log below this is exactly +-0 after exp (libm's cexp
# underflows below -745.13), so the sum skips it.
_UNDERFLOW = -746.0


def _basis_row_bytes(d):
    """Peak bytes per listed row while a basis is built, normed and summed.

    tracemalloc at d = 1 / 2 / 3 on rank-1 tori with no rejected rows
    (s1-cp1-w12 at k = 4e6, s1-cp2-w123 at 8192, weights (1, 2, 3, 4) at
    1000): listing peaks at 8.8 / 12.4 / 16.8 B per row, the log-norm
    stage at 16.1 / 20.0 / 24.0 B and a sum at 16.2 / 20.1 / 24.1 B (the
    basis itself, 4 (d + 1) + 8 B).  Where rows are rejected the kept ones
    are copied out once: t2-cp2 at k = 1e6 peaks at 20.0 B per listed row
    and weights (2, 3, 5) at 18.0 B; u2-cp2 at k = 2e6 + 1 peaks at 20.3 B.
    8 (d + 1) bounds them all, beside a fixed few MB of chunk temporaries.
    A streamed sum keeps no basis, only one chunk and its temporaries and,
    on a torus with f = d + 1 - r free coordinates, the listed prefix of
    all but the last one (O(k^(f - 1)) rows: O(k) on s1-cp2-w123, none on
    the other catalog models); 2.8 to 7.0 MB in all on the cases above.
    It is refused at the same row count all the same.
    """
    return 8 * (d + 1)


# Cephes lgam (S. L. Moshier): the Stirling correction for 13 <= x < 1000
# and log sqrt(2 pi).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178


def _log_factorial(m):
    """log m! as Cephes lgam(m + 1.0) computes it, with libm's log.

    For x = m + 1 < 13 Cephes takes the log of the exact product
    (x - 1)!; above that, Stirling's series with its polynomial
    correction (a two-term one from x = 1000, none past 1e8).  These are
    the values of ``scipy.special.gammaln(m + 1.0)``, bit for bit.
    """
    x = m + 1.0
    if x < 13.0:
        return math.log(math.factorial(m))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for coef in _LGAM_A[1:]:
        poly = poly * p + coef
    return q + poly / x


# log m! for m = 0 ... len - 1; grown on demand, never shrunk or rewritten.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(top):
    """The table of log m!, m = 0 ... top at least (indexable up to top).

    Each entry is computed once per process by :func:`_log_factorial`, so
    the values do not depend on the order in which the table grew.  A
    growth over _BASIS_BUDGET_BYTES raises AssumptionViolation before it
    starts: a new entry peaks at 40 B (a Python float in a list, then its
    array slot) and an old one at 16 B (the table and its concatenation).
    """
    global _LOG_FACTORIALS
    have = len(_LOG_FACTORIALS)
    if top >= have:
        need = 40 * (top + 1 - have) + 16 * have
        if need > _BASIS_BUDGET_BYTES:
            raise AssumptionViolation(
                f"log-factorials up to {top}! need about {need} bytes, over the "
                f"{_BASIS_BUDGET_BYTES}-byte memory budget")
        more = np.array([_log_factorial(m) for m in range(have, top + 1)])
        _LOG_FACTORIALS = np.concatenate([_LOG_FACTORIALS, more])
    return _LOG_FACTORIALS


def monomial_log_norms(d, alphas, top):
    """log ||z^alpha||^2 for an (N, d+1) integer exponent array whose every
    |alpha| is at most top (a listing's ``isotypic_extent`` top).

    Every log-factorial is read from the table of :func:`_log_factorials`
    (the Cephes lgam values), grown to top + d before the first row is
    read, _BLOCK_ROWS rows at a time: a block's exponents are copied once
    into reused intp columns, its levels |alpha| + d added up by column,
    and each column read through ``np.take``; no temporary is N long.  A
    level past top + d raises ValueError before any entry is read, so the
    reads never clip.
    """
    alphas = np.asarray(alphas)
    out = np.empty(len(alphas))
    log_fact = _log_factorials(top + d)
    log_pi = d * np.log(np.pi)
    rows = min(len(alphas), _BLOCK_ROWS)
    cols = np.empty((d + 1, rows), dtype=np.intp)
    levels, terms = np.empty(rows, dtype=np.intp), np.empty(rows)
    for start in range(0, len(alphas), _BLOCK_ROWS):
        block = alphas[start:start + _BLOCK_ROWS]
        size = len(block)
        col, n, term, total = cols[:, :size], levels[:size], terms[:size], out[start:start + size]
        col[...] = block.T
        np.add(col[0], d, out=n)
        for c in col[1:]:
            n += c
        if n.max() > top + d:
            raise ValueError(f"an exponent row sums past top = {top}")
        np.take(log_fact, col[0], out=total, mode="clip")
        for c in col[1:]:
            total += np.take(log_fact, c, out=term, mode="clip")
        total += log_pi
        total -= np.take(log_fact, n, out=term, mode="clip")
    return out


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


def _check_budget(model, nu, k):
    """Raise AssumptionViolation, before anything is listed, when the k nu
    basis would take more than _BASIS_BUDGET_BYTES to build (its rows
    come from ``isotypic_extent``); else return the extent's bound top on
    every |alpha|.  Streamed sums, which keep no basis, are held to the
    same budget, so both kernel routes refuse at the same k."""
    rows, top = model.isotypic_extent(nu, k)
    need = rows * _basis_row_bytes(model.d)
    if need > _BASIS_BUDGET_BYTES:
        raise AssumptionViolation(
            f"the k = {k} isotypic basis of {model.id} lists {rows} monomials "
            f"and needs about {need} bytes, over the {_BASIS_BUDGET_BYTES}-byte "
            "memory budget")
    return top


def _basis_key(nu, k):
    return tuple(nu.coords.tolist()), int(k)


def isotypic_basis(model, nu, k):
    """The k nu isotypic basis, built once per model and kept in its cache
    (a direct call stores it at once; :func:`equivariant_kernel_log`
    asks for it only on the second evaluation of a (nu, k)).

    A build peaks at about 8 (d + 1) B per listed row
    (:func:`_basis_row_bytes`) and keeps 4 (d + 1) + 8 B per monomial.
    Its size is known before it is listed: a build over
    _BASIS_BUDGET_BYTES, or with an exponent past int32, raises
    AssumptionViolation first.
    """
    nu = half_weight(model.group, nu)
    key = _basis_key(nu, k)
    basis = model.basis_cache.get(key)
    if basis is None:
        top = _check_budget(model, nu, k)
        alphas = model.isotypic_exponents(nu, k)
        basis = IsotypicBasis(nu.coords, int(k), alphas, monomial_log_norms(model.d, alphas, top))
        model.basis_cache[key] = basis
    return basis


def isotypic_dim(model, nu, k):
    """Exact dimension of the k nu isotypic subspace (0 is a valid answer):
    the model's own closed-form count (``model.isotypic_dim``): nothing is
    listed, so a catalog model answers at any k."""
    return model.isotypic_dim(nu, k)


def _safe_log(z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, _BIG_NEG, dtype=complex)
    mask = np.abs(z) > 0
    out[mask] = np.log(z[mask])
    return out


def _stored_blocks(alphas, log_norms):
    """(alphas, log_norms) blocks of _BLOCK_ROWS rows of a stored basis."""
    for start in range(0, len(alphas), _BLOCK_ROWS):
        yield alphas[start:start + _BLOCK_ROWS], log_norms[start:start + _BLOCK_ROWS]


def _listed_blocks(d, chunks, top):
    """(alphas, log_norms) blocks of a listing whose every |alpha| is at
    most top, normed chunk by chunk.

    The blocks are the _BLOCK_ROWS-row blocks of the concatenated
    listing, the rows :func:`_stored_blocks` gives for the basis built
    from the same chunks: where a chunk's length is not a multiple of
    _BLOCK_ROWS (a listing that rejected candidates, or the last chunk)
    its tail is carried into the next block.  No array is N long.
    """
    carry = None
    for chunk in chunks:
        norms = monomial_log_norms(d, chunk, top)
        if carry is not None:
            chunk = np.concatenate([carry[0], chunk])
            norms = np.concatenate([carry[1], norms])
        full = len(chunk) - len(chunk) % _BLOCK_ROWS
        yield from _stored_blocks(chunk[:full], norms[:full])
        carry = (chunk[full:], norms[full:]) if full < len(chunk) else None
    if carry is not None:
        yield carry


def _block_exponents(blocks, x, y):
    """The complex logs of the terms x^a conj(y)^a / ||z^a||^2, one array
    per (alphas, log_norms) block; each term's arithmetic is that of the
    one-shot products ``alphas @ lx + alphas @ ly - log_norms``, bit for
    bit."""
    lx, ly = _safe_log(x), np.conj(_safe_log(y))
    for alphas, log_norms in blocks:
        # one cast per block: an int32 operand would be cast in each product
        # on a path many times slower than the complex one
        block = alphas.astype(complex)
        expo = block @ lx + block @ ly
        expo -= log_norms
        yield expo


def _block_sum(blocks, x, y):
    """(log magnitude, phase-sum) of sum_alpha x^a conj(y)^a / ||z^a||^2
    over (alphas, log_norms) blocks of _BLOCK_ROWS rows.

    One pass over the blocks of :func:`_block_exponents`: the running
    sum is kept relative to the largest log magnitude seen so far and
    rescaled when a block raises it, and only terms whose shifted real
    part is above _UNDERFLOW are exponentiated (the others are exactly
    +-0 in double precision).  The result depends on where the blocks
    split the rows, so stored and listed sums use the same split.
    """
    shift, total = -np.inf, 0.0 + 0.0j
    for expo in _block_exponents(blocks, x, y):
        top = float(expo.real.max())
        if top > shift:
            total *= np.exp(shift - top)
            shift = top
        expo -= shift
        terms = np.zeros_like(expo)
        np.exp(expo, out=terms, where=expo.real > _UNDERFLOW)
        total += terms.sum()
    if shift <= _BIG_NEG / 2 or total == 0:
        return -np.inf, 0.0 + 0.0j
    return shift + float(np.log(np.abs(total))), total / np.abs(total)


def _basis_sum(alphas, log_norms, x, y):
    """:func:`_block_sum` over a stored basis: no array is N long."""
    return _block_sum(_stored_blocks(alphas, log_norms), x, y)


def equivariant_kernel(model, nu, k, x, y):
    """Exact equivariant kernel Pi^mu_{k nu}(x, y) by basis projection.

    SU(2) on CP^1 uses the closed level-kernel form (the isotypic space
    is one whole level); everything else sums the isotypic monomials,
    streamed or from a stored basis (see :func:`equivariant_kernel_log`).
    """
    logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
    if logmag == -np.inf:
        return 0.0 + 0.0j
    return np.exp(logmag) * phase


def equivariant_kernel_log(model, nu, k, x, y):
    """(log |Pi^mu_{k nu}(x, y)|, unit phase); -inf for the zero kernel.

    The first evaluation of a (nu, k) on a model streams the listing
    through the sum and keeps no basis (one listing chunk alive; the key
    is marked in ``model.basis_cache``); the second builds the basis
    at about 8 (d + 1) B per row and stores it, and later ones reuse it.
    Each route refuses a listing over the memory budget at the same k,
    before anything is listed, and gives the same bits.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if isinstance(model, SU2CP1Model):
        n = model.isotypic_level(nu, k)
        if n < 0:
            return -np.inf, 0.0 + 0.0j
        inner = hermitian_inner(x, y)
        if inner == 0:
            return -np.inf, 0.0 + 0.0j
        logmag = np.log((n + 1) / np.pi) + n * np.log(abs(inner))
        phase = (inner / abs(inner)) ** n
        return float(logmag), phase
    nu = half_weight(model.group, nu)
    key = _basis_key(nu, k)
    if key in model.basis_cache:       # asked for before: store the basis, or reuse it
        basis = isotypic_basis(model, nu, k)
        return _basis_sum(basis.alphas, basis.log_norms, x, y)
    top = _check_budget(model, nu, k)
    model.basis_cache[key] = None      # first request: sum the listing as it streams
    return _block_sum(_listed_blocks(model.d, model.isotypic_chunks(nu, k), top), x, y)


def orbit_separation(model, x, y):
    """dist_X(G x, G y): the round-sphere geodesic distance from y to the
    nearest point g x of the orbit of x, in closed form per model
    (``model.nearest_orbit_point``).

    The round-sphere distance is uniformly equivalent to the bundle
    metric; only its k-scaling matters to the decay fits that consume it.
    It is evaluated as 2 asin(|g x - y| / 2), accurate to rounding near 0
    (an arccos of the inner product resolves angles only to about
    sqrt(eps) = 1.5e-8 there).
    """
    y = np.asarray(y, dtype=complex)
    gap = float(np.linalg.norm(model.nearest_orbit_point(x, y) - y))
    return 2 * math.asin(min(gap / 2, 1.0))
