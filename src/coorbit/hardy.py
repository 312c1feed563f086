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
blocks of _BLOCK_ROWS monomials in one workspace and allocates nothing
per term, and it exponentiates only the terms within e^-60 of the largest
so far (_NEGLIGIBLE): the rest, on a basis the memory budget admits, add
under 1.2e-18 of the largest term, below eps / 100 (the kernels
concentrate, so most terms are cut where k is large).  A listing is a
set of runs (``isotypic_runs``): lines of candidate exponents, on tori
the prefix rows of all but the last free coordinate with the last one
stepping and the pivot coordinates solved with the integer adjugate of
the pivot columns, so every listed row is exact.  A kernel whose listing
fits one ``models._LIST_ROWS`` chunk (its row count is known before
anything is listed) streams on the first evaluation of a (nu, k): it
lists the monomials chunk by chunk (``isotypic_chunks``), norms each
chunk against a log-factorial table sized once from the listing's
exponent bound, and folds it into the sum, holding one chunk and no
basis.  A (nu, k) asked for again gets a stored basis, int32 exponents
and float64 log-norms (4 (d + 1) + 8 B per monomial, built at about
8 (d + 1) B per row), kept on the model and reused.  Both routes cut the
rows into the same blocks, so they agree bit for bit.  A longer listing
is summed over its concentration windows at every evaluation, and
nothing is stored: the method-of-types bound on each term's log
(:func:`_log_bound`) is concave along every run, so the rows whose bound
is within 61 of the largest term found form one interval per run, found
by bisection, and only those are listed, normed and summed.  Each row
left out is below e^-61 of the largest term, inside the e^-60 cut, and
each row kept has the full sum's exponent arithmetic, so the value is
the full sum's to within its rounding bound (s1-cp2-w123 at k = 8192
sums 213k of its 5.6M rows).  Log-factorials come from one table, grown
on demand, of a pure-Python port of Cephes lgam (the values of
scipy.special.gammaln, bit for bit, with numpy as the only dependency).
Isotypic dimensions are never listed: each catalog model counts its own
in closed form (``isotypic_dim``), at any k.  Only the listings behind a
kernel sum are budgeted: each has its row count and exponent range known
before it is listed, and one whose basis would take more than
_BASIS_BUDGET_BYTES to build, whose exponents could pass int32 or whose
torus pivot solve could pass int64, is refused with AssumptionViolation
first, on the streamed and windowed routes too, so every kernel route
refuses at the same k.  Orbit separations are closed forms: each catalog model gives
the point of an orbit nearest to a target (rank-1 tori and t2-cp2 from
the roots of a critical-point polynomial, su2-cp1 and u2-cp2 directly).
"""

import math
from dataclasses import dataclass

import numpy as np

from .groups import AssumptionViolation, half_weight
from .models import _BASIS_BUDGET_BYTES, _LIST_ROWS, SU2CP1Model, hermitian_inner

_BIG_NEG = -1.0e6  # stand-in for log 0; alpha * _BIG_NEG underflows exp cleanly
_TINY = np.finfo(float).tiny
# Rows of the exponent array cast to complex at a time in _block_exponents
# and read at a time in monomial_log_norms: a block and its products stay
# in cache, and no (N, d+1) complex copy exists.
_BLOCK_ROWS = 4096
# A term whose shifted log is below this is not exponentiated.  The memory
# budget admits at most _BASIS_BUDGET_BYTES / _basis_row_bytes(1) = 2^27
# rows, and each skipped term is below e^-60 of the running largest, so all
# of them together are under 2^27 e^-60 = 1.2e-18 of the largest term: less
# than eps / 100, which grows the sum's rounding bound
# eps (worst + log2 N + 2) sum |terms| by under 1%.
_NEGLIGIBLE = -60.0
# A windowed sum lists only the rows whose bound is within 61 of the
# largest term exponent it has found: each row left out is below e^-61 of
# the largest term, under the cut above with a unit margin for the
# rounding of the bound.
_WINDOW_CUT = _NEGLIGIBLE - 1.0


def _basis_row_bytes(d):
    """Peak bytes per listed row while a basis is built, normed and summed.

    tracemalloc at d = 1 / 2 / 3 on rank-1 tori with no rejected rows
    (s1-cp1-w12 at k = 4e6, s1-cp2-w123 at 8192, weights (1, 2, 3, 4) at
    1000): listing peaks at 8.8 / 12.4 / 16.8 B per row, the log-norm
    stage at 16.1 / 20.0 / 24.0 B and a sum at 16.2 / 20.1 / 24.1 B (the
    basis itself, 4 (d + 1) + 8 B, and one block workspace of 0.49 / 0.49
    / 0.60 MB, measured with the negligible-term cut).  Where rows are
    rejected the kept ones are copied out once: t2-cp2 at k = 1e6 peaks
    at 20.0 B per listed row and weights (2, 3, 5) at 18.0 B; u2-cp2 at
    k = 2e6 + 1 peaks at 20.3 B.
    8 (d + 1) bounds them all, beside a fixed few MB of chunk temporaries.
    A streamed or windowed sum keeps no basis, only one chunk and its
    temporaries and the listing's runs, kept on the model (on a torus with
    f = d + 1 - r free coordinates, one per prefix row of all but the last
    one, O(k^(f - 1)): O(k) on s1-cp2-w123, one on the other catalog
    models); 3.0 to 7.5 MB in all on the cases above.  It is refused at
    the same row count all the same.
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
    come from ``isotypic_extent``); else return the extent, its rows and
    its bound top on every |alpha|.  Streamed and windowed sums, which
    keep no basis, are held to the same budget, so every kernel route
    refuses at the same k."""
    rows, top = model.isotypic_extent(nu, k)
    need = rows * _basis_row_bytes(model.d)
    if need > _BASIS_BUDGET_BYTES:
        raise AssumptionViolation(
            f"the k = {k} isotypic basis of {model.id} lists {rows} monomials "
            f"and needs about {need} bytes, over the {_BASIS_BUDGET_BYTES}-byte "
            "memory budget")
    return rows, top


def _basis_key(nu, k):
    return tuple(nu.coords.tolist()), int(k)


def isotypic_basis(model, nu, k):
    """The k nu isotypic basis, built once per model and kept in its cache
    (a direct call stores it at once; :func:`equivariant_kernel_log`
    asks for it only on the second evaluation of a (nu, k) whose listing
    fits one chunk, and sums a longer listing's concentration windows
    instead, unless a basis is stored already).

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
        _, top = _check_budget(model, nu, k)
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
    its tail is carried into the next block.  No array is N long, and a
    chunk and its norms are gone before the next chunk is listed.
    """
    carry = None
    for chunk in chunks:
        norms = monomial_log_norms(d, chunk, top)
        if carry is not None:
            chunk = np.concatenate([carry[0], chunk])
            norms = np.concatenate([carry[1], norms])
        full = len(chunk) - len(chunk) % _BLOCK_ROWS
        yield from _stored_blocks(chunk[:full], norms[:full])
        carry = (chunk[full:].copy(), norms[full:].copy()) if full < len(chunk) else None
        del chunk, norms
    if carry is not None:
        yield carry


def _block_exponents(blocks, x, y):
    """The complex logs of the terms x^a conj(y)^a / ||z^a||^2, one array
    per (alphas, log_norms) block; each term's arithmetic is that of the
    one-shot products ``alphas @ lx + alphas @ ly - log_norms``, bit for
    bit.

    The blocks share one workspace, sized by the first block: a yielded
    array is valid only until the next one is asked for.
    """
    lx, ly = _safe_log(x), np.conj(_safe_log(y))
    cast = None
    for alphas, log_norms in blocks:
        size = len(alphas)
        if cast is None or size > len(cast):      # the first block is the largest
            cast = np.empty(alphas.shape, dtype=complex)
            expos, other = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        # one cast per block: an int32 operand would be cast in each product
        # on a path many times slower than the complex one
        block, expo = cast[:size], expos[:size]
        block[...] = alphas
        np.matmul(block, lx, out=expo)
        expo += np.matmul(block, ly, out=other[:size])
        expo -= log_norms
        yield expo
        del alphas, log_norms            # not alive while the next block is listed


def _block_sum(blocks, x, y):
    """(log magnitude, phase-sum) of sum_alpha x^a conj(y)^a / ||z^a||^2
    over (alphas, log_norms) blocks of _BLOCK_ROWS rows.

    One pass over the blocks of :func:`_block_exponents`: the running
    sum is kept relative to the largest log magnitude seen so far and
    rescaled when a block raises it, and only terms whose shifted real
    part is above _NEGLIGIBLE are exponentiated, each with the arithmetic
    of the uncut sum, into a reused buffer of zeros.  The skipped ones add
    under 2^27 e^-60 = 1.2e-18 of the largest term (see _NEGLIGIBLE),
    below eps / 100.  The result depends on where the blocks split the
    rows, so stored and listed sums use the same split.
    """
    shift, total, terms = -np.inf, 0.0 + 0.0j, None
    for expo in _block_exponents(blocks, x, y):
        top = float(expo.real.max())
        if top > shift:
            total *= np.exp(shift - top)
            shift = top
        expo.real -= shift
        if terms is None or len(expo) > len(terms):
            terms = np.zeros_like(expo)
        kept = np.flatnonzero(expo.real > _NEGLIGIBLE)
        term = terms[:len(expo)]
        kept_terms = expo[kept]
        term[kept] = np.exp(kept_terms, out=kept_terms)
        total += term.sum()
        term[kept] = 0
    if shift <= _BIG_NEG / 2 or total == 0:
        return -np.inf, 0.0 + 0.0j
    return shift + float(np.log(np.abs(total))), total / np.abs(total)


def _basis_sum(alphas, log_norms, x, y):
    """:func:`_block_sum` over a stored basis: no array is N long."""
    return _block_sum(_stored_blocks(alphas, log_norms), x, y)


def _xlogx(v):
    """v log v entrywise, 0 where v = 0."""
    return v * np.log(np.maximum(v, _TINY))


def _log_bound(starts, step, s, linear):
    """The method-of-types bound B at the real rows alpha = starts[:, i] +
    s[i] step, one per run (a column of the (d+1, R) starts each).

    For alpha >= 0 with |alpha| = n, (n choose alpha) <= n^n / prod_j
    alpha_j^alpha_j (Cover & Thomas, Elements of Information Theory,
    Thm 11.1.4), so log |x^alpha conj(y)^alpha| / ||z^alpha||^2 is at most

        B = sum_{i <= d} log(n + i) - d log pi + n log n
            - sum_j alpha_j log alpha_j + alpha . linear,

    linear_j = log |x_j| + log |y_j| (_BIG_NEG for log 0, as in the sum,
    so a zero coordinate gives a finite stand-in and never NaN).  B is
    concave in alpha (n log n - sum alpha_j log alpha_j is the
    perspective of the entropy, log(n + i) is concave) and so along every
    run.
    """
    alpha = starts + step[:, None] * s
    n = alpha.sum(axis=0)
    d = len(alpha) - 1
    bound = _xlogx(n) - _xlogx(alpha).sum(axis=0) + linear @ alpha - d * np.log(np.pi)
    for i in range(1, d + 1):
        bound += np.log(n + i)
    return bound


def _first_true(lo, hi, test):
    """Per run, the least s in [lo, hi] at which test holds, by bisection
    over all runs at once; test takes one s per run and is false, then
    true, along [lo, hi) (hi when it never holds there).  Every s it is
    given lies in [lo, hi]."""
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        holds = test(mid)
        hi = np.where(active & holds, mid, hi)
        lo = np.where(active & ~holds, mid + 1, lo)


def _peak_exponent(runs, d, top, x, y, peak):
    """E*: the largest term exponent, in the sum's own arithmetic, among
    the listed rows within det - 1 candidates of each run's peak (a
    run's rows are at most det apart, so a run with any has one there);
    None when there is none, so that the listing is empty."""
    reach = int(runs.scale.max()) - 1
    first = np.maximum(peak - reach, 0)
    counts = np.minimum(peak + reach, runs.lengths - 1) - first + 1
    blocks = _listed_blocks(d, runs.chunks(first, counts), top)
    return max((float(expo.real.max()) for expo in _block_exponents(blocks, x, y)),
               default=None)


def _concentration_windows(runs, d, top, x, y):
    """(first, counts): the candidates first[i] ... first[i] + counts[i] - 1
    of each run i whose bound B (:func:`_log_bound`) is at least
    E* + _WINDOW_CUT.

    B is concave along each run, so those candidates form one interval
    per run, found by bisection vectorized over runs: first each run's
    peak (the first candidate at which B stops rising), then E*, the
    largest exact exponent next to the peaks (:func:`_peak_exponent`),
    then the two ends of every run whose peak reaches the cut.  Every
    count is 0 when the listing is empty.
    """
    first, counts = np.zeros_like(runs.lengths), np.zeros_like(runs.lengths)
    if not len(runs.lengths):
        return first, counts
    linear = _safe_log(x).real + _safe_log(y).real
    starts, step = runs.real_lines
    last = runs.lengths - 1
    peak = _first_true(np.zeros_like(last), last, lambda s: _log_bound(
        starts, step, np.minimum(s + 1, last), linear) <= _log_bound(starts, step, s, linear))
    largest = _peak_exponent(runs, d, top, x, y, peak)
    if largest is None:
        return first, counts
    cut = largest + _WINDOW_CUT
    live = np.flatnonzero(_log_bound(starts, step, peak, linear) >= cut)   # windows not empty
    starts, peak, last = starts[:, live], peak[live], last[live]
    lo = _first_true(np.zeros_like(peak), peak,
                     lambda s: _log_bound(starts, step, s, linear) >= cut)
    hi = _first_true(peak, last, lambda s: _log_bound(
        starts, step, np.minimum(s + 1, last), linear) < cut)
    first[live], counts[live] = lo, hi - lo + 1
    return first, counts


def _windowed_sum(runs, d, top, x, y):
    """:func:`_block_sum` over the rows of a listing's concentration
    windows (:func:`_concentration_windows`), listed, normed and summed
    chunk by chunk; nothing is stored.

    Each row left out has a log term below E* - 61, at most the largest
    term's - 61, so together they add under N e^-61 of the largest term,
    inside the e^-60 cut every sum makes (see _NEGLIGIBLE); every row
    kept has the exact exponent arithmetic of the full sum.
    """
    first, counts = _concentration_windows(runs, d, top, x, y)
    return _block_sum(_listed_blocks(d, runs.chunks(first, counts), top), x, y)


def equivariant_kernel(model, nu, k, x, y):
    """Exact equivariant kernel Pi^mu_{k nu}(x, y) by basis projection.

    SU(2) on CP^1 uses the closed level-kernel form (the isotypic space
    is one whole level); everything else sums the isotypic monomials,
    streamed, windowed or from a stored basis (see
    :func:`equivariant_kernel_log`).
    """
    logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
    if logmag == -np.inf:
        return 0.0 + 0.0j
    return np.exp(logmag) * phase


def equivariant_kernel_log(model, nu, k, x, y):
    """(log |Pi^mu_{k nu}(x, y)|, unit phase); -inf for the zero kernel.

    A listing of at most one ``models._LIST_ROWS`` chunk (its row count
    from ``isotypic_extent``, before anything is listed): the first
    evaluation of a (nu, k) on a model streams the listing through the
    sum and keeps no basis (one listing chunk alive; the key is marked in
    ``model.basis_cache``); the second builds the basis at about
    8 (d + 1) B per row and stores it, and later ones reuse it, with the
    same bits.  A longer listing is summed over its concentration
    windows at every evaluation (:func:`_windowed_sum`) and nothing is
    stored: each row left out is below e^-61 of the largest term, so the
    value is the full sum's within its rounding bound
    eps (worst + log2 N + 2) sum |terms|.  A basis already stored (by
    :func:`isotypic_basis`) is summed whole.  Every route refuses a
    listing over the memory budget at the same k, before anything is
    listed.
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
    rows, top = _check_budget(model, nu, k)
    if rows > _LIST_ROWS:              # over one chunk: sum its concentration windows
        return _windowed_sum(model.isotypic_runs(nu, k), model.d, top, x, y)
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
