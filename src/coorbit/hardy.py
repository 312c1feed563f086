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
per term.  The kernels concentrate, so where k is large most terms lie
far below the largest; each kernel route leaves out, before it sums,
the rows that cannot come within e^-60 of the largest term (_ROW_CUT,
which carries the error budget), the only place a term is dropped.
A listing is a set of runs (``isotypic_runs``): lines of isotypic
monomials, on a rank-1 torus with a unit weight the prefix rows of all
but the last free coordinate with the last one stepping and the
unit-weight coordinate solved from the others, on t2-cp2 and u2-cp2 one
line.
Every row is a monomial, so a listing's row count (its ``rows``) is the
model's closed-form ``isotypic_dim``; any other torus lists nothing and
raises UnsupportedGroupError first.  A kernel sum takes one of two
routes, chosen by that row count alone, known before anything is
listed.  A listing of at most _LIST_ROWS = 65536 rows is listed in one
pass and stored on the first evaluation of a (nu, k): a basis of int32
exponents and float64 log-norms (normed against a log-factorial table
sized once from the listing's largest |alpha|, its ``top``;
4 (d + 1) + 8 B per monomial, about the build's peak too) and
kept on the model under (nu, k).  Each evaluation takes the
real part of every stored row's exponent by one float product, and sums
only the rows within 61 of the largest (t2-cp2 at k = 8192 keeps about
10% of its 8193 rows), each with the full sum's exponent bits.
A longer listing is summed over its concentration windows at every
evaluation, and nothing is listed or stored: the method-of-types bound
on each term's log (:func:`_log_bound`) is concave along every run, so
the rows whose bound is within 61 of the largest term found form one
interval per run (found exactly by Newton guesses checked in one batch
of bounds per search), and only those are summed (s1-cp2-w123 at
k = 8192 sums 213k of its 5.6M rows).  A window's rows are a line
a + t step, so each column of a row's real exponent is read from a
strided view V[r, t] = table[r + step_j t] of a small per-evaluation
table (log m!, m (log|x_j| + log|y_j|)), exponentiated by a real exp;
its phase is one ramp cis(t step . theta) per evaluation
(theta = arg x - arg y) times one cis(a . theta) per window.  On either
route the value is the full sum's to within its rounding bound.
Log-factorials come from one table, grown on demand, of a numpy port of
Cephes lgam (the values of scipy.special.gammaln, bit for bit, with
numpy as the only dependency).
Isotypic dimensions are never listed: each catalog model counts its own
in closed form (``isotypic_dim``), at any k.  Only the listings behind a
kernel sum are budgeted, once per (nu, k), by ``model.isotypic_runs``:
one whose basis would take more than _BASIS_BUDGET_BYTES to build (its
rows counted first) or whose exponents pass int32 (its ``top``, before a
row is listed) is refused with AssumptionViolation, on the windowed route
too, so both kernel routes refuse at the same k.  Orbit separations are
closed forms: each catalog model gives the point of an orbit nearest to a
target (rank-1 tori and t2-cp2 from the roots of a critical-point
polynomial, su2-cp1 and u2-cp2 directly).
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .groups import AssumptionViolation, half_weight
from .models import _BASIS_BUDGET_BYTES, SU2CP1Model, _cache_key, hermitian_inner

_BIG_NEG = -1.0e6  # stand-in for log 0; alpha * _BIG_NEG underflows exp cleanly
_TINY = np.finfo(float).tiny
# Rows of the exponent array cast to complex at a time in _block_exponents
# and read at a time in monomial_log_norms, and the most window rows
# (windows times the block's longest window, padding included) gathered
# from the table views at a time in _window_exponents: a block and its
# products stay in cache, and no (N, d+1) copy exists.
_BLOCK_ROWS = 4096
# Runs searched (and peaks read) at a time by _concentration_windows, whose
# stacks are O(_SEARCH_RUNS), not O(runs) (83,834 at weights (1, 2, 3, 4),
# k = 1000); every catalog key up to k = 8192 has at most 4097 runs.
_SEARCH_RUNS = 8192
# The most rows a kernel stores as a basis (under 2.5 MB at d <= 3); a
# longer listing is summed over its concentration windows instead.
_LIST_ROWS = 1 << 16
# A kernel sum takes only the rows whose term can come within e^-60 of
# the largest: a stored sum (_reaching_rows) the rows whose exponent, by a
# float product, is within 61 of the largest, a windowed sum
# (_concentration_windows) the rows whose bound is within 61 of the
# largest term exponent it has found, a unit margin for the rounding of
# the product or the bound.  The memory budget admits at most
# _BASIS_BUDGET_BYTES / models._basis_row_bytes(1) = 2^27 rows, so the
# rows left out add under 2^27 e^-60 = 1.2e-18 of the largest term: less
# than eps / 100, which grows the sum's rounding bound
# eps (worst + log2 N + 2) sum |terms| by under 1%.  There worst is
# termwise, the largest over the N rows alpha of
#     sum_j |alpha_j| (|log x_j| + |log y_j|) + |log ||z^alpha||^2|,
# the logs complex: a term's log rounds in each product alpha_j log x_j
# and in its log-norm, and coordinate phases may cancel inside
# alpha . theta, so max |alpha . (log x + conj log y)| is not a bound
# (u2-cp2 at k = 301, the pair (x, x e^{i(2.2, 2.2, -1.9)}): 4.15e-13
# of sum |terms| off, against 1.81e-13 for that max and 5.90e-13 here).
_ROW_CUT = -61.0


# Cephes lgam (S. L. Moshier): for x = m + 1 the Stirling correction's
# Horner coefficients in p = 1 / x^2, for 13 <= x < 1000 and for
# 1000 <= x <= 1e8 (none past that), and log sqrt(2 pi).
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LS2PI = 0.91893853320467274178
_LGAM_B = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
           0.0833333333333333333333)
# Peak bytes of a log-factorial table growth per new entry (x, the new
# values, p and one correction slice, 8 B each: tracemalloc gives 32.0 B
# at 1e5 and 1e6 new entries) and per old entry (the table and its
# concatenation).
_LOG_FACTORIAL_NEW_BYTES, _LOG_FACTORIAL_OLD_BYTES = 40, 16

# log m! for m = 0 ... len - 1; grown on demand, never shrunk or rewritten.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(top):
    """The table of log m!, m = 0 ... top at least (indexable up to top).

    Each new entry is log m! as Cephes lgam(m + 1.0) computes it, in its
    order of operations and with libm's log (``math.log``; numpy's log
    differs in the last bit on a few entries): the log of the exact
    (x - 1)! for x = m + 1 < 13, and above that Stirling's series with
    its correction.  These are the values of ``scipy.special.gammaln(m +
    1.0)``, bit for bit, by elementwise arithmetic, so they do not depend
    on the order in which the table grew.  A growth over
    _BASIS_BUDGET_BYTES raises AssumptionViolation before it starts.
    """
    global _LOG_FACTORIALS
    have = len(_LOG_FACTORIALS)
    if top >= have:
        need = _LOG_FACTORIAL_NEW_BYTES * (top + 1 - have) + _LOG_FACTORIAL_OLD_BYTES * have
        if need > _BASIS_BUDGET_BYTES:
            raise AssumptionViolation(
                f"log-factorials up to {top}! need about {need} bytes, over the "
                f"{_BASIS_BUDGET_BYTES}-byte memory budget")
        x = np.arange(have + 1, top + 2, dtype=float)
        more = x - 0.5                  # (x - 0.5) log x - x + log sqrt(2 pi)
        more *= np.fromiter(map(math.log, range(have + 1, top + 2)), float, len(x))
        more -= x
        more += _LS2PI
        p = x * x
        np.divide(1.0, p, out=p)
        small, mid, big = np.searchsorted(x, (13.0, 1000.0, 1.0e8 + 1.0))
        more[:small] = [math.log(math.factorial(m)) for m in range(have, have + small)]
        for part, coefs in ((slice(small, mid), _LGAM_A), (slice(mid, big), _LGAM_B)):
            poly = np.full(part.stop - part.start, coefs[0])
            for coef in coefs[1:]:
                poly *= p[part]
                poly += coef
            poly /= x[part]
            more[part] += poly
        _LOG_FACTORIALS = np.concatenate([_LOG_FACTORIALS, more])
    return _LOG_FACTORIALS


def monomial_log_norms(d, alphas, top):
    """log ||z^alpha||^2 for an (N, d+1) integer exponent array whose every
    |alpha| is at most top (a listing's ``IsotypicRuns.top``).

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


class IsotypicBasis:
    """Monomials spanning the k nu isotypic subspace of a model."""

    def __init__(self, nu_coords, alphas, log_norms):
        self.nu_coords = nu_coords
        self.alphas = alphas
        self.log_norms = log_norms

    @property
    def dim(self):
        return len(self.alphas)


def isotypic_basis(model, nu, k):
    """The k nu isotypic basis: int32 exponents and float64 log-norms.

    A basis of at most _LIST_ROWS rows (the ``rows`` of its listing,
    ``model.isotypic_runs``) is built once and kept in the
    model's ``basis_cache`` under (nu, k), k exactly as given;
    :func:`equivariant_kernel_log` sums its rows that can reach the cut
    from there (:func:`_basis_sum`).  A longer one is
    built on every request and not kept: the kernel sums such a listing
    over its concentration windows instead.

    A build keeps 4 (d + 1) + 8 B per monomial and peaks at about that,
    within ``models._basis_row_bytes`` per listed row.  Its size is known
    before it is listed: a build over _BASIS_BUDGET_BYTES, or with an
    exponent past int32, raises AssumptionViolation first
    (``model.isotypic_runs``).
    """
    nu = half_weight(model.group, nu)
    key = _cache_key(nu, k)
    basis = model.basis_cache.get(key)
    if basis is None:
        runs = model.isotypic_runs(nu, k)
        alphas = model.isotypic_exponents(nu, k)
        basis = IsotypicBasis(nu.coords, alphas, monomial_log_norms(model.d, alphas, runs.top))
        if runs.rows <= _LIST_ROWS:
            model.basis_cache[key] = basis
    return basis


def isotypic_dim(model, nu, k):
    """Exact dimension of the k nu isotypic subspace (0 is a valid answer):
    the model's own closed-form count (``model.isotypic_dim``): nothing is
    listed, so a catalog model answers at any k."""
    return model.isotypic_dim(nu, k)


def _safe_log(z):
    z = np.asarray(z, dtype=complex)
    if z.all():                 # no zero: the same bits, without the masks
        return np.log(z)
    out = np.full(z.shape, _BIG_NEG, dtype=complex)
    mask = np.abs(z) > 0
    out[mask] = np.log(z[mask])
    return out


def _block_exponents(alphas, log_norms, lx, ly):
    """The complex logs of the terms x^a conj(y)^a / ||z^a||^2 of a stored
    basis (alphas, log_norms), one array per block of _BLOCK_ROWS rows,
    from lx = _safe_log(x) and ly = _safe_log(y); each term's arithmetic
    is that of the one-shot products ``alphas @ lx + alphas @ conj(ly) -
    log_norms``, bit for bit.

    The blocks share one workspace, sized once: a yielded array is valid
    only until the next one is asked for.
    """
    ly = np.conj(ly)
    first = min(len(alphas), _BLOCK_ROWS)
    cast = np.empty((max(first, 2), alphas.shape[1]), dtype=complex)
    cast[first:] = 0                                # the padding row of a one-row basis
    expos, other = np.empty(len(cast), dtype=complex), np.empty(len(cast), dtype=complex)
    for start in range(0, len(alphas), _BLOCK_ROWS):
        block = alphas[start:start + _BLOCK_ROWS]
        size = len(block)
        # one cast per block: an int32 operand would be cast in each product
        # on a path many times slower than the complex one; and two rows at
        # least: numpy takes a one-row product through its dot path, which
        # rounds differently from gemv, so a row's bits would hang on its block
        rows = max(size, 2)
        cast[:size] = block
        np.matmul(cast[:rows], lx, out=expos[:rows])
        expos[:rows] += np.matmul(cast[:rows], ly, out=other[:rows])
        expo = expos[:size]
        expo -= log_norms[start:start + size]
        yield expo


def _block_sum(alphas, log_norms, lx, ly):
    """(log magnitude, phase-sum) of sum_alpha x^a conj(y)^a / ||z^a||^2
    over the rows of a stored basis (alphas, log_norms), from
    lx = _safe_log(x) and ly = _safe_log(y).

    One pass over the blocks of :func:`_block_exponents`, every term
    exponentiated in place: the running sum is kept relative to the
    largest log magnitude seen so far and rescaled when a block raises it.
    """
    shift, total = -np.inf, 0.0 + 0.0j
    for expo in _block_exponents(alphas, log_norms, lx, ly):
        top = float(expo.real.max())
        if top > shift:
            total *= np.exp(shift - top)
            shift = top
        expo.real -= shift
        total += np.exp(expo, out=expo).sum()
    return _log_phase(shift, total)


def _log_phase(shift, total):
    """(log magnitude, unit phase) of e^shift total; (-inf, 0) when every
    term vanished (shift at the _BIG_NEG stand-in for log 0, or total 0)."""
    if shift <= _BIG_NEG / 2 or total == 0:
        return -np.inf, 0.0 + 0.0j
    return shift + float(np.log(np.abs(total))), total / np.abs(total)


def _reaching_rows(alphas, log_norms, lx, ly):
    """Indices of the rows of a stored basis whose term can reach the cut:
    the real part of each exponent, by one float product
    ``alphas @ (log|x| + log|y|) - log_norms`` (lx = _safe_log(x),
    ly = _safe_log(y)), within 61 of the largest (_ROW_CUT)."""
    reach = alphas @ (lx.real + ly.real)
    reach -= log_norms
    return np.flatnonzero(reach >= reach.max(initial=-np.inf) + _ROW_CUT)


def _basis_sum(alphas, log_norms, x, y):
    """:func:`_block_sum` over the rows of a stored basis that can reach
    the cut (:func:`_reaching_rows`); each row kept goes through the same
    complex product, with the same bits."""
    lx, ly = _safe_log(x), _safe_log(y)
    kept = _reaching_rows(alphas, log_norms, lx, ly)
    return _block_sum(np.take(alphas, kept, axis=0), np.take(log_norms, kept), lx, ly)


def _log_bound(starts, step, s, linear):
    """The method-of-types bound B at the real rows alpha = starts[:, i] +
    s[i] step, one per run (a column of the (d+1, R) starts each; or s a
    (k, R) stack and starts (d+1, 1, R)).

    For alpha >= 0 with |alpha| = n, (n choose alpha) <= n^n / prod_j
    alpha_j^alpha_j (Cover & Thomas, Elements of Information Theory,
    Thm 11.1.4), so log |x^alpha conj(y)^alpha| / ||z^alpha||^2 is at most

        B = sum_{i <= d} log(n + i) - d log pi + n log n
            - sum_j alpha_j log alpha_j + alpha . linear,

    linear_j = log |x_j| + log |y_j| (_BIG_NEG for log 0, as in the sum,
    so a zero coordinate gives a finite stand-in and never NaN).  B is
    concave in alpha (n log n - sum alpha_j log alpha_j is the
    perspective of the entropy, log(n + i) is concave) and so along every
    run.  No matrix product: a row's B has the same bits in any batch.
    """
    alpha = np.multiply.outer(step, s)
    alpha += starts
    n, d = alpha.sum(axis=0), len(alpha) - 1
    gain = np.maximum(alpha, _TINY)                  # alpha_j (log alpha_j - linear_j), in place
    np.log(gain, out=gain)
    gain -= linear.reshape((-1,) + (1,) * (alpha.ndim - 1))
    gain *= alpha
    bound = n * np.log(np.maximum(n, _TINY)) - gain.sum(axis=0) - d * np.log(np.pi)
    for i in range(1, d + 1):
        bound += np.log(n + i)
    return bound


def _log_slopes(starts, step, s, linear):
    """(dB/ds, about d2B/ds2 < 0) of :func:`_log_bound` at real s of each
    run, e = sum_j step_j: step . linear + e log n - sum_j step_j log alpha_j
    + sum_{i <= d} e / (n + i), and e^2 / n - sum_j step_j^2 / alpha_j
    (alpha floored at 1e-200: a zero coordinate gives a finite slope)."""
    alpha = np.maximum(starts + step[:, None] * s, 1e-200)
    n, e = alpha.sum(axis=0), step.sum()
    slope = e * np.log(n) + step @ linear - step @ np.log(alpha)
    for i in range(1, len(alpha)):
        slope += e / (n + i)
    return slope, e * e / n - step ** 2 @ (1 / alpha)


def _first_true(hi, test, guess):
    """Per run, the least s in [0, hi] where test(i, s) holds (run indices
    i, k consecutive s per run as a (k, m) array; false, then true, along
    [0, hi), false below 0, true from hi on), asked at guess - 1, guess
    and guess + 1, then by bisection of the runs still unsettled only."""
    lo, hi, runs = np.zeros_like(hi), hi.copy(), np.arange(len(hi))
    s = guess + np.arange(-1, 2)[:, None]
    while len(runs):
        holds = test(runs, s)
        hi[runs] = np.where(holds, s, hi[runs]).min(axis=0)
        lo[runs] = np.where(holds, lo[runs], s + 1).max(axis=0)
        runs = runs[lo[runs] < hi[runs]]
        s = (lo[runs] + hi[runs])[None] // 2
    return lo


def _term_exponents(log_facts, products, level, d, norm, out):
    """Into out (norm a workspace of its shape), the real term exponents
    (P_0 + ... + P_d) - ((log a_0! + ... + log a_d!) + d log pi - level) of
    rows a, each sum left to right (the log-norm with the bits of
    :func:`monomial_log_norms`), from log_facts[j] = log a_j!, products[j]
    = P_j = a_j (log|x_j| + log|y_j|) and level = log (|a| + d)! at the
    rows, or one value per window.  Elementwise: the same bits in any batch."""
    np.add(log_facts[0], log_facts[1], out=norm)
    np.add(products[0], products[1], out=out)
    for log_fact, product in zip(log_facts[2:], products[2:]):
        norm += log_fact
        out += product
    norm += d * np.log(np.pi)
    norm -= level
    out -= norm
    return out


def _peak_exponent(runs, d, lx, ly, peak):
    """E*: the largest real term exponent (:func:`_term_exponents`, the
    sum's own arithmetic) among the rows starts + peak step at the runs'
    peaks, each column read from the log-factorial table at those rows,
    _SEARCH_RUNS runs at a time: nothing is listed."""
    log_fact, linear, top = _log_factorials(runs.top + d), (lx.real + ly.real)[:, None], -np.inf
    for lo in range(0, len(peak), _SEARCH_RUNS):
        part = slice(lo, lo + _SEARCH_RUNS)
        cols = runs.starts[part].T + np.multiply.outer(runs.step, peak[part])   # (d+1, runs) int64
        top = max(top, float(_term_exponents(
            [np.take(log_fact, col) for col in cols], cols * linear,
            np.take(log_fact, cols.sum(axis=0) + d), d, *np.empty((2, cols.shape[1]))).max()))
    return top


def _run_peaks(starts, step, last, linear):
    """(peak, height, curve) per run ((d+1, R) float starts, last rows):
    the first row at which B (:func:`_log_bound`) stops rising, guessed
    by Newton steps on its slope (:func:`_log_slopes`) and checked by
    :func:`_first_true`; B there; about d2B/ds2 < 0 (-1 on one row)."""
    # Newton in v = artanh of s's place between the ends of the run's line in
    # the cone (a bounded listing's step has both signs), where the slope's
    # log singularities are linear; one-row runs stay at 0
    curve, root, moving = np.full(len(last), -1.0), np.zeros(len(last)), np.flatnonzero(last)
    lines, edge = np.take(starts, moving, axis=1), last[moving] - 0.25
    left = (-lines[step > 0] / step[step > 0, None]).max(axis=0)
    half = ((lines[step < 0] / -step[step < 0, None]).min(axis=0) - left) / 2
    at = np.minimum(np.maximum(left + half, 0.25), edge)
    for _ in range(3):
        slope, curve[moving] = _log_slopes(lines, step, at, linear)
        z = (at - left) / half - 1
        v = np.arctanh(z) - slope / (curve[moving] * half * (1 - z * z))
        at = np.minimum(np.maximum(left + half * (1 + np.tanh(v)), 0.25), edge)
    root[moving] = at

    def falls(i, s):                # B(s + 1) <= B(s), s a (k, m) stack
        bound = _log_bound(np.take(starts, i, axis=1)[:, None], step,
                           np.minimum(np.maximum(np.concatenate([s, s[-1:] + 1]), 0), last[i]),
                           linear)
        return (bound[1:] <= bound[:-1]) & (s >= 0) | (s >= last[i])

    peak = _first_true(last, falls, np.floor(root).astype(last.dtype))
    return peak, _log_bound(starts, step, peak, linear), curve


def _run_windows(starts, step, last, linear, peak, height, curve, cut):
    """(first, counts) of the runs of :func:`_run_peaks`: the rows with B
    at least cut, an interval about the peak, both ends of every run whose
    peak reaches it guessed from a parabola at the peak and Newton steps on
    B - cut, and checked by :func:`_first_true`; count 0 on the others."""
    first, counts = np.zeros_like(last), np.zeros_like(last)
    live = np.flatnonzero(height >= cut)                 # windows not empty
    # t rows out from the peak: column i the left end of live run i,
    # column len(live) + i its right end
    both, out = np.tile(live, 2), np.repeat([-1, 1], len(live))
    at, peak = np.take(starts, both, axis=1), peak[both]
    reach = np.where(out < 0, peak, last[both] - peak)
    t = np.minimum(np.sqrt(2 * (height[both] - cut) / -curve[both]), reach)
    for _ in range(2):      # from outside the end on, as B is concave
        s = peak + out * t
        slope, _ = _log_slopes(at, step, s, linear)
        t = np.minimum(np.maximum(t + (_log_bound(at, step, s, linear) - cut)
                                  / np.maximum(-out * slope, 1e-9), 0), reach)

    def beyond(i, t):               # B one row further out is under the cut
        bound = _log_bound(np.take(at, i, axis=1)[:, None], step,
                           peak[i] + out[i] * np.minimum(np.maximum(t + 1, 0), reach[i]), linear)
        return (bound < cut) & (t >= 0) | (t >= reach[i])

    t = _first_true(reach, beyond, np.floor(t).astype(reach.dtype) - 1)
    first[live], counts[live] = peak[:len(live)] - t[:len(live)], t[:len(live)] + t[len(live):] + 1
    return first, counts


def _concentration_windows(runs, d, lx, ly):
    """(first, counts): the rows first[i] ... first[i] + counts[i] - 1 of
    each run i whose bound B (:func:`_log_bound`) at the pair with
    lx = _safe_log(x), ly = _safe_log(y) is at least E* + _ROW_CUT: one
    interval per run, as B is concave along it.  Two passes over the runs,
    _SEARCH_RUNS at a time (small stacks): the peaks (:func:`_run_peaks`),
    then E* (:func:`_peak_exponent`), then the windows' ends
    (:func:`_run_windows`), each step checked, so the windows are exact
    in any chunking; every count is 0 for an empty listing."""
    first, counts = np.zeros_like(runs.lengths), np.zeros_like(runs.lengths)
    linear, (starts, step), last = lx.real + ly.real, runs.real_lines, runs.lengths - 1
    chunks = [slice(lo, lo + _SEARCH_RUNS) for lo in range(0, len(last), _SEARCH_RUNS)]
    peak, height, curve = np.zeros_like(last), np.empty(len(last)), np.empty(len(last))
    for part in chunks:
        peak[part], height[part], curve[part] = _run_peaks(starts[:, part], step, last[part], linear)
    if not len(last):
        return first, counts
    cut = _peak_exponent(runs, d, lx, ly, peak) + _ROW_CUT
    for part in chunks:
        first[part], counts[part] = _run_windows(starts[:, part], step, last[part], linear,
                                                 peak[part], height[part], curve[part], cut)
    return first, counts


def _window_exponents(lines, counts, step, linear, d, top):
    """Per block, (block, start, expo): expo[i, c] the real term exponent
    of row lines[:, w] + (start + c) step of window w = block.start + i,
    -inf from counts[w] on; valid until the next block is asked for.  A
    block is _BLOCK_ROWS // width windows (width the longest, at most
    _BLOCK_ROWS) by its own longest window, width columns at a time.  Each
    column j, and the level |a| + d, has small tables of log m! (0 where
    only padding reads) and P_j[m] = m linear_j over the m it reads, seen
    as V[r, t] = table[r + slope t] (``sliding_window_view``, reversed for
    a negative slope: read-only, in bounds, no index array per row); a
    block gathers whole window rows V[origins], and a column that does
    not step is one value per window.  Every row has E*'s arithmetic
    (:func:`_term_exponents`) and bits."""
    longest = int(counts.max())
    width = min(longest, _BLOCK_ROWS)
    per = _BLOCK_ROWS // width                                      # windows per block
    reach = -(-longest // width) * width                            # t read, padding included
    readers = []        # per column, the level last: (view row per window, view) or (None, values)
    for j, (origin, slope) in enumerate(zip([*lines, lines.sum(axis=0) + d],
                                            step.tolist() + [int(step.sum())])):
        far = slope * (reach - 1)                                   # m moves by far over a view row
        lo, hi = int(origin.min()) + min(far, 0), int(origin.max()) + max(far, 0)
        known = _log_factorials(top + d)[max(lo, 0):hi + 1]
        tables = np.zeros((2 if j <= d else 1, hi + 1 - lo))       # log m!, then P_j
        tables[0, max(-lo, 0):max(-lo, 0) + len(known)] = known
        if j <= d:
            tables[1] = np.arange(lo, hi + 1) * linear[j]
        if not slope:
            readers.append((None, tables[:, origin - lo, None]))
        else:
            view = sliding_window_view(tables[:, ::np.sign(slope)], abs(far) + 1, axis=1)
            readers.append((origin - lo if slope > 0 else hi - origin, view[:, :, ::abs(slope)]))
    # ends[r, c] = r + c >= reach: row reach + start - counts[i] masks window i's padding
    ends = sliding_window_view(np.arange(reach + width) >= reach, width)
    work = np.empty(2 * min(per, len(counts)) * width)
    for first in range(0, len(counts), per):
        block = slice(first, first + per)
        lengths = counts[block]
        longest = int(lengths.max())
        for start in range(0, longest, width):
            stop = min(start + width, longest)
            parts = [view[:, block] if base is None else view[:, base[block], start:stop]
                     for base, view in readers]
            size = len(lengths) * (stop - start)
            expo = _term_exponents(*zip(*parts[:-1]), parts[-1][0], d,
                                   *work[:2 * size].reshape(2, len(lengths), -1))
            np.copyto(expo, -np.inf, where=ends[reach + start - lengths, :stop - start])
            yield block, start, expo


def _windowed_sum(runs, d, x, y):
    """(log magnitude, unit phase) of the sum over the rows a_i + t step,
    t < counts[i], of a listing's concentration windows i
    (:func:`_concentration_windows`; each row left out is under
    E* + _ROW_CUT); nothing is listed or stored.  The real exponents come
    in blocks (:func:`_window_exponents`), each shifted by the running
    largest and exponentiated in place by a real exp; the phases are one
    ramp cis(t step . theta) per evaluation (theta = arg x - arg y), taken
    against each window's terms by two real products, times one
    cis(a_i . theta) per window."""
    lx, ly = _safe_log(x), _safe_log(y)
    first, counts = _concentration_windows(runs, d, lx, ly)
    live = np.flatnonzero(counts)
    if not len(live):
        return -np.inf, 0.0 + 0.0j
    step, counts = runs.step, counts[live]
    lines = runs.starts[live].T + np.multiply.outer(step, first[live])     # (d+1, windows)
    theta = lx.imag - ly.imag
    angle = np.arange(counts.max()) * float(step @ theta)
    ramp = np.stack([np.cos(angle), np.sin(angle)], axis=1)        # (longest, 2)
    turns = np.exp(1j * (theta @ lines))
    shift, total = -np.inf, 0.0 + 0.0j
    for block, start, expo in _window_exponents(lines, counts, step, lx.real + ly.real, d, runs.top):
        top = float(expo.max())
        if top > shift:
            total *= np.exp(shift - top)
            shift = top
        expo -= shift
        sums = np.exp(expo, out=expo) @ ramp[start:start + expo.shape[1]]
        total += turns[block] @ sums.view(complex)[:, 0]
    return _log_phase(shift, total)


def equivariant_kernel(model, nu, k, x, y):
    """Exact equivariant kernel Pi^mu_{k nu}(x, y) by basis projection.

    SU(2) on CP^1 uses the closed level-kernel form (the isotypic space
    is one whole level); everything else sums the isotypic monomials,
    from a stored basis or over concentration windows (see
    :func:`equivariant_kernel_log`).
    """
    logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
    if logmag == -np.inf:
        return 0.0 + 0.0j
    return np.exp(logmag) * phase


def equivariant_kernel_log(model, nu, k, x, y):
    """(log |Pi^mu_{k nu}(x, y)|, unit phase); -inf for the zero kernel.

    Two routes, chosen by the listing's row count (the ``rows`` of
    ``model.isotypic_runs``, before anything is listed).  A listing of at
    most _LIST_ROWS rows is built into a basis by :func:`isotypic_basis` on
    the first evaluation of a (nu, k), at 4 (d + 1) + 8 B per row, and
    kept on the model; every evaluation sums its
    rows whose exponent, by one float product, is within 61 of the
    largest (:func:`_basis_sum`).  A longer listing is summed over its
    concentration windows at every evaluation (:func:`_windowed_sum`),
    read from strided views of small tables; nothing is listed or stored.
    On either route the value is the full sum's within its rounding bound
    eps (worst + log2 N + 2) sum |terms|, worst the largest termwise
    sum_j |alpha_j| (|log x_j| + |log y_j|) + |log ||z^alpha||^2| (_ROW_CUT).
    Both routes refuse a listing over the memory budget at the same k,
    before anything is listed.
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
    runs = model.isotypic_runs(nu, k)
    if runs.rows > _LIST_ROWS:          # too long to store: sum its concentration windows
        return _windowed_sum(runs, model.d, x, y)
    basis = isotypic_basis(model, nu, k)       # kept, as it is short enough
    return _basis_sum(basis.alphas, basis.log_norms, x, y)


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
