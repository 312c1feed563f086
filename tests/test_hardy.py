import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from coorbit import hardy, models
from coorbit.cli import main
from coorbit.groups import AssumptionViolation, UnsupportedGroupError, half_weight, random_unitary
from coorbit.characters import character_at_element, scaled_dimension, weyl_dimension
from coorbit.hardy import (
    equivariant_kernel,
    equivariant_kernel_log,
    isotypic_basis,
    isotypic_dim,
    monomial_log_norms,
    orbit_separation,
)
from coorbit.models import (
    MODEL_IDS,
    LocusSample,
    TorusModel,
    build_model,
    simplex_quadrature,
    unit_point,
)

from oracles import (
    bisected_windows,
    coin_change_count,
    lattice_count,
    lattice_points,
    lattice_points_nested,
    level_kernel_closed,
    lifted_action,
    monomial_log_norms_gammaln,
    monomial_sum_mp,
    monomial_sum_mp_tabled,
    orbit_separation_grid,
    orbit_separation_nelder_mead,
    random_sphere_point,
    szego_kernel,
)


_SRC = str(Path(__file__).resolve().parents[1] / "src")


# -- level kernels as monomial sums ----------------------------------------------

def level_exponents(d, n):
    """Every exponent row alpha of length d + 1 with |alpha| = n, by stars
    and bars."""
    rows = [np.bincount(np.array(bars, dtype=int), minlength=d + 1)
            for bars in combinations_with_replacement(range(d + 1), n)]
    return np.array(rows).reshape(-1, d + 1)


def level_kernel_sum(d, n, x, y):
    """The level-n Szego kernel as the monomial sum of ``hardy._basis_sum``
    over the whole level (its closed form is ``oracles.level_kernel_closed``)."""
    alphas = level_exponents(d, n)
    logmag, phase = hardy._basis_sum(alphas, monomial_log_norms(d, alphas, n),
                                     np.asarray(x, complex), np.asarray(y, complex))
    return 0.0 + 0.0j if logmag == -np.inf else np.exp(logmag) * phase


def test_level_kernel_homogeneity_invariant():
    # sum_a |z^a(x)|^2 / ||z^a||^2 is constant = dim / vol(X)
    rng = np.random.default_rng(0)
    for d, n in ((1, 7), (2, 5)):
        assert len(level_exponents(d, n)) == comb(n + d, d)
        vol = np.pi ** d / np.prod(np.arange(1, d + 1))
        expected = comb(n + d, d) / vol
        for _ in range(5):
            x = random_sphere_point(d, rng)
            val = level_kernel_sum(d, n, x, x)
            assert abs(val - expected) < 1e-10 * expected


def test_monomial_norms_quadrature_audit():
    # ||z^a||^2 = vol(X) a! d!/(n+d)! against a simplex Beta quadrature
    for d, alpha in ((1, (3, 2)), (2, (2, 1, 3)), (2, (0, 0, 4))):
        alpha = np.array(alpha)
        n = alpha.sum()
        nodes, w = simplex_quadrature(d, 24)
        integral = (2 * np.pi) ** (d + 1) / 2 ** d / (2 * np.pi) \
            * float(np.prod(nodes ** alpha, axis=1) @ w)
        closed = np.exp(monomial_log_norms(d, alpha[None, :], n)[0])
        assert abs(integral - closed) < 1e-10 * closed


def test_log_norm_table_equals_gammaln_on_every_entry():
    rng = np.random.default_rng(7)
    # the bound top only sizes the table: a loose one reads the same entries
    cases = [(d, rng.integers(0, hi, size=(n, d + 1)), (d + 1) * hi)
             for d, hi, n in ((1, 5000, 300), (2, 9000, 400), (3, 60, 500))]
    cases += [(2, np.zeros((4, 3), dtype=int), 0), (3, np.zeros((0, 4), dtype=int), 0)]
    for d, alphas, top in cases:
        got = monomial_log_norms(d, alphas, top)
        assert got.shape == (len(alphas),)
        assert np.array_equal(got, monomial_log_norms_gammaln(d, alphas))
    # a row past the bound is refused, not read from a clipped index
    with pytest.raises(ValueError, match="past top = 7"):
        monomial_log_norms(2, np.array([[0, 0, 1], [3, 1, 4]]), 7)


def test_log_factorial_table_equals_gammaln():
    from scipy.special import gammaln
    m = 10 ** 6
    table = hardy._log_factorials(m - 1)
    assert np.array_equal(table[:m], gammaln(np.arange(m) + 1.0))


def test_level_kernel_closed_form_identity():
    rng = np.random.default_rng(1)
    for d, n in ((1, 6), (2, 4)):
        x, y = random_sphere_point(d, rng), random_sphere_point(d, rng)
        assert abs(level_kernel_sum(d, n, x, y)
                   - level_kernel_closed(d, n, x, y)) < 1e-12


def test_level_kernel_diagonal_and_orthogonal_points():
    from math import comb
    d, n = 2, 5
    x = unit_point([1, 0, 0])
    vol = np.pi ** 2 / 2
    assert abs(level_kernel_sum(d, n, x, x) - comb(n + d, d) / vol) < 1e-12
    y = unit_point([0, 1, 0])   # <x, y> = 0
    assert abs(level_kernel_sum(d, n, x, y)) == 0.0


def test_level_kernel_reproducing_property():
    # int_X |Pi_n(x, y)|^2 dV_X(y) = Pi_n(x, x), via simplex x phase grids
    d, n = 1, 4
    rng = np.random.default_rng(2)
    x = random_sphere_point(d, rng)
    nodes, w = simplex_quadrature(d, 20)
    m_phase = 4 * n + 5
    phases = 2 * np.pi * np.arange(m_phase) / m_phase
    total = 0.0
    for t, wt in zip(nodes, w):
        for p1 in phases:
            y = np.sqrt(t) * np.exp(1j * np.array([0.0, p1]))
            total += wt / m_phase * abs(level_kernel_sum(d, n, x, y)) ** 2
    total *= (2 * np.pi) ** (d + 1) / 2 ** d / (2 * np.pi)
    assert abs(total - level_kernel_sum(d, n, x, x).real) < 1e-6


def test_szego_kernel_sums_levels():
    rng = np.random.default_rng(3)
    x, y = random_sphere_point(1, rng), random_sphere_point(1, rng)
    total = sum(level_kernel_closed(1, n, x, y) for n in range(400))
    assert abs(total - szego_kernel(1, x, y)) < 1e-8


# -- isotypic bookkeeping --------------------------------------------------------

def test_isotypic_dim_examples():
    model = build_model("s1-cp1-w12")
    assert isotypic_dim(model, model.default_nu, 10) == 6      # floor(10/2)+1
    model2 = build_model("su2-cp1")
    assert isotypic_dim(model2, model2.default_nu, 7) == 7     # level 6
    model3 = build_model("u2-cp2")
    assert isotypic_dim(model3, model3.default_nu, 4) == 0     # even k: no label
    assert isotypic_dim(model3, model3.default_nu, 7) == 7


def test_isotypic_dim_brute_force_lattice_oracle():
    for mid, ks in (("s1-cp1-w12", (5, 9)), ("s1-cp2-w123", (7,)), ("t2-cp2", (3,))):
        model = build_model(mid)
        nu = model.default_nu
        for k in ks:
            target = np.round(k * nu.coords).astype(int)
            assert isotypic_dim(model, nu, k) == lattice_count(model.weights, target)


# Box scans in the oracle cost (max target + 1)^(d+1) steps; these caps
# keep one example under about 20k steps.
_MAX_TARGET = {2: 60, 3: 25, 4: 10}
# The one profile of every property test here (each may raise its own
# max_examples): derandomized, and a failing test reports the first
# failing example it finds, unshrunk (on 2 cores, two failing tests took
# 22 s with shrinking and 4 s without).
_DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=40,
                         phases=(Phase.explicit, Phase.generate))


@st.composite
def _rank1_weights_and_target(draw):
    m = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    return weights, draw(st.integers(0, _MAX_TARGET[m]))


@_DERANDOMIZED
@given(_rank1_weights_and_target())
def test_rank1_isotypic_dim_matches_lattice_oracle(case):
    weights, target = case
    model = TorusModel("s1-random", [weights], (1.0,))
    expected = lattice_count([weights], [target])
    assert isotypic_dim(model, model.default_nu, target) == expected
    # a label nu = 2 reaches weight 2k
    if target % 2 == 0 and target:
        assert isotypic_dim(model, (2.0,), target // 2) == expected


@st.composite
def _unit_weights_and_target(draw):
    # a rank-1 weight list with a weight 1 at a drawn place
    m = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 5), min_size=m - 1, max_size=m - 1))
    weights.insert(draw(st.integers(0, m - 1)), 1)
    return weights, draw(st.integers(0, _MAX_TARGET[m]))


def _nested_rows(model, target):
    """The oracle's nested-loop rows of a listing torus: on rank 1 its
    first unit weight is the pivot, on t2-cp2 the first two columns."""
    w = model.weights
    pivots = [0, 1] if len(w) == 2 else [int(np.argmax(w[0] == 1))]
    return lattice_points_nested(w, target, pivots,
                                 [j for j in range(w.shape[1]) if j not in pivots])


@_DERANDOMIZED
@given(_unit_weights_and_target())
def test_isotypic_exponents_are_the_lattice_oracle_set(case):
    weights, target = case
    model = TorusModel("s1-random", [weights], (1.0,))
    alphas = model.isotypic_exponents(model.default_nu, target)
    listed = [tuple(a) for a in alphas.tolist()]
    assert len(set(listed)) == len(listed)
    assert set(listed) == set(lattice_points([weights], [target]))
    # row for row: a sum's bits depend on the order of its terms
    assert listed == _nested_rows(model, [target])
    # the size the budget reads is the listing's exact size
    runs = model.isotypic_runs(model.default_nu, target)
    assert runs.rows == len(listed) and runs.top == max(map(sum, listed), default=0)


def test_other_tori_are_refused_before_anything_is_listed(monkeypatch):
    # rank 1 with no unit weight, and a rank-2 torus other than t2-cp2: no
    # listing is exact for them, so none is started.  The count stays
    # general on rank 1
    _forbid_listing(monkeypatch, TorusModel)
    for weights, nu in (([[2, 3, 5]], (1.0,)), ([[2, 1], [1, 1]], (1.0, 1.0))):
        model = TorusModel("t-other", weights, nu)
        x = model.default_locus_point() if len(weights) == 1 else unit_point([0.6, 0.8])
        for call in (lambda: isotypic_basis(model, nu, 12), lambda: model.isotypic_runs(nu, 12),
                     lambda: equivariant_kernel_log(model, nu, 12, x, x)):
            with pytest.raises(UnsupportedGroupError, match="no exact monomial listing for t-other"):
                call()
        assert not model.basis_cache and not model.runs_cache
    model = TorusModel("w235", [[2, 3, 5]], (1.0,))
    for k in (0, 1, 7, 29, 30):
        assert isotypic_dim(model, model.default_nu, k) == lattice_count([[2, 3, 5]], [k])


def test_default_locus_point_of_a_rank1_torus_on_cp3():
    # d = 3 needs an interior simplex point of length 4; the kernel there
    # matches the exact-norm oracle summed over the lattice oracle's rows
    model = TorusModel("w1234", [[1, 2, 3, 4]], (1.0,))
    x = model.default_locus_point()
    assert x.shape == (4,)
    assert isinstance(model.locus_decompose(model.default_nu, x), LocusSample)
    logmag, phase = equivariant_kernel_log(model, model.default_nu, 12, x, x)
    assert np.isfinite(logmag)
    exact, _ = monomial_sum_mp(lattice_points(model.weights, [12]), x, x, dps=40)
    assert abs(np.exp(logmag) * phase - complex(exact)) <= 1e-12 * abs(complex(exact))


# rank-1 weights with a unit weight first, in the middle or last, one of
# several unit weights, and one to three free coordinates
_LISTING_WEIGHTS = [[[2, 1]], [[1, 2, 3]], [[2, 1, 5]], [[3, 2, 1]], [[1, 1, 1]],
                    [[2, 1, 1, 3]], [[3, 5, 2, 1]]]


@pytest.mark.parametrize("weights", _LISTING_WEIGHTS)
@pytest.mark.parametrize("list_rows", [hardy._LIST_ROWS, 5])
def test_torus_listing_is_the_nested_loop_order(weights, list_rows, monkeypatch):
    # the one-pass listing, and the basis built from it: kept up to the
    # store threshold, and past it (a 5-row threshold) built and not kept
    monkeypatch.setattr(hardy, "_LIST_ROWS", list_rows)
    model = TorusModel("t-unit", weights, (1.0,))
    nu = model.default_nu
    for target in (0, 1, 2, 3, 7, 12, 14, 26):
        alphas = model.isotypic_exponents(nu, target)
        assert alphas.dtype == np.int32
        assert [tuple(a) for a in alphas.tolist()] == _nested_rows(model, [target]), \
            (weights, target)
        assert np.array_equal(isotypic_basis(model, nu, target).alphas, alphas)
        kept = models._cache_key(nu, target) in model.basis_cache
        assert kept == (len(alphas) <= list_rows), (weights, target)


def test_catalog_tori_list_in_nested_loop_order(catalog):
    for mid in ("s1-cp1-w12", "s1-cp2-w123", "t2-cp2"):
        model = catalog[mid]
        for k in range(1, 41):
            target = model.isotypic_target(model.default_nu, k)
            alphas = model.isotypic_exponents(model.default_nu, k)
            assert [tuple(a) for a in alphas.tolist()] == _nested_rows(model, target), (mid, k)


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 900), ("t2-cp2", 10000), ("w215", 600)])
def test_both_kernel_routes_are_the_oracle_ordered_sum_bit_for_bit(mid, k, monkeypatch):
    # a short listing: the first evaluation stores the basis and every
    # evaluation is the block sum over the nested-loop rows normed by
    # gammaln, bit for bit, the later ones listing nothing (weights
    # (2, 1, 5) at k = 600: 18,241 rows, the pivot in the middle).  A
    # longer listing (s1-cp2-w123 at k = 900, 67.8k rows) sums
    # its concentration windows at every evaluation and stores nothing,
    # within the full sum's rounding bound of the same sum
    model = _listing_model(mid)
    nu = model.default_nu
    alphas = np.array(_nested_rows(model, model.isotypic_target(nu, k)))
    windowed = len(alphas) > hardy._LIST_ROWS
    assert windowed == (mid == "s1-cp2-w123")
    log_norms = monomial_log_norms_gammaln(model.d, alphas)
    x = model.default_locus_point()
    y = unit_point(x + 0.05 * np.exp(1j * np.arange(model.ambient_dim)))
    for p, q in ((x, x), (x, y)):
        expected = hardy._basis_sum(alphas, log_norms, p, q)
        model.basis_cache.clear()
        first = equivariant_kernel_log(model, nu, k, p, q)
        if windowed:
            assert equivariant_kernel_log(model, nu, k, p, q) == first
            assert model.basis_cache == {}
            expo = _one_shot_terms(alphas, log_norms, p, q)
            shift = expo.real.max()
            gap = abs(np.exp(first[0] - shift) * first[1] - np.exp(expected[0] - shift) * expected[1])
            bound = _exact_norm_bound(alphas, log_norms, p, q)
            assert gap <= bound * np.sum(np.exp(expo.real - shift)), (p is q, gap)
            continue
        basis = model.basis_cache[models._cache_key(half_weight(model.group, nu), k)]
        assert len(model.basis_cache) == 1 and basis.dim == len(alphas)
        with monkeypatch.context() as patch:
            patch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)
            later = equivariant_kernel_log(model, nu, k, p, q)
        assert first == expected and later == expected, (mid, p is q)


@pytest.fixture(scope="module")
def catalog():
    return {mid: build_model(mid) for mid in MODEL_IDS}


@_DERANDOMIZED
@given(mid=st.sampled_from(MODEL_IDS), k=st.integers(1, 1024))
def test_isotypic_dim_is_the_number_of_exponents(catalog, mid, k):
    model = catalog[mid]
    nu = model.default_nu
    if mid == "su2-cp1":                  # one whole level, never listed
        assert isotypic_dim(model, nu, k) == scaled_dimension(model.group, nu, k)
    else:
        assert isotypic_dim(model, nu, k) == len(model.isotypic_exponents(nu, k))


# (stored k, windowed k) of each listing model: at most _LIST_ROWS rows,
# and more
_LARGE_K = {"s1-cp1-w12": (20000, 200000), "s1-cp2-w123": (512, 1024),
            "t2-cp2": (8192, 100000), "u2-cp2": (8193, 100001)}


def test_a_listing_has_isotypic_dim_rows_and_its_largest_level_as_top(catalog):
    # every listed row is a monomial, so the rows the budget, the route and
    # the allocation read are the closed-form dimension, not a bound on it;
    # top, which sizes the log-factorial table and the int32 guard, is the
    # largest |alpha| listed
    for mid, (stored, windowed) in _LARGE_K.items():
        model = catalog[mid]
        nu = model.default_nu
        for k in [*range(1, 65), stored, windowed]:
            runs = model.isotypic_runs(nu, k)
            alphas = model.isotypic_exponents(nu, k)
            assert runs.rows == isotypic_dim(model, nu, k) == len(alphas), (mid, k)
            assert runs.top == alphas.sum(axis=1, dtype=np.int64).max(initial=0), (mid, k)
        assert isotypic_dim(model, nu, stored) <= hardy._LIST_ROWS \
            < isotypic_dim(model, nu, windowed), mid


def test_isotypic_dim_lists_nothing_at_k_2_to_the_30(catalog, monkeypatch):
    # every catalog model counts in closed form: no listing is asked for,
    # even where one would be far over the memory budget
    for cls in {type(model) for model in catalog.values()}:
        _forbid_listing(monkeypatch, cls)
    k = 2 ** 30
    expected = {"s1-cp1-w12": k // 2 + 1, "s1-cp2-w123": ((k + 3) ** 2 + 6) // 12,
                "t2-cp2": k + 1, "su2-cp1": k, "u2-cp2": k + 1}
    for mid, model in catalog.items():
        assert isotypic_dim(model, model.default_nu, model.valid_k(k)) == expected[mid], mid
    other = TorusModel("t2-cp1", [[2, 1], [1, 1]], (1.0, 1.0))
    with pytest.raises(UnsupportedGroupError, match="no closed-form isotypic dimension"):
        isotypic_dim(other, other.default_nu, 4)


def test_su2_listing_says_its_kernel_is_the_closed_level_form(catalog):
    model = catalog["su2-cp1"]
    nu = model.default_nu
    for listing in (lambda: isotypic_basis(model, nu, 8),
                    lambda: model.isotypic_exponents(nu, 8),
                    lambda: model.isotypic_runs(nu, 8)):
        with pytest.raises(NotImplementedError,
                           match="su2-cp1 lists no monomials: .* closed level form"):
            listing()


@_DERANDOMIZED
@given(mid=st.sampled_from(["s1-cp1-w12", "s1-cp2-w123"]), n=st.integers(1, 4096),
       q=st.integers(2, 7), negative=st.booleans())
def test_rank1_count_is_zero_off_the_weight_lattice(catalog, mid, n, q, negative):
    model = catalog[mid]
    if negative:
        nu, k = (-float(q - 1),), n              # k nu < 0
    else:
        nu, k = model.default_nu, n + 1.0 / q    # k nu not an integer
    assert isotypic_dim(model, nu, k) == 0
    assert len(model.isotypic_exponents(nu, k)) == 0


def test_rank1_count_is_exact_up_to_the_int64_limit():
    model = TorusModel("s1-cp3-ones", [[1, 1, 1, 1]], (1.0,))
    assert isotypic_dim(model, model.default_nu, 3_000_000) == comb(3_000_003, 3)
    assert isotypic_dim(model, model.default_nu, 5_000_000) == comb(5_000_003, 3)


@_DERANDOMIZED
@given(weights=st.lists(st.integers(1, 9), min_size=1, max_size=5),
       total=st.integers(0, 20_000))
def test_rank1_count_matches_the_coin_change_oracle(weights, total):
    assert models._weighted_count(weights, total) == coin_change_count(weights, total)


def test_rank1_count_at_huge_k_is_the_closed_form():
    # (1, 2, 3): the nearest integer to (K + 3)^2 / 12
    for total in (10 ** 9, 10 ** 12 + 5, 10 ** 30 + 1):
        assert models._weighted_count([1, 2, 3], total) == ((total + 3) ** 2 + 6) // 12


def test_rank1_count_with_a_huge_period_is_refused_before_its_table():
    # lcm(1009, 1013, 1019) is about 1.04e9, so the coin-change table would
    # list about 3e9 partial counts (over 100 GB as Python ints)
    model = TorusModel("s1-cp2-w1009", [[1009, 1013, 1019]], (1.0,))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(AssumptionViolation, match="partial counts.*memory budget"):
            isotypic_dim(model, model.default_nu, 10 ** 12)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 10 * 2 ** 20, (elapsed, peak)


def test_isotypic_dim_u2_equals_rep_dimension():
    model = build_model("u2-cp2")
    nu = model.default_nu
    for k in (1, 3, 9, 33):
        assert isotypic_dim(model, nu, k) == scaled_dimension(model.group, nu, k)


# -- equivariant kernels -----------------------------------------------------------

def test_kernel_hermitian_symmetry_and_positivity():
    rng = np.random.default_rng(4)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(6)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        a = equivariant_kernel(model, nu, k, x, y)
        b = equivariant_kernel(model, nu, k, y, x)
        assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(a))
        assert equivariant_kernel(model, nu, k, x, x).real >= 0.0


def test_kernel_cauchy_schwarz():
    rng = np.random.default_rng(5)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(8)
        for _ in range(5):
            x, y = (random_sphere_point(model.d, rng) for _ in range(2))
            lhs = abs(equivariant_kernel(model, nu, k, x, y)) ** 2
            rhs = (equivariant_kernel(model, nu, k, x, x).real
                   * equivariant_kernel(model, nu, k, y, y).real)
            assert lhs <= rhs * (1 + 1e-10)


def test_kernel_trace_equals_isotypic_dim():
    # int_X Pi(x, x) dV_X = dim, by simplex quadrature (the diagonal is
    # torus-invariant in every model)
    for mid in ("s1-cp1-w12", "t2-cp2", "su2-cp1", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(4)
        dim = isotypic_dim(model, nu, k)
        nodes, w = simplex_quadrature(model.d, 28)
        vals = np.array([equivariant_kernel(model, nu, k,
                                            np.sqrt(t), np.sqrt(t)).real
                         for t in nodes])
        trace = np.pi ** model.d * float(vals @ w)
        assert abs(trace - dim) < 1e-6 * max(1, dim), mid


def test_kernel_su2_equals_level_kernel_sum():
    # dual route: the closed-form SU(2) kernel vs the explicit level sum
    model = build_model("su2-cp1")
    nu = model.default_nu
    rng = np.random.default_rng(6)
    x, y = (random_sphere_point(1, rng) for _ in range(2))
    k = 9
    direct = equivariant_kernel(model, nu, k, x, y)
    via_sum = level_kernel_sum(1, k - 1, x, y)
    assert abs(direct - via_sum) < 1e-10 * max(1.0, abs(direct))


def test_kernel_equivariance():
    rng = np.random.default_rng(7)
    for mid in ("s1-cp1-w12", "su2-cp1", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(5)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        g = (rng.uniform(0, 2 * np.pi, model.group.rank)
             if model.group.kind == "torus"
             else random_unitary(model.group.n, rng, special=(model.group.kind == "su")))
        U = lifted_action(model, [g])[0]
        a = equivariant_kernel(model, nu, k, U @ x, U @ y)
        b = equivariant_kernel(model, nu, k, x, y)
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_peter_weyl_consistency_small_k():
    # basis-projection kernel vs the character-integral projector
    from coorbit.groups import haar_quadrature
    rng = np.random.default_rng(8)
    cases = (("s1-cp1-w12", 3, 64), ("su2-cp1", 2, 12),
             ("t2-cp2", 2, 32), ("u2-cp2", 3, 10))
    for mid, k, level in cases:
        model = build_model(mid)
        nu = model.default_nu
        group = model.group
        knu = half_weight(group, k * nu.coords)
        d = weyl_dimension(group, knu)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        if mid == "su2-cp1":
            nmax = model.isotypic_level(nu, k)
        else:
            nmax = int(isotypic_basis(model, nu, k).alphas.sum(axis=1).max())
        nodes, weights = haar_quadrature(group, level)
        moved = [u.conj().T @ x for u in lifted_action(model, nodes)]
        chis = np.array([np.conj(character_at_element(group, knu, g)) for g in nodes])
        total = 0j
        for n in range(nmax + 2):
            vals = np.array([level_kernel_closed(model.d, n, mx, y) for mx in moved])
            total += d * np.sum(weights * chis * vals)
        direct = equivariant_kernel(model, nu, k, x, y)
        assert abs(direct - total) < 1e-6 * max(1.0, abs(direct)), mid


def test_isotypic_basis_cached_on_the_model():
    import weakref
    model = build_model("s1-cp2-w123")
    basis = isotypic_basis(model, model.default_nu, 16)
    assert isotypic_basis(model, tuple(model.default_nu.coords), 16) is basis
    assert isotypic_basis(build_model("s1-cp2-w123"), model.default_nu, 16) is not basis
    ref = weakref.ref(model)
    del model
    assert ref() is None                       # the cache pins no model


def test_level_orthogonality_of_disjoint_weight_kernels():
    # kernels built from disjoint monomial sets are L^2-orthogonal
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    rng = np.random.default_rng(9)
    x = random_sphere_point(1, rng)
    b1 = isotypic_basis(model, nu, 4)
    b2 = isotypic_basis(model, nu, 5)
    assert not set(map(tuple, b1.alphas)) & set(map(tuple, b2.alphas))
    nodes, w = simplex_quadrature(1, 24)
    m_phase = 13   # above twice the top monomial degree
    phases = 2 * np.pi * np.arange(m_phase) / m_phase
    total = 0j
    for t, wt in zip(nodes, w):
        for p0 in phases:
            for p1 in phases:
                y = np.sqrt(t) * np.exp(1j * np.array([p0, p1]))
                total += wt / m_phase ** 2 * (
                    equivariant_kernel(model, nu, 4, x, y)
                    * np.conj(equivariant_kernel(model, nu, 5, x, y)))
    total *= (2 * np.pi) ** 2 / 2 / (2 * np.pi)
    assert abs(total) < 1e-8


def test_chart_validation_gaussian_limit():
    # (vol/dim_n) Pi_n(x + v/sqrt(n), x) -> exp(psi2(v, 0)) = exp(-|v|^2/2)
    rng = np.random.default_rng(10)
    d = 1
    x = random_sphere_point(d, rng)
    model = build_model("s1-cp1-w12")
    v = model.horizontal(x, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v *= 0.9 / np.linalg.norm(v)
    target = np.exp(-0.5 * np.linalg.norm(v) ** 2)
    errs, ns = [], []
    vol = np.pi
    for n in (64, 128, 256, 512):
        y = model.displace(x, 0.0, v / np.sqrt(n))
        dim = n + 1
        val = level_kernel_closed(d, n, y, x) * vol / dim
        errs.append(abs(val - target))
        ns.append(n)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope < -0.45          # within the O(n^{-1/2}) claim
    assert errs[-1] < 0.01


def test_diag_profile_peak_and_width():
    # the diagonal peaks on the locus and has width ~ k^{-1/2}
    model = build_model("t2-cp2")
    nu = model.default_nu
    curve = model.locus_simplex_curve(nu)
    t0 = curve(0.5)
    x0 = unit_point(np.sqrt(t0))
    sample = model.locus_decompose(nu, x0)
    n_vec = model.normal_space(nu, sample)[0]
    n_vec = n_vec / np.linalg.norm(n_vec)
    widths, ks = [], []
    for k in (64, 128, 256, 512):
        amps = np.linspace(-2.5, 2.5, 41)
        pts = [model.displace(x0, 0.0, a * n_vec / np.sqrt(k)) for a in amps]
        vals = np.array([equivariant_kernel(model, nu, k, x, x).real for x in pts])
        peak_at = amps[np.argmax(vals)]
        assert abs(peak_at) <= 2 * 5.0 / np.sqrt(k) + 0.51  # grid-resolution peak
        half = vals >= 0.5 * vals.max()
        width_scaled = (amps[half].max() - amps[half].min())  # in units of 1/sqrt(k)
        widths.append(width_scaled / np.sqrt(k))
        ks.append(k)
    slope = np.polyfit(np.log(ks), np.log(widths), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_diag_profile_symmetry():
    # the S^1-(1,2) model is symmetric under conjugating the coordinates
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    k = 12
    ts = np.linspace(0.1, 0.9, 9)
    pts = [unit_point([np.sqrt(1 - t), np.sqrt(t)]) for t in ts]
    vals = [equivariant_kernel(model, nu, k, p, p).real for p in pts]
    conj_vals = [equivariant_kernel(model, nu, k, np.conj(p), np.conj(p)).real
                 for p in pts]
    assert np.allclose(vals, conj_vals, rtol=1e-12)


def test_off_orbit_value_metadata():
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    x = unit_point([np.sqrt(0.7), np.sqrt(0.3)])
    # y on the same orbit: separation ~ 0
    y = lifted_action(model, [[1.3]])[0] @ x
    assert orbit_separation(model, x, y) < 1e-6
    # separated pair: superpolynomial decay of the log-magnitude slope
    y2 = unit_point([np.sqrt(0.45), np.sqrt(0.55)])
    sep = orbit_separation(model, x, y2)
    assert sep > 0.1
    ks = (64, 128, 256, 512)
    lv = [float(equivariant_kernel_log(model, nu, k, x, y2)[0]) for k in ks]
    slopes = np.diff(lv) / np.diff(np.log(ks))
    assert slopes[-1] < -5.0
    assert np.all(np.diff(slopes) < 0)


def _separation_pairs():
    from coorbit.harness import _separated_pair
    rng = np.random.default_rng(12)
    for mid in MODEL_IDS:
        model = build_model(mid)
        yield model, *_separated_pair(model, model.default_nu)
        # a coordinate point: on t2-cp2 the critical polynomial vanishes
        yield model, np.eye(model.d + 1, dtype=complex)[0], random_sphere_point(model.d, rng)
        for _ in range(4):
            yield model, random_sphere_point(model.d, rng), random_sphere_point(model.d, rng)


def test_orbit_separation_closed_form_matches_nelder_mead():
    # SU(2) is transitive on the CP^1 bundle: all its pairs have
    # separation 0, which the closed form gives exactly; Nelder-Mead
    # stops near 1e-14 there, so only the closed form meets the floor
    for model, x, y in _separation_pairs():
        sep = orbit_separation(model, x, y)
        ref = orbit_separation_nelder_mead(model, x, y)
        assert sep <= orbit_separation_grid(model, x, y)
        if ref > 1e-6:
            assert abs(sep - ref) <= 1e-10, model.id
        else:
            assert sep <= 1e-12, model.id


def test_orbit_separation_of_one_orbit_is_zero():
    # y = g x: the separation is rounding, not the sqrt(eps) = 1.5e-8 floor
    # of an arccos (on t2-cp2 the best angle is a double root of the
    # critical polynomial, found only to sqrt(eps) before its Newton step)
    rng = np.random.default_rng(31)
    for mid in MODEL_IDS:
        model = build_model(mid)
        for _ in range(10):
            x = random_sphere_point(model.d, rng)
            if model.group.kind == "torus":
                g = rng.uniform(0.0, 2 * np.pi, model.group.rank)
            else:
                g = random_unitary(2, rng, special=model.group.kind == "su")
            y = lifted_action(model, [g])[0] @ x
            assert orbit_separation(model, x, y) <= 1e-12, mid


def test_orbit_separation_refuses_other_rank_2_tori():
    model = TorusModel("t2-cp1", [[2, 1], [1, 1]], (1.0, 1.0))
    x, y = unit_point([0.6, 0.8]), unit_point([0.8, 0.6j])
    with pytest.raises(UnsupportedGroupError, match="no closed-form orbit separation"):
        orbit_separation(model, x, y)


def test_log_space_evaluation_survives_large_k():
    # binomial magnitudes near k = 4096 overflow naive arithmetic; the
    # log-space path keeps the 1/k error law intact
    from coorbit.predictor import predict_near_diagonal
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    x = model.default_locus_point(nu)
    s = model.locus_decompose(nu, x)
    exact = equivariant_kernel(model, nu, 4096, x, x).real
    pred = predict_near_diagonal(model, nu, s, 4096).value.real
    assert np.isfinite(exact) and exact > 0
    assert abs(exact / pred - 1) < 1e-3


def test_mismatched_weights_give_zero_kernel():
    model = build_model("t2-cp2")
    bad_nu = half_weight(model.group, (2.0, -1.0))
    rng = np.random.default_rng(11)
    x, y = (random_sphere_point(2, rng) for _ in range(2))
    for k in (1, 4, 16):
        assert isotypic_dim(model, bad_nu, k) == 0
        assert equivariant_kernel(model, bad_nu, k, x, y) == 0.0
        logmag, _ = equivariant_kernel_log(model, bad_nu, k, x, y)
        assert logmag == -np.inf


# -- blocked basis sums and the memory budget -----------------------------------

def _one_shot_terms(alphas, log_norms, x, y):
    # the whole exponent array times the logs at once, as before blocking
    return alphas @ hardy._safe_log(x) + alphas @ np.conj(hardy._safe_log(y)) - log_norms


def _route_bound(alphas, x, y):
    # the block sum's own error model, relative to sum |terms|: rounding
    # in the term logs (up to max |a . (lx + ly)| ulps of 1) and in the
    # summation (log2 N + 2)
    lx, ly = hardy._safe_log(x), np.conj(hardy._safe_log(y))
    worst = np.max(np.abs(alphas @ (lx + ly)))
    return (worst + np.log2(len(alphas)) + 2) * np.finfo(float).eps


def test_blocked_basis_sum_matches_the_one_shot_sum():
    model = build_model("s1-cp2-w123")
    basis = isotypic_basis(model, model.default_nu, 512)
    assert basis.dim > 3 * hardy._BLOCK_ROWS and basis.dim % hardy._BLOCK_ROWS
    rng = np.random.default_rng(3)
    x = model.default_locus_point()
    near = unit_point(x + 0.02 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    far = (random_sphere_point(2, rng), random_sphere_point(2, rng))
    for p, q in ((x, near), far):
        expo = _one_shot_terms(basis.alphas, basis.log_norms, p, q)
        assert np.array_equal(_stored_exponents(basis.alphas, basis.log_norms, p, q), expo)
        shift = np.max(expo.real)
        total = np.sum(np.exp(expo - shift))
        logmag, phase = hardy._basis_sum(basis.alphas, basis.log_norms, p, q)
        if p is x:
            assert abs(logmag - (shift + np.log(abs(total)))) <= 1e-14 * abs(logmag)
            assert abs(phase - total / abs(total)) <= 1e-14
        else:
            # this pair cancels to about 1e-18 of sum |terms| (mpmath), far
            # below rounding: both sums are noise of size eps sum |terms|,
            # so they can only agree to the route's error bound
            blocked = np.exp(logmag - shift) * phase
            magnitude = np.sum(np.exp(expo.real - shift))
            assert abs(blocked - total) <= _route_bound(basis.alphas, p, q) * magnitude


def _exact_norm_bound(alphas, log_norms, x, y):
    # the bound of test_basis_sum_matches_the_multiprecision_oracle, relative
    # to sum |terms|: against exact norms the term logs also carry the
    # rounding of the log-norms
    lx, ly = hardy._safe_log(x), np.conj(hardy._safe_log(y))
    worst = np.max(np.abs(alphas @ lx) + np.abs(alphas @ ly) + np.abs(log_norms))
    return (worst + np.log2(len(alphas)) + 2) * np.finfo(float).eps


def _off_orbit_pairs(model, rng):
    # the default locus point against a fixed complex point, and a random pair
    y = unit_point(np.sqrt([0.2, 0.25, 0.55]) * np.exp(1j * np.array([0.0, 0.7, -1.3])))
    return [(model.default_locus_point(), y),
            (random_sphere_point(2, rng), random_sphere_point(2, rng))]


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 128), ("t2-cp2", 128), ("u2-cp2", 127)])
def test_basis_sum_matches_the_multiprecision_oracle(mid, k):
    model = build_model(mid)
    basis = isotypic_basis(model, model.default_nu, k)
    for x, y in _off_orbit_pairs(model, np.random.default_rng(12)):
        exact, magnitude = monomial_sum_mp(basis.alphas, x, y, dps=40)
        logmag, phase = hardy._basis_sum(basis.alphas, basis.log_norms, x, y)
        err = abs(mpmath.exp(logmag) * mpmath.mpc(complex(phase)) - exact) / magnitude
        # against exact norms the term logs also carry the rounding of the
        # log-norms, which the route's bound for its own sum leaves out
        lx, ly = hardy._safe_log(x), np.conj(hardy._safe_log(y))
        worst = np.max(np.abs(basis.alphas @ lx) + np.abs(basis.alphas @ ly)
                       + np.abs(basis.log_norms))
        bound = (worst + np.log2(basis.dim) + 2) * np.finfo(float).eps
        assert err <= bound, (mid, float(err), bound)


def _oracle_rows(model, k):
    """The k nu isotypic exponents of a listing model from the oracles:
    the nested lattice scan on the tori, and on u2-cp2 the line
    (a, m - a, e) of its highest weight k nu - delta = (l1, l2), with
    m = l1 - l2 = k - 1 and e = l1 = (3k - 1) / 2 (odd k)."""
    if model.id == "u2-cp2":
        m, e = k - 1, (3 * k - 1) // 2
        return [(a, m - a, e) for a in range(m + 1)]
    return _nested_rows(model, np.rint(k * model.default_nu.coords).astype(int))


@pytest.mark.parametrize("mid, k", [("s1-cp1-w12", 1025), ("s1-cp2-w123", 64),
                                    ("t2-cp2", 385), ("u2-cp2", 385)])
def test_tabled_multiprecision_oracle_matches_the_exact_one(mid, k):
    # on the diagonal at the default locus point x and at a complex pair
    # (x, y), y a few tenths of a radian of coordinate phases from x: a
    # pair far from x's orbit cancels below 1e-50 of sum |terms|, so both
    # sums would be rounding noise.  k stays small, as the exact oracle's
    # cost grows as k^2
    model = build_model(mid)
    rows = _oracle_rows(model, k)
    assert len(rows) == isotypic_dim(model, model.default_nu, k)
    x = model.default_locus_point()
    y = unit_point(x * np.exp(1j * np.random.default_rng(5).uniform(-0.2, 0.2, x.shape)))
    for p, q in ((x, x), (x, y)):
        exact, magnitude = monomial_sum_mp(rows, p, q, dps=50)
        tabled, tabled_magnitude = monomial_sum_mp_tabled(rows, p, q, dps=50)
        assert abs(exact) > 1e-2 * magnitude, mid
        assert abs(tabled - exact) <= 1e-40 * magnitude, mid
        assert abs(tabled_magnitude - magnitude) <= 1e-40 * magnitude, mid


def test_windowed_sum_matches_the_multiprecision_oracle(monkeypatch):
    # the windowed route, taken at k = 200 (3434 rows) under a 2048-row
    # store threshold, sums 2.0k and 2.6k rows on these complex off-orbit pairs and
    # meets the full sum's bound against exact norms
    monkeypatch.setattr(hardy, "_LIST_ROWS", 2048)
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 200
    alphas = model.isotypic_exponents(nu, k)
    runs = model.isotypic_runs(nu, k)
    log_norms = monomial_log_norms(model.d, alphas, runs.top)
    for x, y in _off_orbit_pairs(model, np.random.default_rng(12)):
        _, counts = _windows(runs, model.d, x, y)
        assert counts.sum() < 0.8 * len(alphas)
        logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
        assert model.basis_cache == {}
        exact, magnitude = monomial_sum_mp(alphas, x, y, dps=40)
        err = abs(mpmath.exp(logmag) * mpmath.mpc(complex(phase)) - exact) / magnitude
        bound = _exact_norm_bound(alphas, log_norms, x, y)
        assert err <= bound, (float(err), bound)


# per model under a forced windowed route: (k, a torus phase psi that
# turns x along its orbit, so that every term gets the phase -alpha . psi,
# hundreds of radians, and nothing cancels, a coordinate whose zero kills
# every term).  psi has one sign: the route's bound counts |alpha . psi|,
# and phases of opposite signs would leave the rounding of each
# alpha_j psi_j out of it
_FORCED_WINDOWED = {"t2-cp2": (300, (1.3, 0.8, 2.1), 0), "u2-cp2": (301, (2.2, 2.2, 1.9), 2),
                    "w215": (200, (5.4, 2.7, 13.5), None)}


@pytest.mark.parametrize("block_rows", [hardy._BLOCK_ROWS, 50])
@pytest.mark.parametrize("mid", sorted(_FORCED_WINDOWED))
def test_a_forced_windowed_sum_matches_the_tabled_oracle(mid, block_rows, monkeypatch):
    # the one-line listings (t2-cp2, u2-cp2) and weights (2, 1, 5) summed
    # over their windows under a 64-row store threshold: on the orbit at large
    # relative phases, at a complex off-orbit pair, and with a zero
    # coordinate (of x, and of both points), each within the route's
    # rounding bound against exact norms; a pair whose every term
    # vanishes gives (-inf, 0).  50-row blocks cut a long window into
    # pieces and put several windows of unequal lengths in one block
    monkeypatch.setattr(hardy, "_LIST_ROWS", 64)
    monkeypatch.setattr(hardy, "_BLOCK_ROWS", block_rows)
    model = _listing_model(mid)
    k, psi, killer = _FORCED_WINDOWED[mid]
    nu, d = model.default_nu, model.d
    alphas = model.isotypic_exponents(nu, k)
    assert len(alphas) > 64
    log_norms = monomial_log_norms(d, alphas, model.isotypic_runs(nu, k).top)
    rng = np.random.default_rng(23)
    x = model.default_locus_point()
    off = unit_point(np.sqrt([0.2, 0.25, 0.55]) * np.exp(1j * np.array([0.0, 2.7, -1.3])))
    bare = unit_point(x * [0.0, 1.0, 1.0])
    pairs = [(x, x * np.exp(1j * np.array(psi))), (x, off),
             (unit_point(x + 0.05 * random_sphere_point(d, rng)), x * np.exp(-1j * np.array(psi))),
             (bare, unit_point(off * [1.0, 1.0, 1.0])), (bare, bare)]
    for p, q in pairs:
        logmag, phase = equivariant_kernel_log(model, nu, k, p, q)
        assert model.basis_cache == {}
        exact, magnitude = monomial_sum_mp_tabled(alphas, p, q, dps=40)
        if magnitude == 0:
            assert (logmag, phase) == (-np.inf, 0.0 + 0.0j)
            continue
        err = abs(mpmath.exp(logmag) * mpmath.mpc(complex(phase)) - exact) / magnitude
        bound = _exact_norm_bound(alphas, log_norms, p, q)
        assert err <= bound, (mid, float(err), bound)
    if killer is not None:                      # every exponent meets the zero coordinate
        dead = unit_point(x * np.where(np.arange(d + 1) == killer, 0.0, 1.0))
        assert monomial_sum_mp_tabled(alphas, dead, x, dps=40)[1] == 0
        assert equivariant_kernel_log(model, nu, k, dead, x) == (-np.inf, 0.0 + 0.0j)


def _termwise_bound(alphas, log_norms, x, y):
    # the rounding bound of hardy._ROW_CUT's comment, relative to sum
    # |terms|: worst is the largest termwise sum_j |alpha_j| (|log x_j| +
    # |log y_j|) + |log-norm|, the logs complex, which holds where
    # coordinate phases cancel inside alpha . theta
    lx, ly = np.abs(hardy._safe_log(x)), np.abs(hardy._safe_log(y))
    worst = np.max(alphas @ (lx + ly) + np.abs(log_norms))
    return (worst + np.log2(len(alphas)) + 2) * np.finfo(float).eps


@pytest.mark.parametrize("list_rows", [hardy._LIST_ROWS, 64])
def test_a_phase_cancelling_pair_is_within_the_termwise_bound(list_rows, monkeypatch):
    # u2-cp2 at k = 301 (301 rows), x against x e^{i(2.2, 2.2, -1.9)}: the
    # phases of opposite signs cancel inside alpha . theta, and both the
    # stored route and the windowed one (forced by a 64-row store
    # threshold) miss the exact sum by about 4.1e-13 of sum |terms|, over
    # eps (max |alpha . (log x + conj log y)| + log2 N + 2) = 1.8e-13 and
    # _exact_norm_bound's 3.3e-13, within the termwise bound's 5.9e-13
    monkeypatch.setattr(hardy, "_LIST_ROWS", list_rows)
    model = build_model("u2-cp2")
    nu, k = model.default_nu, 301
    x = model.default_locus_point()
    y = x * np.exp(1j * np.array([2.2, 2.2, -1.9]))
    alphas = model.isotypic_exponents(nu, k)
    log_norms = monomial_log_norms(model.d, alphas, model.isotypic_runs(nu, k).top)
    logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
    assert (model.basis_cache != {}) == (len(alphas) <= list_rows)
    exact, magnitude = monomial_sum_mp_tabled(alphas, x, y, dps=40)
    err = abs(mpmath.exp(logmag) * mpmath.mpc(complex(phase)) - exact) / magnitude
    assert err <= _termwise_bound(alphas, log_norms, x, y), float(err)


def test_negligible_cut_moves_the_sum_by_under_eps_of_its_largest_term():
    # d = 1, level 20000: the terms fall to e^-276000 of the largest.  The
    # stored sum keeps the last 12 rows; a block sum over every row meets
    # block maxima rising from block to block, so its running sum is
    # rescaled.  Both are within eps of the largest term of the one-shot
    # log-sum-exp over every row
    a = np.arange(20001)
    alphas = np.stack([a, 20000 - a], axis=1)
    log_norms = monomial_log_norms(1, alphas, 20000)
    x = unit_point([1.0, 1e-3])
    y = unit_point([np.exp(0.3j), 1e-3 * np.exp(-1.1j)])
    expo = _one_shot_terms(alphas, log_norms, x, y)
    largest = expo.real.max()
    assert np.all(np.diff([expo.real[i:i + hardy._BLOCK_ROWS].max()
                           for i in range(0, len(a), hardy._BLOCK_ROWS)]) > 0)
    one_shot = np.exp(expo - largest).sum()
    one_shot = largest + np.log(np.abs(one_shot)), one_shot / np.abs(one_shot)
    every = hardy._block_sum(alphas, log_norms, hardy._safe_log(x), hardy._safe_log(y))
    for logmag, phase in (hardy._basis_sum(alphas, log_norms, x, y), every):
        gap = np.exp(logmag - largest) * phase - np.exp(one_shot[0] - largest) * one_shot[1]
        assert abs(gap) <= np.finfo(float).eps


def test_negligible_cut_is_under_eps_over_a_whole_budget_of_rows():
    # the most rows the memory budget admits, each left out at the cut
    # (below e^-60 of the largest term, a unit margin inside _ROW_CUT),
    # stay below eps / 2 of the largest term
    rows = models._BASIS_BUDGET_BYTES // models._basis_row_bytes(1)
    assert rows * np.exp(hardy._ROW_CUT + 1) < np.finfo(float).eps / 2


# for each listing model, a k with no isotypic monomials: k nu off the
# weight lattice, even k
_EMPTY_K = {"s1-cp1-w12": 0.5, "s1-cp2-w123": 0.5, "t2-cp2": 0.5, "u2-cp2": 4}


def test_bases_hold_int32_exponents(catalog):
    for mid, empty_k in _EMPTY_K.items():
        model = catalog[mid]
        for k in (7, 65):
            alphas = model.isotypic_exponents(model.default_nu, k)
            assert alphas.dtype == np.int32 and len(alphas), mid
            wide = alphas.astype(np.int64)
            top = model.isotypic_runs(model.default_nu, k).top
            assert np.array_equal(monomial_log_norms(model.d, alphas, top),
                                  monomial_log_norms(model.d, wide, top)), mid
        empty = model.isotypic_exponents(model.default_nu, empty_k)
        assert empty.dtype == np.int32 and empty.shape == (0, model.ambient_dim), mid


def test_basis_sum_empty_basis_and_zero_coordinates():
    x = unit_point([0.6, 0.8j, 0.0])
    assert hardy._basis_sum(np.zeros((0, 3), dtype=int), np.zeros(0), x, x) \
        == (-np.inf, 0.0 + 0.0j)
    # a zero coordinate of x kills every term with a positive exponent there
    rng = np.random.default_rng(4)
    y = random_sphere_point(2, rng)
    alphas = level_exponents(2, 6)
    log_norms = monomial_log_norms(2, alphas, 6)
    terms = [np.prod(x ** a) * np.prod(np.conj(y) ** a) / np.exp(ln)
             for a, ln in zip(alphas, log_norms)]
    direct = sum(terms)
    logmag, phase = hardy._basis_sum(alphas, log_norms, x, y)
    assert abs(np.exp(logmag) * phase - direct) < 1e-13 * abs(direct)
    # every term vanishes: <e_0, e_1>^n
    e0, e1 = unit_point([1, 0, 0]), unit_point([0, 1, 0])
    assert hardy._basis_sum(alphas, log_norms, e0, e1) == (-np.inf, 0.0 + 0.0j)


def _stored_exponents(alphas, log_norms, x, y):
    # every block's exponents of a stored basis, as one array (a yielded
    # block is valid only until the next one: copy each)
    blocks = [block.copy() for block in hardy._block_exponents(
        alphas, log_norms, hardy._safe_log(x), hardy._safe_log(y))]
    return np.concatenate([np.zeros(0, dtype=complex)] + blocks)


def _reaching_rows(basis, x, y):
    # the stored sum's pre-pass on a basis at the points x and y
    return hardy._reaching_rows(basis.alphas, basis.log_norms,
                                hardy._safe_log(x), hardy._safe_log(y))


# (model, smallest k, largest k) for the stored-sum property test: each
# listing has at most _LIST_ROWS rows, so the kernel stores and sums it
_STORED_CASES = [("s1-cp1-w12", 2, 20000), ("t2-cp2", 2, 10000), ("u2-cp2", 3, 10001),
                 ("w215", 200, 1000)]


@_DERANDOMIZED
@given(case=st.sampled_from(_STORED_CASES), where=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
       pair=st.sampled_from(["diagonal", "near", "far"]), zero=st.integers(-1, 3))
def test_stored_sum_leaves_out_only_rows_under_the_cut(catalog, case, where, seed, pair, zero):
    # every row the pre-pass leaves out is below e^-60 of the largest term,
    # the rows it keeps have the whole basis's exponent bits, and the sum
    # is the uncut one-shot sum within its rounding bound
    mid, k_lo, k_hi = case
    model = _listing_model(mid) if mid == "w215" else catalog[mid]
    nu, d = model.default_nu, model.d
    k = model.valid_k(round(k_lo + where * (k_hi - k_lo)))
    rng = np.random.default_rng(seed)
    x = random_sphere_point(d, rng)
    if 0 <= zero <= d:                 # a zero coordinate: its terms are at _BIG_NEG
        x[zero] = 0.0
        x = unit_point(x)
    y = {"diagonal": x, "near": unit_point(x + 0.05 * random_sphere_point(d, rng)),
         "far": random_sphere_point(d, rng)}[pair]
    basis = isotypic_basis(model, nu, k)
    assert 0 < basis.dim <= hardy._LIST_ROWS
    every = _stored_exponents(basis.alphas, basis.log_norms, x, y)
    kept = _reaching_rows(basis, x, y)
    shift = every.real.max()
    assert np.all(np.delete(every.real, kept) < shift + hardy._ROW_CUT + 1), (mid, k)
    gathered = _stored_exponents(basis.alphas[kept], basis.log_norms[kept], x, y)
    assert np.array_equal(gathered, every[kept]), (mid, k)
    logmag, phase = hardy._basis_sum(basis.alphas, basis.log_norms, x, y)
    if shift <= hardy._BIG_NEG / 2:                  # every term vanishes
        assert (logmag, phase) == (-np.inf, 0.0 + 0.0j)
        return
    expo = _one_shot_terms(basis.alphas, basis.log_norms, x, y)
    gap = abs(np.exp(logmag - shift) * phase - np.sum(np.exp(expo - shift)))
    magnitude = np.sum(np.exp(expo.real - shift))
    assert gap <= _route_bound(basis.alphas, x, y) * magnitude, (mid, k, gap)


def test_a_concentrated_stored_sum_keeps_few_rows():
    # t2-cp2 at k = 8192, the kernel-scan key: the pre-pass keeps 11.5% of
    # the 8193 rows on a near pair, and the sum exponentiates only those
    model = build_model("t2-cp2")
    basis = isotypic_basis(model, model.default_nu, 8192)
    rng = np.random.default_rng(5)
    x = model.default_locus_point()
    near = unit_point(x + 0.02 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    kept = _reaching_rows(basis, x, near)
    assert len(kept) < 0.15 * basis.dim


def test_a_one_row_block_has_the_bits_of_the_whole_product():
    # t2-cp2 at k = 8192 has 8193 rows: two full blocks and a block of one
    # row.  numpy would multiply a block of one row through its dot path,
    # whose bits differ from gemv's on about a quarter of these rows, were
    # the product not two rows long at least
    model = build_model("t2-cp2")
    basis = isotypic_basis(model, model.default_nu, 8192)
    assert basis.dim % hardy._BLOCK_ROWS == 1
    rng = np.random.default_rng(8)
    x = model.default_locus_point()
    for y in (x, unit_point(x + 0.02 * random_sphere_point(2, rng)), random_sphere_point(2, rng)):
        expo = _one_shot_terms(basis.alphas, basis.log_norms, x, y)
        assert np.array_equal(_stored_exponents(basis.alphas, basis.log_norms, x, y), expo)
        for i in range(0, basis.dim, 31):
            row = slice(i, i + 1)
            alone = _stored_exponents(basis.alphas[row], basis.log_norms[row], x, y)
            assert alone[0] == expo[i], i


def _listing_model(mid):
    """A catalog model, or weights (2, 1, 5) on CP^2 (its unit weight, the
    pivot, is not the first coordinate) for mid = "w215", or weights
    (1, 2, 3, 4) on CP^3 for mid = "w1234"."""
    weights = {"w215": [[2, 1, 5]], "w1234": [[1, 2, 3, 4]]}.get(mid)
    return build_model(mid) if weights is None else TorusModel(mid, weights, (1.0,))


def _windows(runs, d, x, y):
    """The concentration windows (first, counts) of runs at the pair (x, y)."""
    return hardy._concentration_windows(runs, d, hardy._safe_log(x), hardy._safe_log(y))


def test_a_kernel_stores_its_basis_first_and_reuses_after(monkeypatch):
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 256
    key = (tuple(nu.coords.tolist()), k)
    x = model.default_locus_point()
    first = equivariant_kernel_log(model, nu, k, x, x)
    basis = model.basis_cache[key]                   # short: stored at once
    assert model.basis_cache == {key: basis} and basis.dim == isotypic_dim(model, nu, k)
    assert first == hardy._basis_sum(basis.alphas, basis.log_norms, x, x)
    monkeypatch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)
    second = equivariant_kernel_log(model, nu, k, x, x)
    third = equivariant_kernel_log(model, nu, k, x, x)
    assert model.basis_cache == {key: basis} and isotypic_basis(model, nu, k) is basis
    assert first == second == third
    monkeypatch.undo()
    # an explicit request stores the same basis
    other = build_model("s1-cp2-w123")
    stored = isotypic_basis(other, nu, k)
    assert other.basis_cache == {key: stored}
    assert np.array_equal(stored.alphas, basis.alphas)


@pytest.mark.parametrize("mid, stored, windowed", [("t2-cp2", 8192, 100000),
                                                    ("s1-cp2-w123", 512, 2048)])
def test_a_first_kernel_evaluation_counts_its_listing_once(mid, stored, windowed, monkeypatch):
    # the route, the budget, the allocation and the log-factorial table all
    # read the listing's runs, so the closed-form count (on a rank-1 torus,
    # one coin-change count) runs once per (nu, k) on either route, and not
    # again on a later evaluation
    model = build_model(mid)
    nu, x = model.default_nu, model.default_locus_point()
    counted, count, weighted = [], type(model).isotypic_dim, models._weighted_count
    monkeypatch.setattr(type(model), "isotypic_dim",
                        lambda self, nu, k: counted.append(k) or count(self, nu, k))
    monkeypatch.setattr(models, "_weighted_count",
                        lambda w, total: counted.append(total) or weighted(w, total))
    for k in (stored, windowed):
        for _ in range(2):
            equivariant_kernel_log(model, nu, k, x, x)
            assert counted == ([k] if model.group.rank > 1 else [k, k]), (mid, k)
        counted.clear()
    assert list(model.basis_cache) == [models._cache_key(nu, stored)]


def test_a_kernel_key_is_k_as_given():
    # k = 2.5 puts k nu off the weight lattice, so its kernel is zero
    # whether or not k = 2 was evaluated first, and it leaves k = 2 alone
    model = build_model("s1-cp1-w12")
    nu, x = model.default_nu, model.default_locus_point()
    before = equivariant_kernel_log(model, nu, 2, x, x)
    assert before[0] > -np.inf
    assert equivariant_kernel_log(model, nu, 2.5, x, x) == (-np.inf, 0.0 + 0.0j)
    assert equivariant_kernel_log(model, nu, 2, x, x) == before
    assert isotypic_basis(model, nu, 2.5).dim == 0 and isotypic_basis(model, nu, 2).dim == 2


def test_a_direct_basis_request_leaves_a_windowed_kernel_as_it_was():
    # a long basis built on request is not kept, so the kernel sums the
    # same windows, with the same bits, before and after it
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 1024
    rng = np.random.default_rng(31)
    x = model.default_locus_point()
    pairs = [(x, unit_point(x + 0.05 * random_sphere_point(2, rng))) for _ in range(4)] \
        + [(random_sphere_point(2, rng), random_sphere_point(2, rng)) for _ in range(4)]
    before = [equivariant_kernel_log(model, nu, k, p, q) for p, q in pairs]
    basis = isotypic_basis(model, nu, k)
    assert basis.dim == isotypic_dim(model, nu, k) > hardy._LIST_ROWS
    assert [equivariant_kernel_log(model, nu, k, p, q) for p, q in pairs] == before
    assert model.basis_cache == {}


def test_a_multi_chunk_kernel_sums_its_windows_and_keeps_no_basis(monkeypatch):
    # a listing too long to store (87.9k rows at k = 1024): each evaluation
    # reads the rows at its 513 run peaks and in its concentration windows
    # (25.1k rows, with the blocks' padding) from table views, lists and
    # norms nothing, keeps no basis and repeats its bits
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 1024
    rows = model.isotypic_runs(nu, k).rows
    assert rows > hardy._LIST_ROWS
    monkeypatch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)
    monkeypatch.setattr(hardy, "monomial_log_norms", _refuse_listing)
    read = []
    monkeypatch.setattr(hardy, "_term_exponents", lambda *args, f=hardy._term_exponents:
                        read.append(args[-1].size) or f(*args))
    x = model.default_locus_point()
    y = unit_point(x + 0.05 * random_sphere_point(2, np.random.default_rng(2)))
    for p, q in ((x, x), (x, y)):
        values = []
        for _ in range(3):
            read.clear()
            values.append(equivariant_kernel_log(model, nu, k, p, q))
            assert 0 < sum(read) < rows // 3
        assert values[0] == values[1] == values[2] and values[0][0] > -np.inf
    assert model.basis_cache == {}


def _scalar_exponent(row, linear, d, log_fact):
    """A row's real term exponent alone, in Python floats, in the order
    the sum documents: (P_0 + ... + P_d) - ((log a_0! + ... + log a_d!)
    + d log pi - log (|a| + d)!), P_j = a_j linear_j."""
    norm, out = float(log_fact[row[0]]), float(row[0]) * float(linear[0])
    for a, lin in zip(row[1:], linear[1:]):
        norm += float(log_fact[a])
        out += float(a) * float(lin)
    norm += float(d * np.log(np.pi))
    norm -= float(log_fact[sum(row) + d])
    return out - norm


@pytest.mark.parametrize("mid, k", [("s1-cp1-w12", 3000), ("s1-cp2-w123", 300), ("w215", 400),
                                    ("t2-cp2", 3000), ("u2-cp2", 3001)])
@pytest.mark.parametrize("block_rows", [hardy._BLOCK_ROWS, 50])
def test_window_views_read_every_row_with_its_scalar_bits(mid, k, block_rows, monkeypatch):
    # every row of every window, read through the strided table views, has
    # the bits of the same row computed alone with scalar floats, and every
    # padding entry is -inf: one column of slope 1 (d = 1), a column that
    # does not step (s1-cp2-w123), a pivot step of -5 (w215) and a level
    # that does not step (t2-cp2, u2-cp2, forced to the windowed route);
    # with 50-row blocks the windows longer than a block take spans
    monkeypatch.setattr(hardy, "_BLOCK_ROWS", block_rows)
    model = _listing_model(mid)
    nu, d = model.default_nu, model.d
    runs = model.isotypic_runs(nu, k)
    rng = np.random.default_rng(23)
    x = model.default_locus_point()
    zero = random_sphere_point(d, rng)
    zero[0] = 0.0
    spans = 0
    for p, q in [(x, x), (x, unit_point(x + 0.05 * random_sphere_point(d, rng))),
                 (unit_point(zero), random_sphere_point(d, rng))]:
        lx, ly = hardy._safe_log(p), hardy._safe_log(q)
        first, counts = hardy._concentration_windows(runs, d, lx, ly)
        live = np.flatnonzero(counts)
        lines = (runs.starts[live] + first[live, None] * runs.step).T
        linear, seen = lx.real + ly.real, np.zeros(counts[live].sum(), dtype=bool)
        log_fact = hardy._log_factorials(runs.top + d).tolist()
        offsets = np.concatenate([[0], np.cumsum(counts[live])])
        for block, start, expo in hardy._window_exponents(lines, counts[live], runs.step, linear,
                                                          d, runs.top):
            assert expo.shape[0] * expo.shape[1] <= block_rows
            spans += start > 0
            for i, window in enumerate(range(len(live))[block]):
                for c, t in enumerate(range(start, start + expo.shape[1])):
                    if t >= counts[live][window]:
                        assert expo[i, c] == -np.inf
                        continue
                    row = (lines[:, window] + t * runs.step).tolist()
                    assert expo[i, c] == _scalar_exponent(row, linear, d, log_fact), (window, t)
                    seen[offsets[window] + t] = True
        assert seen.all()
    assert spans > 0 or block_rows == hardy._BLOCK_ROWS


# (model, smallest k, largest k) for the window property test: every
# listing model, and weights (2, 1, 5), whose pivot steps down by 5 in the
# middle coordinate
_WINDOW_CASES = [("s1-cp1-w12", 2, 20000), ("s1-cp2-w123", 2, 400), ("t2-cp2", 2, 10000),
                 ("u2-cp2", 3, 10001), ("w215", 1000, 1200)]


def _run_rows(runs, first, counts):
    """Rows first[i] ... first[i] + counts[i] - 1 of each run i, run after
    run, each row starts[i] + s step, built here from the runs' starts,
    step and lengths and not by the listing under test."""
    assert np.all((first >= 0) & (first + counts <= runs.lengths))
    rows = [start + np.multiply.outer(np.arange(f, f + c), runs.step)
            for start, f, c in zip(runs.starts, first.tolist(), counts.tolist())]
    return np.concatenate([np.zeros((0, len(runs.step)), dtype=np.int64)] + rows)


def _oracle_log_terms(alphas, x, y):
    """log |x^a conj(y)^a| / ||z^a||^2 per row, norms by gammaln; -inf
    where a positive exponent meets a zero coordinate."""
    with np.errstate(divide="ignore"):
        linear = np.log(np.abs(x)) + np.log(np.abs(y))
    dead = ~np.isfinite(linear)
    terms = alphas @ np.where(dead, 0.0, linear) - monomial_log_norms_gammaln(
        alphas.shape[1] - 1, alphas)
    terms[(alphas[:, dead] > 0).any(axis=1)] = -np.inf
    return terms


@settings(_DERANDOMIZED, max_examples=25)
@given(case=st.sampled_from(_WINDOW_CASES), where=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
       pair=st.sampled_from(["diagonal", "near", "random"]), zero=st.integers(-1, 3))
def test_window_bound_holds_on_every_row_and_keeps_every_summed_one(catalog, case, where, seed,
                                                                    pair, zero):
    mid, k_lo, k_hi = case
    model = _listing_model(mid) if mid == "w215" else catalog[mid]
    nu, d = model.default_nu, model.d
    k = model.valid_k(round(k_lo + where * (k_hi - k_lo)))
    rng = np.random.default_rng(seed)
    x = random_sphere_point(d, rng)
    if 0 <= zero <= d:                 # a zero coordinate: 0 log 0 = 0, never NaN
        x[zero] = 0.0
        x = unit_point(x)
    y = {"diagonal": x, "near": unit_point(x + 0.05 * random_sphere_point(d, rng)),
         "random": random_sphere_point(d, rng)}[pair]
    alphas = model.isotypic_exponents(nu, k)
    terms = _oracle_log_terms(alphas, x, y)
    linear = hardy._safe_log(x).real + hardy._safe_log(y).real
    bound = hardy._log_bound(alphas.T.astype(float), np.zeros(d + 1),
                             np.zeros(len(alphas), dtype=int), linear)
    assert not np.isnan(bound).any()
    assert np.all(bound >= terms - 1e-9 * np.maximum(1.0, np.abs(terms))), (mid, k)
    assert np.all(bound[terms == -np.inf] < hardy._BIG_NEG / 2)
    # every row the full sum keeps within e^-60 of its largest term is in
    # a window
    runs = model.isotypic_runs(nu, k)
    top = runs.top
    first, counts = _windows(runs, d, x, y)
    window = _run_rows(runs, first, counts)
    assert len(window) <= len(alphas)

    def keys(rows):
        return rows.astype(np.int64) @ (top + 1) ** np.arange(d + 1, dtype=np.int64)

    if terms.max() > -np.inf:
        summed = alphas[terms >= terms.max() + hardy._ROW_CUT + 1]
        assert np.isin(keys(summed), keys(window)).all(), (mid, k)
    # and the windowed sum is the full sum within its rounding bound
    full = hardy._basis_sum(alphas, monomial_log_norms(d, alphas, top), x, y)
    windowed = hardy._windowed_sum(runs, d, x, y)
    if full[0] == -np.inf:
        assert windowed == full
    else:
        gap = abs(np.exp(windowed[0] - full[0]) * windowed[1] - full[1])
        magnitude = np.sum(np.exp(terms - full[0]))
        assert gap <= _route_bound(alphas, x, y) * magnitude, (mid, k, gap)


@settings(_DERANDOMIZED, max_examples=100)
@given(case=st.sampled_from(_WINDOW_CASES), where=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
       pair=st.sampled_from(["diagonal", "near", "random"]), zero=st.integers(-1, 3))
def test_window_search_finds_the_bisection_windows(catalog, case, where, seed, pair, zero):
    # the Newton-guided search and the plain bisection of every run give
    # the same window on every run with one (an empty one may start
    # anywhere); a zero coordinate must not warn (warnings are errors)
    mid, k_lo, k_hi = case
    model = _listing_model(mid) if mid == "w215" else catalog[mid]
    nu, d = model.default_nu, model.d
    k = model.valid_k(round(k_lo + where * (k_hi - k_lo)))
    rng = np.random.default_rng(seed)
    x = random_sphere_point(d, rng)
    if 0 <= zero <= d:
        x[zero] = 0.0
        x = unit_point(x)
    y = {"diagonal": x, "near": unit_point(x + 0.05 * random_sphere_point(d, rng)),
         "random": random_sphere_point(d, rng)}[pair]
    runs = model.isotypic_runs(nu, k)
    first, counts = _windows(runs, d, x, y)
    want_first, want_counts = bisected_windows(runs, d, x, y)
    assert np.array_equal(counts, want_counts), (mid, k)
    assert np.array_equal(first[counts > 0], want_first[counts > 0]), (mid, k)


@_DERANDOMIZED
@given(case=st.sampled_from(_WINDOW_CASES), where=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
       pair=st.sampled_from(["diagonal", "near", "random"]), zero=st.integers(-1, 3))
def test_peak_exponent_is_the_largest_next_to_every_peak(catalog, case, where, seed, pair, zero):
    # E* has the bits of the largest real term exponent over the rows at
    # every peak, each computed alone: sum_j alpha_j linear_j in j order,
    # less the row's log-norm
    mid, k_lo, k_hi = case
    model = _listing_model(mid) if mid == "w215" else catalog[mid]
    nu, d = model.default_nu, model.d
    k = model.valid_k(round(k_lo + where * (k_hi - k_lo)))
    rng = np.random.default_rng(seed)
    x = random_sphere_point(d, rng)
    if 0 <= zero <= d:
        x[zero] = 0.0
        x = unit_point(x)
    y = {"diagonal": x, "near": unit_point(x + 0.05 * random_sphere_point(d, rng)),
         "random": random_sphere_point(d, rng)}[pair]
    runs, calls = model.isotypic_runs(nu, k), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hardy, "_peak_exponent", lambda *args, f=hardy._peak_exponent:
                      calls.append((args, f(*args))) or calls[-1][1])
        _windows(runs, d, x, y)
    if not calls:                            # no runs: nothing to read
        return
    (*_, peak), largest = calls[0]
    rows = _run_rows(runs, peak, np.ones_like(peak))
    products = rows * (hardy._safe_log(x).real + hardy._safe_log(y).real)
    linear = products[:, 0]
    for column in products.T[1:]:
        linear = linear + column
    every = linear - monomial_log_norms(d, rows, runs.top)
    assert largest == every.max(), (mid, k)


def test_peak_exponent_reads_every_peak_and_lists_nothing(monkeypatch):
    # s1-cp2-w123 at k = 2048, the kernel-scan key: E* reads the rows at
    # all 1025 run peaks from the log-factorial table and lists nothing,
    # and a peak row's exponent has the same bits read alone, as the peak
    # of a one-run listing, as in the batch of every peak
    model = build_model("s1-cp2-w123")
    nu, k, d = model.default_nu, 2048, model.d
    runs, calls, batches = model.isotypic_runs(nu, k), [], []
    peak_exponent, term_exponents = hardy._peak_exponent, hardy._term_exponents
    monkeypatch.setattr(hardy, "_peak_exponent",
                        lambda *args: calls.append(args) or peak_exponent(*args))
    monkeypatch.setattr(hardy, "_term_exponents",
                        lambda *args: batches.append(term_exponents(*args).copy()) or batches[-1])
    monkeypatch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)
    x = model.default_locus_point()
    y = unit_point(x + 0.05 * random_sphere_point(2, np.random.default_rng(9)))
    for p, q in ((x, x), (x, y)):
        calls.clear()
        batches.clear()
        _windows(runs, d, p, q)
        (_, _, lx, ly, peak), = calls
        batch, = batches                    # one batch: the rows at every peak
        assert len(peak) == len(runs.lengths) == len(batch) == 1025
        assert peak_exponent(runs, d, lx, ly, peak) == batch.max()
        for i in range(0, len(peak), 41):
            alone = models.IsotypicRuns(runs.starts[i:i + 1], runs.step, runs.lengths[i:i + 1])
            assert peak_exponent(alone, d, lx, ly, peak[i:i + 1]) == batch[i], i


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 2048), ("w215", 1000), ("w1234", 200)])
def test_window_search_in_chunks_finds_the_same_windows(mid, k, monkeypatch):
    # both passes of the search take _SEARCH_RUNS runs at a time; with
    # 7-run chunks the windows are those of one chunk over every run (1025,
    # 501 and 3434 runs), at the peak, near it, far from it and with a
    # zero coordinate
    model = _listing_model(mid)
    nu, d = model.default_nu, model.d
    runs = model.isotypic_runs(nu, k)
    assert 7 < len(runs.lengths) <= hardy._SEARCH_RUNS
    rng = np.random.default_rng(29)
    x = model.default_locus_point()
    zero = random_sphere_point(d, rng)
    zero[-1] = 0.0
    for p, q in [(x, x), (x, unit_point(x + 0.05 * random_sphere_point(d, rng))),
                 (random_sphere_point(d, rng), random_sphere_point(d, rng)),
                 (unit_point(zero), x)]:
        whole = _windows(runs, d, p, q)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hardy, "_SEARCH_RUNS", 7)
            chunked = _windows(runs, d, p, q)
        assert whole[1].any()
        assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])


def test_a_windowed_evaluation_over_many_runs_stays_small():
    # weights (1, 2, 3, 4) at k = 1000: 83,834 runs, 7.0M rows.  A warm
    # diagonal evaluation peaked at 53.6 MB traced with the bound stacks
    # of every run at once; searched and read _SEARCH_RUNS runs at a time
    # it peaks at 9.1 MB, and its value does not move
    model = _listing_model("w1234")
    nu, k = model.default_nu, 1000
    x = model.default_locus_point()
    assert len(model.isotypic_runs(nu, k).lengths) == 83834
    first = equivariant_kernel_log(model, nu, k, x, x)      # runs, lines, log-factorials
    tracemalloc.start()
    try:
        again = equivariant_kernel_log(model, nu, k, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first and first[0] > -np.inf
    assert peak < 16e6, peak


def test_window_search_takes_a_few_batched_bound_evaluations(monkeypatch):
    # one windowed s1-cp2-w123 evaluation at k = 2048 (1025 runs, the
    # kernel-scan key): the bisection of every run took 38 bound
    # evaluations over 26 run-columns per run; the Newton-guided search
    # takes 10 bound and slope evaluations over 11 to 13 run-columns per
    # run, and finds the same windows
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 2048
    runs = model.isotypic_runs(nu, k)
    assert runs.rows > hardy._LIST_ROWS and len(runs.lengths) == 1025
    columns = []
    for name in ("_log_bound", "_log_slopes"):
        monkeypatch.setattr(hardy, name, lambda starts, step, s, linear, f=getattr(hardy, name):
                            columns.append(np.size(s)) or f(starts, step, s, linear))
    rng = np.random.default_rng(17)
    x = model.default_locus_point()
    for p, q in [(x, x), (x, unit_point(x + 0.02 * random_sphere_point(2, rng))),
                 (random_sphere_point(2, rng), random_sphere_point(2, rng))]:
        columns.clear()
        equivariant_kernel_log(model, nu, k, p, q)
        assert len(columns) <= 12 and sum(columns) <= 14 * len(runs.lengths), columns
        first, counts = _windows(runs, model.d, p, q)
        want_first, want_counts = bisected_windows(runs, model.d, p, q)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(first[counts > 0], want_first[counts > 0])


def _refuse_listing(*args, **kwargs):
    raise AssertionError("a refused listing was built or listed")


def _forbid_listing(patch, cls):
    """Fail the test if the runs of a cls listing are built or a row is listed."""
    patch.setattr(cls, "_isotypic_runs", _refuse_listing)
    patch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)


def test_rank1_basis_over_the_memory_budget_is_refused(monkeypatch):
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 64
    need = isotypic_dim(model, nu, k) * models._basis_row_bytes(model.d)
    monkeypatch.setattr(models, "_BASIS_BUDGET_BYTES", need - 1)
    _forbid_listing(monkeypatch, TorusModel)
    with pytest.raises(AssumptionViolation, match=f"374 monomials.*{need} bytes.*{need - 1}-byte"):
        isotypic_basis(model, nu, k)
    assert not model.basis_cache and not model.runs_cache
    monkeypatch.undo()
    monkeypatch.setattr(models, "_BASIS_BUDGET_BYTES", need)
    assert isotypic_basis(model, nu, k).dim == 374


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 64), ("t2-cp2", 64), ("u2-cp2", 65)])
def test_kernel_evaluation_over_the_budget_is_refused_before_listing(mid, k, monkeypatch):
    model, listed = build_model(mid), build_model(mid)
    nu = model.default_nu
    rows = isotypic_dim(model, nu, k)
    dim = len(listed.isotypic_exponents(nu, k))
    need = rows * models._basis_row_bytes(model.d)
    monkeypatch.setattr(models, "_BASIS_BUDGET_BYTES", need - 1)
    _forbid_listing(monkeypatch, type(model))
    x = model.default_locus_point()
    with pytest.raises(AssumptionViolation, match=f"{rows} monomials.*{need} bytes"):
        equivariant_kernel_log(model, nu, k, x, x)
    assert not model.basis_cache and not model.runs_cache    # a refusal stores nothing
    assert isotypic_dim(model, nu, k) == dim                 # a count lists nothing
    monkeypatch.undo()
    monkeypatch.setattr(models, "_BASIS_BUDGET_BYTES", need)
    assert equivariant_kernel_log(model, nu, k, x, x)[0] > -np.inf


def test_cli_exits_3_over_the_memory_budget(monkeypatch, capsys):
    # 500 B is below both bases: 374 rows at 24 B and 33 rows at 16 B
    monkeypatch.setattr(models, "_BASIS_BUDGET_BYTES", 500)
    _forbid_listing(monkeypatch, TorusModel)
    assert main(["kernel-eval", "--model", "s1-cp2-w123", "--k", "64",
                 "--x", "0.7,0.5,0.5"]) == 3
    assert "500-byte memory budget" in capsys.readouterr().err
    assert main(["suite", "diag", "--model", "s1-cp1-w12", "--kmin", "64",
                 "--kmax", "128"]) == 3
    assert "33 monomials" in capsys.readouterr().err


def _timed_cli(argv):
    """(exit code, seconds, traced peak bytes) of one CLI call."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, elapsed, peak


def test_cli_refuses_a_huge_rank1_basis_fast_and_small(capsys):
    # the budget check counts the k = 1e9 basis (about 8.3e16 monomials)
    # without a table of k entries
    code, elapsed, peak = _timed_cli(["kernel-eval", "--model", "s1-cp2-w123",
                                      "--k", "1000000000", "--x", "0.7,0.5,0.5"])
    assert code == 3
    assert "memory budget" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 10 * 1024 ** 2


def test_cli_diag_suite_keeps_no_basis(capsys):
    # each listing here is too long to store, so each sum reads its
    # concentration windows (213k of 5.6M rows at k = 8192):
    # traced peak 3.5 MB when measured, where the stored k = 4096 basis
    # alone takes 28 MB (1.4M rows at 20 B) and the k = 8192 one 112 MB
    code, _, peak = _timed_cli(["suite", "diag", "--model", "s1-cp2-w123",
                                "--kmin", "2048", "--kmax", "8192"])
    assert code == 0
    assert ",8192,diag-ratio," in capsys.readouterr().out
    assert peak < 8 * 1024 ** 2


@pytest.mark.parametrize("mid, k", [("t2-cp2", 200_000_000), ("u2-cp2", 200_000_001)])
def test_cli_refuses_a_huge_listing_fast_and_small(mid, k, capsys):
    # the rows are counted (2e8 + 1 each, about 4.8 GB) before any listing
    code, elapsed, peak = _timed_cli(["kernel-eval", "--model", mid, "--k", str(k),
                                      "--x", "0.7,0.5,0.5"])
    assert code == 3
    assert "memory budget" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 10 * 1024 ** 2


def test_exponents_past_int32_are_refused_before_listing(monkeypatch, capsys):
    # weights (1, 10^6): 3001 rows at k = 3e9, well under the
    # budget, but the first exponent reaches 3e9
    model = TorusModel("s1-cp1-wide", [[1, 1_000_000]], (1.0,))
    runs = model.isotypic_runs(model.default_nu, 2_000_000_000)
    assert (runs.rows, runs.top) == (2001, 2_000_000_000)
    monkeypatch.setattr(models.ProjectiveModel, "isotypic_exponents", _refuse_listing)
    with pytest.raises(AssumptionViolation, match="reach 3000000000, past the int32 range"):
        isotypic_basis(model, model.default_nu, 3_000_000_000)
    assert not model.basis_cache and len(model.runs_cache) == 1     # the k = 2e9 runs only
    # t2-cp2 at nu = (3, 0) and k = 1e9 lists one row, which reaches 3e9,
    # and exits 3 at once
    assert main(["kernel-eval", "--model", "t2-cp2", "--nu", "3,0", "--k", "1000000000",
                 "--x", "0.7,0.5,0.5"]) == 3
    assert "reach 3000000000, past the int32 range" in capsys.readouterr().err
    # at its default nu (2, 1) the 1e9 + 1 rows are counted first, and are
    # over the budget
    assert main(["kernel-eval", "--model", "t2-cp2", "--k", "1000000000",
                 "--x", "0.7,0.5,0.5"]) == 3
    assert "1000000001 monomials" in capsys.readouterr().err


def test_log_factorial_growth_over_the_budget_is_refused(monkeypatch):
    have = len(hardy._LOG_FACTORIALS)
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", hardy._LOG_FACTORIAL_OLD_BYTES * have
                        + hardy._LOG_FACTORIAL_NEW_BYTES * 99)
    with pytest.raises(AssumptionViolation, match="memory budget"):
        hardy._log_factorials(have + 99)
    assert len(hardy._LOG_FACTORIALS) == have
    assert len(hardy._log_factorials(have + 98)) == have + 99


def test_cli_dims_suite_runs_to_k_near_1e9(capsys):
    # dimensions are counted in closed form, never listed, so k = 2^29
    # costs nothing (u2-cp2 snaps it to the odd 2^29 + 1)
    for mid in MODEL_IDS:
        assert main(["suite", "dims", "--model", mid, "--kmax", "1000000000"]) == 0, mid
        k = build_model(mid).valid_k(2 ** 29)
        assert f",{k},dim-growth," in capsys.readouterr().out, mid


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_kernel_eval_prints_the_log_of_a_kernel_that_underflows(capsys):
    # |Pi| = e^-784 underflows to 0 in value; log_abs and phase keep it
    # apart from a weight-mismatch zero, whose log is null
    argv = ["kernel-eval", "--model", "t2-cp2", "--k", "2048", "--x", "0.7,0.5,0.5"]
    assert main(argv + ["--y", "0.5,0.7,0.5"]) == 0
    out = _strict_json(capsys.readouterr().out)
    model = build_model("t2-cp2")
    x, y = unit_point([0.7, 0.5, 0.5]), unit_point([0.5, 0.7, 0.5])
    log_abs, phase = equivariant_kernel_log(model, model.default_nu, 2048, x, y)
    assert out["value"] == [0.0, 0.0]
    assert out["log_abs"] == log_abs and -800 < log_abs < -700
    assert out["phase"] == [phase.real, phase.imag]
    assert main(argv + ["--nu", "2,-1"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["isotypic_dim"] == 0 and out["value"] == [0.0, 0.0]
    assert out["log_abs"] is None and out["phase"] == [0.0, 0.0]


def test_cli_kernel_eval_su2_at_k_1e9(capsys):
    # the level closed form and the level size: nothing is listed
    assert main(["kernel-eval", "--model", "su2-cp1", "--k", "1000000000", "--x", "1,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["isotypic_dim"] == 10 ** 9
    assert out["value"][0] == pytest.approx(10 ** 9 / np.pi, rel=1e-12)


def test_runtime_never_imports_scipy():
    script = """
import sys
import numpy as np
import coorbit
from coorbit import hardy
from coorbit.harness import _separated_pair
from coorbit.models import MODEL_IDS, build_model
for mid in MODEL_IDS:
    model = build_model(mid)
    nu = model.default_nu
    x, y = _separated_pair(model, nu)
    hardy.orbit_separation(model, x, y)
    model.w_space(x)
    model.normal_space(nu, model.locus_decompose(nu, x))
hardy.monomial_log_norms(2, np.array([[3, 1, 4], [0, 0, 9]]), 9)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert out.stdout.strip() == "[]"
