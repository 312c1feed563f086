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
from hypothesis import assume, given, settings, strategies as st

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
    coin_change_count,
    lattice_count,
    lattice_points,
    lattice_points_nested,
    level_kernel_closed,
    lifted_action,
    monomial_log_norms_gammaln,
    monomial_sum_mp,
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
_DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=40)


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
def _weight_matrix_and_target(draw):
    r = draw(st.integers(1, 2))
    m = draw(st.integers(r + 1, 4))
    cols = draw(st.lists(st.lists(st.integers(0, 3), min_size=r, max_size=r)
                         .filter(any), min_size=m, max_size=m))
    weights = np.array(cols).T
    assume(np.linalg.matrix_rank(weights) == r)
    cap = _MAX_TARGET[m] // 2 if r == 2 else _MAX_TARGET[m]
    target = draw(st.lists(st.integers(0, cap), min_size=r, max_size=r).filter(any))
    return weights, target


@_DERANDOMIZED
@given(_weight_matrix_and_target())
def test_isotypic_exponents_are_the_lattice_oracle_set(case):
    weights, target = case
    model = TorusModel("t-random", weights, np.ones(len(weights)))
    alphas = model.isotypic_exponents(np.array(target, dtype=float), 1)
    listed = [tuple(a) for a in alphas.tolist()]
    assert len(set(listed)) == len(listed)
    assert set(listed) == set(lattice_points(weights, target))
    # row for row: a sum's bits depend on the order of its terms
    assert listed == lattice_points_nested(weights, target, *model._pivot_columns)
    # the extent the budget reads bounds the listing it allows
    rows, top = model.isotypic_extent(np.array(target, dtype=float), 1)
    assert rows >= len(listed) and all(sum(a) <= top for a in listed)


def test_square_weight_matrix_lists_its_one_preimage():
    # no free coordinate: W^-1 k nu is the only candidate
    model = TorusModel("t2-cp1", [[2, 1], [1, 1]], (1.0, 1.0))
    for target in ([3, 2], [1, 2], [5, 3]):
        alphas = model.isotypic_exponents(np.array(target, dtype=float), 1)
        assert alphas.dtype == np.int32
        assert [tuple(a) for a in alphas.tolist()] == lattice_points(model.weights, target)


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


# (weights, det of the pivot columns): det = -1, |det| > 1 of either sign
# at rank 1 and 2, one free coordinate or two, and square W
_PIVOT_CASES = [([[2, 3, 5]], 2), ([[0, 1, 1], [1, 0, 1]], -1), ([[2, 1, 1], [1, 3, 2]], 5),
                ([[1, 2, 1], [3, 1, 2]], -5), ([[2, 1, 1, 3], [1, 3, 2, 1]], 5),
                ([[2, 1], [1, 3]], 5), ([[1, 2], [3, 1]], -5)]


@pytest.mark.parametrize("weights, det", _PIVOT_CASES)
@pytest.mark.parametrize("list_rows", [models._LIST_ROWS, 5])
def test_torus_listing_is_the_nested_loop_order(weights, det, list_rows, monkeypatch):
    # 5-row chunks cut prefix rows and carry rejections across chunk edges
    monkeypatch.setattr(models, "_LIST_ROWS", list_rows)
    model = TorusModel("t-pivots", weights, np.ones(len(weights)))
    pivots, free = model._pivot_columns
    assert round(np.linalg.det(model.weights[:, pivots])) == det
    for scale in (1, 3, 7, 12):
        for offset in ([0, 1, 2][:len(weights)], [2, 0, 1][:len(weights)]):
            target = scale * np.arange(1, len(weights) + 1) + np.array(offset)
            alphas = model.isotypic_exponents(target.astype(float), 1)
            assert alphas.dtype == np.int32
            assert [tuple(a) for a in alphas.tolist()] \
                == lattice_points_nested(weights, target, pivots, free), (weights, target)


def test_catalog_tori_list_in_nested_loop_order(catalog):
    for mid in ("s1-cp1-w12", "s1-cp2-w123", "t2-cp2"):
        model = catalog[mid]
        for k in range(1, 41):
            target = model.isotypic_target(model.default_nu, k)
            alphas = model.isotypic_exponents(model.default_nu, k)
            assert [tuple(a) for a in alphas.tolist()] == lattice_points_nested(
                model.weights, target, *model._pivot_columns), (mid, k)


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 900), ("t2-cp2", 10000)])
def test_both_kernel_routes_are_the_oracle_ordered_sum_bit_for_bit(mid, k):
    # one listing chunk: the streamed first evaluation and the stored second
    # one both give the block sum over the nested-loop rows normed by
    # gammaln, bit for bit.  A longer listing (s1-cp2-w123 at k = 900, 67.8k
    # rows) sums its concentration windows at every evaluation and stores
    # nothing, within the full sum's rounding bound of the same sum
    model = build_model(mid)
    nu = model.default_nu
    alphas = np.array(lattice_points_nested(model.weights, model.isotypic_target(nu, k),
                                            *model._pivot_columns))
    windowed = len(alphas) > models._LIST_ROWS
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
        assert model.basis_cache == {hardy._basis_key(half_weight(model.group, nu), k): None}
        stored = equivariant_kernel_log(model, nu, k, p, q)
        assert isinstance(next(iter(model.basis_cache.values())), hardy.IsotypicBasis)
        assert first == expected and stored == expected, (mid, p is q)


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


def test_isotypic_dim_lists_nothing_at_k_2_to_the_30(catalog, monkeypatch):
    # every catalog model counts in closed form: no listing is asked for,
    # even where one would be far over the memory budget
    for cls in {type(model) for model in catalog.values()}:
        monkeypatch.setattr(cls, "isotypic_chunks", _refuse_listing)
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
                    lambda: model.isotypic_chunks(nu, 8)):
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
    # the streamed sum's own error model, relative to sum |terms|: rounding
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
        # a yielded block is valid only until the next one: copy each
        blocks = [b.copy() for b in hardy._block_exponents(
            hardy._stored_blocks(basis.alphas, basis.log_norms), p, q)]
        assert np.array_equal(np.concatenate(blocks), expo)
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
            streamed = np.exp(logmag - shift) * phase
            magnitude = np.sum(np.exp(expo.real - shift))
            assert abs(streamed - total) <= _route_bound(basis.alphas, p, q) * magnitude


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


def test_windowed_sum_matches_the_multiprecision_oracle(monkeypatch):
    # the windowed route, taken at k = 200 (3434 rows) under a 2048-row
    # chunk, sums 2.0k and 2.6k rows on these complex off-orbit pairs and
    # meets the full sum's bound against exact norms
    monkeypatch.setattr(hardy, "_LIST_ROWS", 2048)
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 200
    alphas = model.isotypic_exponents(nu, k)
    _, top = model.isotypic_extent(nu, k)
    log_norms = monomial_log_norms(model.d, alphas, top)
    for x, y in _off_orbit_pairs(model, np.random.default_rng(12)):
        _, counts = hardy._concentration_windows(model.isotypic_runs(nu, k), model.d, top, x, y)
        assert counts.sum() < 0.8 * len(alphas)
        logmag, phase = equivariant_kernel_log(model, nu, k, x, y)
        assert model.basis_cache == {}
        exact, magnitude = monomial_sum_mp(alphas, x, y, dps=40)
        err = abs(mpmath.exp(logmag) * mpmath.mpc(complex(phase)) - exact) / magnitude
        bound = _exact_norm_bound(alphas, log_norms, x, y)
        assert err <= bound, (float(err), bound)


def test_negligible_cut_moves_the_sum_by_under_eps_of_its_largest_term(monkeypatch):
    # d = 1, level 20000: the terms fall to e^-276000 of the largest, and
    # the block maxima rise from block to block; a fixed tolerance, so a
    # looser cut (e^-30 skips terms near 1e-13 of the largest) fails
    a = np.arange(20001)
    alphas = np.stack([a, 20000 - a], axis=1)
    log_norms = monomial_log_norms(1, alphas, 20000)
    x = unit_point([1.0, 1e-3])
    y = unit_point([np.exp(0.3j), 1e-3 * np.exp(-1.1j)])
    largest = _one_shot_terms(alphas, log_norms, x, y).real.max()
    cut = hardy._basis_sum(alphas, log_norms, x, y)
    monkeypatch.setattr(hardy, "_NEGLIGIBLE", -np.inf)
    every = hardy._basis_sum(alphas, log_norms, x, y)
    gap = np.exp(cut[0] - largest) * cut[1] - np.exp(every[0] - largest) * every[1]
    assert abs(gap) <= np.finfo(float).eps


def test_negligible_cut_leaves_a_concentrated_kernel_bit_identical(monkeypatch):
    # the kernel-scan basis of s1-cp2-w123 at k = 2048: most terms are
    # cut, and the sum keeps every bit on the diagonal and a near pair
    model = build_model("s1-cp2-w123")
    basis = isotypic_basis(model, model.default_nu, 2048)
    rng = np.random.default_rng(5)
    x = model.default_locus_point()
    near = unit_point(x + 0.02 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    for p, q in ((x, x), (x, near)):
        expo = _one_shot_terms(basis.alphas, basis.log_norms, p, q).real
        assert np.mean(expo - expo.max() < hardy._NEGLIGIBLE) > 0.5
        cut = hardy._basis_sum(basis.alphas, basis.log_norms, p, q)
        with monkeypatch.context() as patch:
            patch.setattr(hardy, "_NEGLIGIBLE", -np.inf)
            assert hardy._basis_sum(basis.alphas, basis.log_norms, p, q) == cut


def test_negligible_cut_is_under_eps_over_a_whole_budget_of_rows():
    # the most rows the memory budget admits, each just under the cut,
    # stay below eps / 2 of the largest term
    rows = hardy._BASIS_BUDGET_BYTES // hardy._basis_row_bytes(1)
    assert rows * np.exp(hardy._NEGLIGIBLE) < np.finfo(float).eps / 2


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
            _, top = model.isotypic_extent(model.default_nu, k)
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


# k with at least 3 blocks and a partial last one; weights (2, 3, 5) reject
# about half their candidates, so its 3 chunks of kept rows (32778, 32787
# and 1436 long) are carried across block boundaries
_STREAMED_CASES = [("s1-cp1-w12", 20000), ("s1-cp2-w123", 400), ("t2-cp2", 10000),
                   ("u2-cp2", 10001), ("w235", 2000)]


def _streamed_model(mid):
    return TorusModel("w235", [[2, 3, 5]], (1.0,)) if mid == "w235" else build_model(mid)


def _streamed_sum(model, nu, k, x, y):
    _, top = model.isotypic_extent(nu, k)
    return hardy._block_sum(hardy._listed_blocks(model.d, model.isotypic_chunks(nu, k), top),
                            x, y)


@pytest.mark.parametrize("mid, k", _STREAMED_CASES)
def test_streamed_sum_is_the_stored_basis_sum_bit_for_bit(mid, k):
    model = _streamed_model(mid)
    nu = model.default_nu
    basis = isotypic_basis(model, nu, k)
    assert basis.dim > 2 * hardy._BLOCK_ROWS and basis.dim % hardy._BLOCK_ROWS
    rng = np.random.default_rng(21)
    x = model.default_locus_point()
    near = unit_point(x + 0.02 * (rng.standard_normal(model.ambient_dim)
                                  + 1j * rng.standard_normal(model.ambient_dim)))
    off = random_sphere_point(model.d, rng)
    for p, q in ((x, x), (x, near), (near, off), (off, off)):
        stored = hardy._basis_sum(basis.alphas, basis.log_norms, p, q)
        assert stored[0] > -np.inf, mid
        assert _streamed_sum(model, nu, k, p, q) == stored, (mid, k)
    if mid in _EMPTY_K:
        assert _streamed_sum(model, nu, _EMPTY_K[mid], x, x) == (-np.inf, 0.0 + 0.0j)


def test_a_kernel_streams_first_stores_second_and_reuses_after(monkeypatch):
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 256
    key = (tuple(nu.coords.tolist()), k)
    x = model.default_locus_point()
    first = equivariant_kernel_log(model, nu, k, x, x)
    assert model.basis_cache == {key: None}          # asked for once, nothing kept
    second = equivariant_kernel_log(model, nu, k, x, x)
    basis = model.basis_cache[key]
    assert isinstance(basis, hardy.IsotypicBasis) and basis.dim == isotypic_dim(model, nu, k)
    monkeypatch.setattr(TorusModel, "isotypic_chunks", _refuse_listing)
    third = equivariant_kernel_log(model, nu, k, x, x)
    assert model.basis_cache[key] is basis and isotypic_basis(model, nu, k) is basis
    assert first == second == third
    monkeypatch.undo()
    # an explicit request stores at once
    other = build_model("s1-cp2-w123")
    stored = isotypic_basis(other, nu, k)
    assert other.basis_cache == {key: stored}


def test_a_multi_chunk_kernel_sums_its_windows_and_keeps_no_basis(monkeypatch):
    # a listing over one chunk: each evaluation lists the rows at its 513
    # run peaks and its concentration windows only (25.1k of the 87.9k
    # rows at k = 1024) and keeps neither a basis nor a marker
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 1024
    rows, _ = model.isotypic_extent(nu, k)
    assert rows > models._LIST_ROWS
    listed, chunks = [], models.IsotypicRuns.chunks

    def counted(self, first=None, counts=None):
        for chunk in chunks(self, first, counts):
            listed.append(len(chunk))
            yield chunk

    monkeypatch.setattr(models.IsotypicRuns, "chunks", counted)
    x = model.default_locus_point()
    values = []
    for _ in range(3):
        listed.clear()
        values.append(equivariant_kernel_log(model, nu, k, x, x))
        assert 0 < sum(listed) < rows // 3
    assert values[0] == values[1] == values[2]
    assert model.basis_cache == {}


# (model, smallest k, largest k) for the window property test: every
# listing model, and weights (2, 3, 5) with pivot determinant 2, whose odd
# candidates are rejected inside the windows too
_WINDOW_CASES = [("s1-cp1-w12", 2, 20000), ("s1-cp2-w123", 2, 400), ("t2-cp2", 2, 10000),
                 ("u2-cp2", 3, 10001), ("w235", 2000, 2000)]


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


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=st.sampled_from(_WINDOW_CASES), where=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
       pair=st.sampled_from(["diagonal", "near", "random"]), zero=st.integers(-1, 3))
def test_window_bound_holds_on_every_row_and_keeps_every_summed_one(catalog, case, where, seed,
                                                                    pair, zero):
    mid, k_lo, k_hi = case
    model = _streamed_model(mid) if mid == "w235" else catalog[mid]
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
    _, top = model.isotypic_extent(nu, k)
    runs = model.isotypic_runs(nu, k)
    first, counts = hardy._concentration_windows(runs, d, top, x, y)
    window = np.concatenate([np.zeros((0, d + 1), dtype=np.int32)]
                            + list(runs.chunks(first, counts)))
    assert len(window) <= len(alphas)

    def keys(rows):
        return rows.astype(np.int64) @ (top + 1) ** np.arange(d + 1, dtype=np.int64)

    if terms.max() > -np.inf:
        summed = alphas[terms >= terms.max() + hardy._NEGLIGIBLE]
        assert np.isin(keys(summed), keys(window)).all(), (mid, k)
    # and the windowed sum is the full sum within its rounding bound
    full = hardy._basis_sum(alphas, monomial_log_norms(d, alphas, top), x, y)
    windowed = hardy._windowed_sum(runs, d, top, x, y)
    if full[0] == -np.inf:
        assert windowed == full
    else:
        gap = abs(np.exp(windowed[0] - full[0]) * windowed[1] - full[1])
        magnitude = np.sum(np.exp(terms - full[0]))
        assert gap <= _route_bound(alphas, x, y) * magnitude, (mid, k, gap)


def _refuse_listing(self, nu, k):
    raise AssertionError("an over-budget basis was listed")


def test_rank1_basis_over_the_memory_budget_is_refused(monkeypatch):
    model = build_model("s1-cp2-w123")
    nu, k = model.default_nu, 64
    need = isotypic_dim(model, nu, k) * hardy._basis_row_bytes(model.d)
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", need - 1)
    monkeypatch.setattr(TorusModel, "isotypic_chunks", _refuse_listing)
    with pytest.raises(AssumptionViolation, match=f"374 monomials.*{need} bytes.*{need - 1}-byte"):
        isotypic_basis(model, nu, k)
    assert not model.basis_cache
    monkeypatch.undo()
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", need)
    assert isotypic_basis(model, nu, k).dim == 374


@pytest.mark.parametrize("mid, k", [("s1-cp2-w123", 64), ("t2-cp2", 64), ("u2-cp2", 65)])
def test_streamed_evaluation_over_the_budget_is_refused_before_listing(mid, k, monkeypatch):
    model = build_model(mid)
    nu = model.default_nu
    rows, _ = model.isotypic_extent(nu, k)
    dim = len(model.isotypic_exponents(nu, k))
    need = rows * hardy._basis_row_bytes(model.d)
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", need - 1)
    monkeypatch.setattr(type(model), "isotypic_chunks", _refuse_listing)
    x = model.default_locus_point()
    with pytest.raises(AssumptionViolation, match=f"{rows} monomials.*{need} bytes"):
        equivariant_kernel_log(model, nu, k, x, x)
    assert not model.basis_cache                     # a refusal marks no key
    assert isotypic_dim(model, nu, k) == dim         # a count lists nothing
    monkeypatch.undo()
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", need)
    assert equivariant_kernel_log(model, nu, k, x, x)[0] > -np.inf


def test_cli_exits_3_over_the_memory_budget(monkeypatch, capsys):
    # 500 B is below both bases: 374 rows at 24 B and 33 rows at 16 B
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", 500)
    monkeypatch.setattr(TorusModel, "isotypic_chunks", _refuse_listing)
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
    # each listing here is over one chunk, so each sum lists its
    # concentration windows chunk by chunk (213k of 5.6M rows at k = 8192):
    # traced peak 3.5 MB when measured, where the stored k = 4096 basis
    # alone takes 28 MB (1.4M rows at 20 B) and the k = 8192 one 112 MB
    code, _, peak = _timed_cli(["suite", "diag", "--model", "s1-cp2-w123",
                                "--kmin", "2048", "--kmax", "8192"])
    assert code == 0
    assert ",8192,diag-ratio," in capsys.readouterr().out
    assert peak < 8 * 1024 ** 2


@pytest.mark.parametrize("mid, k", [("t2-cp2", 200_000_000), ("u2-cp2", 200_000_001)])
def test_cli_refuses_a_huge_listing_fast_and_small(mid, k, capsys):
    # the rows are counted (3e8 and 2e8, about 7 and 5 GB) before any listing
    code, elapsed, peak = _timed_cli(["kernel-eval", "--model", mid, "--k", str(k),
                                      "--x", "0.7,0.5,0.5"])
    assert code == 3
    assert "memory budget" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 10 * 1024 ** 2


def test_exponents_past_int32_are_refused_before_listing(monkeypatch, capsys):
    # weights (1, 10^6): 3001 candidate rows at k = 3e9, well under the
    # budget, but the first exponent reaches 3e9
    model = TorusModel("s1-cp1-wide", [[1, 1_000_000]], (1.0,))
    assert model.isotypic_extent(model.default_nu, 2_000_000_000) == (2001, 2_000_000_000)
    monkeypatch.setattr(TorusModel, "isotypic_chunks", _refuse_listing)
    with pytest.raises(AssumptionViolation, match="reach 3000000000, past the int32 range"):
        isotypic_basis(model, model.default_nu, 3_000_000_000)
    assert not model.basis_cache
    # t2-cp2 at k = 1e9 reaches 3e9 too, and exits 3 at once
    assert main(["kernel-eval", "--model", "t2-cp2", "--k", "1000000000",
                 "--x", "0.7,0.5,0.5"]) == 3
    assert "int32" in capsys.readouterr().err


def test_pivot_solve_past_int64_is_refused_before_listing(monkeypatch):
    # adj = diag(3e10, 1): at k = 2e8 a pivot numerator could reach
    # 3e10 * 4e8 = 1.2e19, past int64, on 2e5 candidate rows
    weights = [[1, 0, 1000], [0, 30_000_000_000, 1000]]
    model = TorusModel("t2-wide", weights, (1.0, 1.0))
    assert model.isotypic_exponents(model.default_nu, 2000).tolist() \
        == [list(a) for a in lattice_points_nested(weights, [2000, 2000],
                                                   *model._pivot_columns)] == [[0, 0, 2]]
    monkeypatch.setattr(TorusModel, "isotypic_chunks", _refuse_listing)
    with pytest.raises(AssumptionViolation, match="pivot solve of t2-wide could pass int64"):
        isotypic_basis(model, model.default_nu, 200_000_000)
    assert not model.basis_cache


def test_log_factorial_growth_over_the_budget_is_refused(monkeypatch):
    have = len(hardy._LOG_FACTORIALS)
    monkeypatch.setattr(hardy, "_BASIS_BUDGET_BYTES", 16 * have + 40 * 99)
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
