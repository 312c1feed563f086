import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from coorbit import characters
from coorbit.characters import (
    OrbitQuadrature,
    QuadratureDisagreement,
    character_at_element,
    exp_jacobian,
    kirillov_character,
    orbit_quadrature,
    orbit_volume,
    peter_weyl_projector_weight,
    scaled_dimension,
    weyl_character,
    weyl_dimension,
)
from coorbit.groups import (
    UnsupportedGroupError,
    build_group,
    half_weight,
    haar_quadrature,
    random_unitary,
    trace_metric,
)

from oracles import (
    euler_product,
    finite_difference_exp_jacobian,
    gt_character,
    gt_dimension,
    kirillov_full_node,
    orbit_rule_nodes,
    su2_character_weight_sum,
    u2_character_eigen_angles,
    u2_character_from_euler,
    u2_character_weight_sum,
    weyl_matrices,
)


# -- Weyl dimension -----------------------------------------------------------

def test_weyl_dimension_at_delta_is_one():
    for kind in ("su2", "u2", "su3", "u3"):
        g = build_group(kind)
        assert weyl_dimension(g, g.delta) == 1


def test_weyl_dimension_su2_weight_oracle():
    g = build_group("su2")
    # enumerate the weights nu-1, nu-3, ..., -(nu-1): nu of them
    for nu in (1, 2, 3, 8):
        weights = [nu - 1 - 2 * j for j in range(nu)]
        assert weyl_dimension(g, half_weight(g, float(nu))) == len(weights)
    assert weyl_dimension(g, half_weight(g, 3.0)) == 3


def test_weyl_dimension_u2_gt_oracle():
    g = build_group("u2")
    assert weyl_dimension(g, half_weight(g, (1.5, -1.5))) == 3
    assert gt_dimension((1, -1)) == 3
    for lam in ((2, 0), (3, 1), (5, -2)):
        nu = half_weight(g, (lam[0] + 0.5, lam[1] - 0.5))
        assert weyl_dimension(g, nu) == gt_dimension(lam)


def test_weyl_dimension_u3_gt_oracle():
    g = build_group("u3")
    for lam in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, -1)):
        nu = half_weight(g, np.array(lam, dtype=float) + g.delta)
        assert weyl_dimension(g, nu) == gt_dimension(lam)


def test_weyl_dimension_rejects_nonregular():
    g = build_group("u2")
    with pytest.raises(ValueError):
        weyl_dimension(g, np.array([1.0, 1.0]))


# -- dimension scaling --------------------------------------------------------

def test_scaled_dimension_examples():
    t2 = build_group("t2")
    assert scaled_dimension(t2, half_weight(t2, (3.0, 1.0)), 17) == 1
    su2 = build_group("su2")
    assert scaled_dimension(su2, half_weight(su2, 2.0), 5) == 10
    u2 = build_group("u2")
    assert scaled_dimension(u2, half_weight(u2, (1.5, -1.5)), 4) == 12


def test_scaling_law_exact_catalog_groups():
    cases = [("t1", (1.0,)), ("t2", (2.0, 1.0)), ("su2", (3.0,)), ("u2", (2.5, 0.5))]
    for kind, coords in cases:
        g = build_group(kind)
        nu = half_weight(g, coords)
        d1 = scaled_dimension(g, nu, 1)
        for k in range(1, 65):
            assert scaled_dimension(g, nu, k) == k ** g.n_pos * d1


def test_scaling_law_higher_rank_groups():
    # exercises the rational coroot arithmetic on rank-2 and rank-3 groups
    for kind, lam in (("su3", (1.0, 1.0)), ("u3", (2.0, 1.0, 0.0))):
        g = build_group(kind)
        nu = half_weight(g, np.array(lam) + g.delta)
        d1 = scaled_dimension(g, nu, 1)
        assert d1 == gt_dimension(lam) if kind == "u3" else True
        for k in (2, 3, 5, 8):
            assert scaled_dimension(g, nu, k) == k ** g.n_pos * d1


def test_su_dimensions_match_the_gelfand_tsetlin_count():
    # the SU(n) irrep with Dynkin labels l (its highest weight's Cartan
    # coordinates) is the U(n) irrep of the partition mu_j = l_j + ... +
    # l_{n-1}, and k nu has labels k l + (k - 1) (1, ..., 1)
    def partition(labels):
        return list(np.cumsum(labels[::-1])[::-1]) + [0]

    for kind, cases, ks in (("su3", ((1, 0), (0, 1), (1, 1), (2, 1), (3, 0)), (2, 3)),
                            ("su4", ((1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 1)), (2,))):
        g = build_group(kind)
        for lam in cases:
            lam = np.array(lam)
            nu = half_weight(g, lam + g.delta)
            d = gt_dimension(partition(lam))
            assert weyl_dimension(g, nu) == d
            assert scaled_dimension(g, nu, 1) == d
            for k in ks:
                assert scaled_dimension(g, nu, k) == gt_dimension(partition(k * lam + k - 1))


# -- Weyl character -----------------------------------------------------------

def test_weyl_character_su2_weight_sum():
    g = build_group("su2")
    nu = half_weight(g, 4.0)
    theta = 0.7
    val = weyl_character(g, nu, [theta])
    oracle = su2_character_weight_sum(4, theta)
    frozen = np.sin(4 * theta) / np.sin(theta)  # = 0.5199921653692623
    assert abs(val - oracle) < 1e-12
    assert abs(val - frozen) < 1e-12
    assert abs(frozen - 0.5199921653692623) < 1e-15


def test_weyl_character_u2_weight_sum():
    g = build_group("u2")
    nu = half_weight(g, (3.5, 0.5))    # lambda = (3, 1)
    for theta in ([0.4, -0.9], [1.2, 0.3]):
        val = weyl_character(g, nu, theta)
        oracle = u2_character_weight_sum(3, 1, *theta)
        assert abs(val - oracle) < 1e-11


def test_weyl_character_identity_gives_dimension():
    # exactly: the Jacobi-Trudi matrix is integral at the identity and the
    # fraction-free elimination keeps it so, also with two or more rows
    for kind, coords in (("su2", (5.0,)), ("u2", (2.5, -0.5)), ("su3", (5.0, 3.0))):
        g = build_group(kind)
        nu = half_weight(g, coords)
        d = weyl_dimension(g, nu)
        assert weyl_character(g, nu, np.zeros(g.rank)) == d
    su4 = build_group("su4")
    for labels in itertools.product(range(1, 6), repeat=3):
        assert weyl_character(su4, labels, np.zeros(3)) == weyl_dimension(su4, labels), labels


def test_weyl_character_torus():
    g = build_group("t2")
    nu = half_weight(g, (2.0, -1.0))
    theta = np.array([0.3, 1.1])
    assert abs(weyl_character(g, nu, theta) - np.exp(1j * (nu.coords @ theta))) < 1e-15


def test_weyl_character_wall_extrapolation():
    g = build_group("u2")
    nu = half_weight(g, (3.5, 0.5))
    # theta on the wall theta1 = theta2 (the root (1,-1) vanishes)
    theta = np.array([0.8, 0.8])
    val = weyl_character(g, nu, theta)
    assert abs(val - u2_character_weight_sum(3, 1, 0.8, 0.8)) < 1e-13
    assert abs(val - gt_character((3, 1), theta)) < 1e-13


def _gt_value(g, nu, theta):
    """chi_nu at the Cartan coefficients theta by the Gelfand-Tsetlin sum:
    an SU(n) highest weight's coordinates are its Dynkin labels l, the
    partition mu_j = l_j + ... + l_{n-1}, mu_n = 0."""
    lam = np.rint(half_weight(g, nu).highest_weight).astype(int)
    if g.kind == "su":
        lam = list(np.cumsum(lam[::-1])[::-1]) + [0]
    return gt_character(lam, np.asarray(theta, dtype=float) @ g.cartan_diagonal)


def _on_simple_walls(g, rng):
    """One random Cartan element on the wall of each simple root
    e_j - e_{j+1}: eigen-angles j and j + 1 equal."""
    out = []
    for j in range(g.n - 1):
        angles = rng.uniform(-np.pi, np.pi, g.n)
        angles[j + 1] = angles[j]
        if g.kind == "su":
            angles -= angles.mean()
        out.append(angles @ np.linalg.pinv(g.cartan_diagonal))
    return out


def test_weyl_character_on_walls_is_the_gelfand_tsetlin_sum():
    # elements where one root or several vanish modulo 2 pi: a direction
    # lying in a wall (SU(4) at (0.3, 0.5, 0.7) has eigen-angles 0.2 and
    # 0.2), the identity and the centre written as 2 pi multiples, and a
    # random element on each simple wall
    tau = 2 * np.pi
    cases = [("su4", (2.0, 1.0, 1.0), (0.3, 0.5, 0.7)),
             ("su3", (2.0, 1.0), (tau, 0.0)),
             ("su3", (2.0, 1.0), (tau / 3, 2 * tau / 3)),
             ("su3", (3.0, 2.0), (tau / 3, 2 * tau / 3)),
             ("u3", (2.0, 0.0, -1.0), (tau, 0.0, 0.0)),
             ("su4", (2.0, 1.0, 1.0), (tau, 0.0, 0.0)),
             ("su5", (2.0, 1.0, 1.0, 1.0), (tau, 0.0, 0.0, 0.0))]
    rng = np.random.default_rng(17)
    for kind, coords in (("su3", (3.0, 2.0)), ("u3", (3.0, 1.0, -2.0)),
                         ("su4", (2.0, 2.0, 1.0)), ("su5", (2.0, 1.0, 2.0, 1.0))):
        cases += [(kind, coords, theta) for theta in _on_simple_walls(build_group(kind), rng)]
    for kind, coords, theta in cases:
        g = build_group(kind)
        val = weyl_character(g, coords, np.array(theta))
        assert abs(val - _gt_value(g, coords, theta)) < 1e-12, (kind, coords, theta)
    # the defining representation of SU(4) at (0.3, 0.5, 0.7) is the trace
    val = weyl_character(build_group("su4"), (2.0, 1.0, 1.0), np.array([0.3, 0.5, 0.7]))
    assert abs(val - np.exp(1j * np.array([0.3, 0.2, 0.2, -0.7])).sum()) < 1e-13
    # the centre omega I of SU(3) through the eigen-angle route
    g = build_group("su3")
    omega = np.exp(2j * np.pi / 3)
    assert abs(character_at_element(g, (2.0, 1.0), omega * np.eye(3)) - 3 * omega) < 1e-12
    # a column with no pivot: at diag(1, -1, i) h_2 = h_3 = 0, so the
    # Jacobi-Trudi matrix [[h_3, h_4], [h_2, h_3]] of the U(3) highest
    # weight (3, 3, 0) has a zero first column, and the character is 0
    assert character_at_element(build_group("u3"), (4.0, 3.0, -1.0), np.diag([1, -1, 1j])) == 0


def test_weyl_character_near_walls_is_the_gelfand_tsetlin_sum():
    # elements 0 ... 1e-5 along each root from a wall of SU(2), U(2) and
    # SU(3) (rng 21) and of SU(4) (a fresh rng 21: the element 1e-5 along
    # root (-1, 2, -1) lies 0.07-0.19 from the five other walls), and
    # 40 random simple-wall elements per group moved 1e-12 ... 3e-1 along a
    # random direction (rng 7), SU(5) included, one of whose SU(3) draws
    # lies 1.1e-2 from two walls.  Close to walls, dividing by A_delta or
    # expanding about the nearest walls loses digits (7.3e-10 at the SU(4)
    # element, 4.9e-11 at the SU(3) one for nu = (3, 2), 1.4e-3 on SU(5)
    # nu = (2, 1, 2, 1)); all hold to 1e-12 here
    def check(g, labels, thetas):
        for coords in labels:
            err = np.abs(weyl_character(g, coords, thetas)
                         - [_gt_value(g, coords, theta) for theta in thetas])
            assert err.max() < 1e-12, (g.kind, coords, err.max())

    def along_roots(g, rng):
        along = []
        for beta in g.positive_roots:
            base = rng.uniform(-np.pi, np.pi, size=g.rank)
            on_wall = base - (beta @ base) / (beta @ beta) * beta
            along += [on_wall + eps * beta for eps in (0.0, 1e-12, 1e-9, 1e-7, 1e-5)]
        return np.array(along)

    rng = np.random.default_rng(21)
    for kind, coords in (("su2", (4.0,)), ("u2", (3.5, 0.5)), ("su3", (2.0, 1.0))):
        g = build_group(kind)
        rng.uniform(-np.pi, np.pi, size=(40, g.rank))
        check(g, [coords], along_roots(g, rng))
    g = build_group("su4")
    check(g, [(2.0, 1.0, 1.0)], along_roots(g, np.random.default_rng(21)))
    offsets = np.geomspace(1e-12, 3e-1, 24)
    for kind, labels in (("su2", ((4.0,), (9.0,))), ("u2", ((3.5, 0.5), (6.5, -2.5))),
                         ("su3", ((2.0, 1.0), (3.0, 2.0))),
                         ("u3", ((2.0, 0.0, -1.0), (3.0, 1.0, -2.0))),
                         ("su4", ((2.0, 1.0, 1.0), (2.0, 2.0, 1.0))),
                         ("su5", ((2.0, 1.0, 2.0, 1.0),))):
        g = build_group(kind)
        rng, swept = np.random.default_rng(7), []
        for _ in range(40):
            wall = _on_simple_walls(g, rng)[rng.integers(g.n - 1)]
            u = rng.standard_normal(g.rank)
            swept += list(wall + np.multiply.outer(offsets, u / np.linalg.norm(u)))
        check(g, labels, np.array(swept))
    # 4e-13 off one SU(3) wall and 5e-3 off the other two
    g = build_group("su3")
    theta = np.array([0.4, 0.4 - 5e-3, 0.4 - 5e-3 + 4e-13])
    theta = (theta - theta.mean()) @ np.linalg.pinv(g.cartan_diagonal)
    assert abs(weyl_character(g, (3.0, 2.0), theta) - _gt_value(g, (3.0, 2.0), theta)) < 1e-12


def test_weyl_character_invariance():
    rng = np.random.default_rng(0)
    for kind, coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        nu = half_weight(g, coords)
        for _ in range(10):
            theta = rng.uniform(-2, 2, size=g.rank)
            base = weyl_character(g, nu, theta)
            for _, mat in weyl_matrices(g):
                assert abs(weyl_character(g, nu, mat @ theta) - base) < 1e-10


def test_weyl_integration_formula():
    # int_G f dHaar = (1/|W|) int_T f(t) |A_delta(t)|^2 dHaar_T for class
    # functions, |A_delta|^2 the Vandermonde product prod_{j<k} |x_j - x_k|^2
    # of the eigenvalues x = e^{i theta D}: checked for f = chi_a conj(chi_b)
    # against Schur orthogonality, which also cross-validates the
    # Euler-angle Haar grids
    for kind, labels in (("su2", ((2.0,), (5.0,))),
                         ("u2", ((1.5, 0.5), (2.5, -0.5)))):
        g = build_group(kind)
        nus = [half_weight(g, c) for c in labels]
        # left side: Euler-angle Haar quadrature on G
        nodes, weights = haar_quadrature(g, 16 if kind == "su2" else 12)
        # right side: torus grid against |A_delta|^2 / |W|
        m = 64
        grid = 2 * np.pi * np.arange(m) / m
        axes = np.meshgrid(*([grid] * g.rank), indexing="ij")
        thetas = np.stack([ax.ravel() for ax in axes], axis=-1)
        x = np.exp(1j * (thetas @ g.cartan_diagonal))
        disc = np.prod([abs(x[:, j] - x[:, k]) ** 2
                        for j in range(g.n) for k in range(j + 1, g.n)], axis=0)
        for i, a in enumerate(nus):
            for j, b in enumerate(nus):
                lhs = np.sum(weights * character_at_element(g, a, nodes)
                             * np.conj(character_at_element(g, b, nodes)))
                rhs = np.sum(disc * weyl_character(g, a, thetas)
                             * np.conj(weyl_character(g, b, thetas)))
                rhs /= g.weyl_order * len(thetas)
                target = 1.0 if i == j else 0.0
                assert abs(lhs - target) < 1e-9
                assert abs(rhs - target) < 1e-9


def test_weyl_character_stack_matches_per_element():
    # one call on a stack gives what one call per element gives, for
    # random, near-wall, on-wall and identity elements
    rng = np.random.default_rng(21)
    for kind, coords in (("su2", (4.0,)), ("u2", (3.5, 0.5)), ("su3", (2.0, 1.0)),
                         ("t2", (2.0, 1.0))):
        g = build_group(kind)
        nu = half_weight(g, coords)
        random = rng.uniform(-np.pi, np.pi, size=(40, g.rank))
        walls = [np.zeros(g.rank)]
        for beta in g.positive_roots:
            base = rng.uniform(-np.pi, np.pi, size=g.rank)
            on_wall = base - (beta @ base) / (beta @ beta) * beta     # <beta, theta> = 0
            walls += [on_wall + eps * beta for eps in (0.0, 1e-12, 1e-9, 1e-7, 1e-5)]
        thetas = np.concatenate([random, np.array(walls)])
        stacked = weyl_character(g, nu, thetas)
        single = np.array([weyl_character(g, nu, th) for th in thetas])
        assert stacked.shape == (len(thetas),)
        np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=1e-13, err_msg=kind)


def test_character_at_element_is_the_trace_of_the_defining_rep():
    # chi of the defining representation (highest weight (1, 0, ..., 0))
    # is tr U: on 100 Haar draws per group, and on an SU(3) element whose
    # eigen-angles (2.6, 2.4, -5.0 + 2 pi after np.angle) sum to 2 pi
    rng = np.random.default_rng(0)
    for kind, coords in (("su3", (2.0, 1.0)), ("su4", (2.0, 1.0, 1.0)),
                         ("u3", (2.0, 0.0, -1.0))):
        g = build_group(kind)
        assert weyl_dimension(g, coords) == g.n
        us = np.array([random_unitary(g.n, rng, special=g.kind == "su")
                       for _ in range(100)])
        np.testing.assert_allclose(character_at_element(g, coords, us),
                                   np.trace(us, axis1=1, axis2=2), rtol=0, atol=1e-12,
                                   err_msg=kind)
    wrapped = np.diag(np.exp(1j * np.array([2.6, 2.4, -5.0])))
    value = character_at_element(build_group("su3"), (2.0, 1.0), wrapped)
    assert abs(value - np.trace(wrapped)) < 1e-12


def _euler_stacks(kind, rng, n=200):
    """Euler-angle rows (alpha, beta, gamma[, tau]): uniform draws, then
    draws within 1e-9..1e-3 of I and of -I (alpha + gamma near 0 or 2 pi)."""
    alpha = rng.uniform(0, 2 * np.pi, n)
    delta = 10.0 ** rng.uniform(-9, -3, n)
    u, v, w = rng.uniform(-1, 1, (3, n))
    stacks = [np.stack([alpha, rng.uniform(0, np.pi, n), rng.uniform(0, 4 * np.pi, n),
                        rng.uniform(0, np.pi, n)], axis=1)]
    for center in (0.0, 2 * np.pi):
        stacks.append(np.stack([alpha, delta * np.abs(u), center - alpha + delta * v,
                                delta * w], axis=1))
    return [p if kind == "u2" else p[:, :3] for p in stacks]


@pytest.mark.parametrize("kind", ["su2", "u2"])
def test_character_at_element_matches_the_eigen_angle_and_sine_routes(kind):
    # e2^l2 h_m from trace and determinant against the eigen-angle
    # homogeneous sum (Haar nodes and Euler stacks) and against
    # sin((m+1) theta) / sin(theta) from the Euler angles, up to m = 2048,
    # within 1e-10 (m + 1)
    g = build_group(kind)
    haar, _ = haar_quadrature(g, 8)
    stacks = [(p, euler_product(p)) for p in _euler_stacks(kind, np.random.default_rng(19))]
    for m in (0, 1, 2, 7, 64, 513, 2048):
        for l2 in ((0,) if kind == "su2" else (-3, 2)):
            l1 = m + l2
            nu = (l1 + 1.0,) if kind == "su2" else (l1 + 0.5, l2 - 0.5)
            bound = 1e-10 * (m + 1)
            err = np.abs(character_at_element(g, nu, haar)
                         - u2_character_eigen_angles(l1, l2, haar)).max()
            assert err <= bound, (m, l2, err)
            for params, els in stacks:
                value = character_at_element(g, nu, els)
                for ref in (u2_character_eigen_angles(l1, l2, els),
                            u2_character_from_euler(l1, l2, params)):
                    err = np.abs(value - ref).max()
                    assert err <= bound, (m, l2, err)


def test_two_by_two_characters_solve_no_eigenproblem(monkeypatch):
    # the n = 2 route reads trace and determinant only: eigvals raises on
    # a 2 x 2 input, and SU(3) still calls it once, for the eigenvalues it
    # hands to the Jacobi-Trudi determinant
    real_eigvals = np.linalg.eigvals
    shapes = []

    def eigvals(a):
        shapes.append(np.shape(a)[-2:])
        if np.shape(a)[-1] == 2:
            raise AssertionError("eigvals called on a 2 x 2 element")
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    for kind, coords, dim in (("su2", (3.0,), 3), ("u2", (2.5, 0.5), 2)):
        g = build_group(kind)
        val = peter_weyl_projector_weight(
            g, coords, 1, lambda t: character_at_element(g, coords, t), level=10)
        assert abs(val - dim) < 1e-7, kind
    assert shapes == []
    u = random_unitary(3, np.random.default_rng(5), special=True)
    assert abs(character_at_element(build_group("su3"), (2.0, 1.0), u) - np.trace(u)) < 1e-12
    assert shapes == [(3, 3)]


# -- exp-map Jacobian ---------------------------------------------------------

def test_exp_jacobian_basics():
    su2 = build_group("su2")
    assert exp_jacobian(su2, [0.0]) == 1.0
    assert exp_jacobian(build_group("t3"), [1.0, 2.0, 3.0]) == 1.0
    theta = 0.8
    assert np.isclose(exp_jacobian(su2, [theta]), np.sin(theta) / theta, rtol=1e-14)
    with pytest.raises(ValueError):
        exp_jacobian(su2, [3.2])     # eigen-angle gap 6.4 > 2 pi


def test_exp_jacobian_finite_difference_oracle():
    rng = np.random.default_rng(1)
    # P is evaluated on Cartan coefficients (the kirillov_character path);
    # the oracle differentiates exp on the whole algebra around that xi
    for kind in ("su2", "u2"):
        g = build_group(kind)
        for _ in range(3):
            xi = 0.4 * rng.standard_normal(g.rank)
            p = exp_jacobian(g, xi)
            fd = finite_difference_exp_jacobian(g.basis_matrices,
                                                np.pad(xi, (0, g.dim - g.rank)))
            assert abs(p ** 2 - fd) < 1e-6 * max(1.0, fd)


# -- orbit quadrature ---------------------------------------------------------

def test_orbit_quadrature_torus_point():
    g = build_group("t2")
    m = trace_metric(g)
    q = orbit_quadrature(g, m, half_weight(g, (2.0, 1.0)))
    assert q.node_count == 1 and q.ring == 1
    assert np.isclose(q.volume, 1.0)


def test_orbit_volume_paper_values():
    su2 = build_group("su2")
    m = trace_metric(su2)
    q = orbit_quadrature(su2, m, half_weight(su2, 2.0), level=48)
    assert np.isclose(q.volume, 4 * np.pi, rtol=1e-12)       # 2 pi nu
    u2 = build_group("u2")
    m2 = trace_metric(u2)
    q2 = orbit_quadrature(u2, m2, half_weight(u2, (1.5, -1.5)), level=48)
    assert np.isclose(q2.volume, 6 * np.pi, rtol=1e-12)      # 2 pi (nu1 - nu2)
    assert np.isclose(orbit_volume(u2, (1.5, -1.5)), 6 * np.pi, rtol=1e-14)


def test_orbit_volume_is_dimension_times_2pi_power():
    # vol(O_nu) = (2 pi)^{n_pos} d_nu in closed form, also where the
    # trace-form Cartan block is not diagonal (SU(n), n >= 3)
    for kind, lam in (("su2", (3,)), ("su3", (2, 1)), ("su4", (1, 0, 2)),
                      ("u3", (3, 1, -1)), ("t2", (2, -1))):
        g = build_group(kind)
        nu = half_weight(g, g.delta + np.array(lam, dtype=float))
        assert np.isclose(orbit_volume(g, nu),
                          (2 * np.pi) ** g.n_pos * weyl_dimension(g, nu), rtol=1e-13)


def test_orbit_nodes_isometric():
    for kind, coords in (("su2", (3.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        lam = orbit_rule_nodes(g, m, nu.coords, 24)
        assert len(lam) == orbit_quadrature(g, m, nu, level=24).node_count
        norms = np.sqrt(m.scale * np.einsum("nij,nij->n", lam, lam.conj()).real)
        assert np.allclose(norms, m.norm_covector(nu.coords), atol=1e-12)


def test_orbit_volume_matches_dimension():
    # vol(O_nu) = (2 pi)^{n_pos} d_nu, checked through the quadrature
    for kind, coords in (("su2", (5.0,)), ("u2", (3.5, 0.5))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        d = weyl_dimension(g, nu)
        q = orbit_quadrature(g, m, nu, level=64)
        assert np.isclose(q.volume, (2 * np.pi) ** g.n_pos * d, rtol=1e-9)


def test_orbit_quadrature_refuses_su3_and_u3():
    # SU(n)/U(n) with n >= 3 have no deterministic orbit rule, as they
    # have no Haar rule: both refuse, and so does the orbit character
    for kind in ("su3", "u3"):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, g.delta + np.eye(g.rank)[0])
        with pytest.raises(UnsupportedGroupError, match=re.escape(g.name)):
            orbit_quadrature(g, m, nu)
        with pytest.raises(UnsupportedGroupError):
            haar_quadrature(g)
        with pytest.raises(UnsupportedGroupError):
            kirillov_character(g, m, nu, 0.2 * np.ones(g.rank))


# -- Kirillov character -------------------------------------------------------

def test_kirillov_dimension_at_zero():
    for kind, coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        d = weyl_dimension(g, nu)
        val = kirillov_character(g, m, nu, np.zeros(g.rank))
        assert round(val.real) == d and abs(val - d) < 1e-9


def test_kirillov_torus():
    g = build_group("t2")
    m = trace_metric(g)
    nu = half_weight(g, (3.0, 1.0))
    xi = np.array([0.4, -1.3])
    assert abs(kirillov_character(g, m, nu, xi) - np.exp(1j * (nu.coords @ xi))) < 1e-14


def test_kirillov_su2_weight_sum_oracle():
    g = build_group("su2")
    m = trace_metric(g)
    nu = half_weight(g, 4.0)
    val = kirillov_character(g, m, nu, np.array([0.5]))
    assert abs(val - su2_character_weight_sum(4, 0.5)) < 1e-6


def test_kirillov_weyl_consistency_50_samples():
    rng = np.random.default_rng(7)
    for kind, coords in (("su2", (3.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        d = weyl_dimension(g, nu)
        quad = orbit_quadrature(g, m, nu, level=64)
        gram_t = m.gram[:g.rank, :g.rank]
        for _ in range(50):
            xi = rng.uniform(-1, 1, size=g.rank)
            xi /= max(1.0, np.sqrt(xi @ gram_t @ xi))
            kir = kirillov_character(g, m, nu, xi, quad=quad)
            wey = weyl_character(g, nu, xi)
            assert abs(kir - wey) <= 1e-6 * d


def test_kirillov_k_rescaled():
    g = build_group("su2")
    m = trace_metric(g)
    # the value at k = 7 on O_2 is the value on O_(7 * 2)
    nu = half_weight(g, 14.0)
    val = kirillov_character(g, m, nu, np.array([0.23]))
    assert abs(val - su2_character_weight_sum(14, 0.23)) < 1e-8


def _cartan_samples(g, m, rng, count):
    # regular Cartan elements of phi-norm at most 1, inside exp's
    # injectivity domain, and xi = 0
    gram_t = m.gram[:g.rank, :g.rank]
    xis = [np.zeros(g.rank)]
    for _ in range(count):
        xi = rng.uniform(-1, 1, size=g.rank)
        xis.append(xi / max(1.0, np.sqrt(xi @ gram_t @ xi)))
    return xis


_SPHERE_ORBITS = (("su2", (4.0,)), ("u2", (2.5, 0.5)))


def test_orbit_pairing_is_constant_on_each_ring():
    # the sphere rule is polar-major: each run of 2 level nodes is an
    # azimuth ring, an orbit of the maximal torus, and the pairing with a
    # Cartan element has the same bits at every node of it
    rng = np.random.default_rng(41)
    for kind, coords in _SPHERE_ORBITS:
        g = build_group(kind)
        m = trace_metric(g)
        q = orbit_quadrature(g, m, half_weight(g, coords), level=64)
        assert q.ring == 128 and q.node_count == 64 * q.ring
        every_node = OrbitQuadrature(q.group, q.metric, orbit_rule_nodes(g, m, coords, 64),
                                     q.weights, q.scheme, 1)
        for xi in _cartan_samples(g, m, rng, 10):
            rings = every_node.pairing(xi).reshape(64, q.ring)
            assert np.array_equal(rings, np.repeat(rings[:, :1], q.ring, axis=1)), kind
            assert np.array_equal(q.pairing(xi), rings[:, 0]), kind


def test_kirillov_character_is_the_full_node_sum_to_rounding():
    # the character weights each ring's phase by its ring's weight sum;
    # the oracle sums one term per node.  The per-node terms agree (the
    # pairing is constant on a ring), so the two differ by rounding alone:
    # pairwise summation of node_count terms of total size vol(O_nu) =
    # (2 pi)^{n_pos} d_nu errs by at most about log2(node_count) eps vol,
    # the ring weight sums and the product by a few eps more, and the
    # division by (2 pi)^{n_pos} P(xi) carries that to
    # (log2(node_count) + 2) eps d_nu / |P(xi)|.  The largest difference
    # measured over these 153 xi is 3.3e-16 d_nu
    rng = np.random.default_rng(43)
    for kind, coords in (*_SPHERE_ORBITS, ("t2", (2.0, 1.0))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        q = orbit_quadrature(g, m, nu, level=64)
        d_nu = weyl_dimension(g, nu)
        bound = (np.log2(q.node_count) + 2) * np.finfo(float).eps * d_nu
        for xi in _cartan_samples(g, m, rng, 50):
            diff = abs(kirillov_character(g, m, nu, xi, quad=q) - kirillov_full_node(q, nu.coords, xi))
            assert diff <= bound / abs(exp_jacobian(g, xi)), (kind, xi, diff / d_nu)


def _stack_with_edges(g, m, rng, count):
    # _cartan_samples (xi = 0 first) and, on groups with roots, an xi whose
    # largest root angle is just inside exp's injectivity domain
    xis = _cartan_samples(g, m, rng, count)
    if len(g.positive_roots):
        edge = rng.uniform(-1, 1, size=g.rank)
        xis.append(edge * (1 - 1e-9) * 2 * np.pi / np.max(np.abs(g.positive_roots @ edge)))
    return np.array(xis)


def test_stacked_kirillov_rows_are_the_one_xi_calls_bit_for_bit():
    # a stack is one pass over the (N, rings) phases; each row has the
    # bits of the same xi evaluated alone, and so does the Jacobian
    rng = np.random.default_rng(47)
    for kind, coords in (*_SPHERE_ORBITS, ("t2", (2.0, 1.0))):
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        q = orbit_quadrature(g, m, nu, level=64)
        xis = _stack_with_edges(g, m, rng, 20)
        stacked = kirillov_character(g, m, nu, xis, quad=q)
        assert stacked.shape == (len(xis),), kind
        assert np.array_equal(stacked, [kirillov_character(g, m, nu, xi, quad=q) for xi in xis]), kind
        assert np.array_equal(exp_jacobian(g, xis), [exp_jacobian(g, xi) for xi in xis]), kind
        assert abs(stacked[0] - weyl_dimension(g, nu)) < 1e-12, kind


def test_one_out_of_domain_xi_refuses_the_whole_stack():
    rng = np.random.default_rng(53)
    for kind, coords in _SPHERE_ORBITS:
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        xis = _stack_with_edges(g, m, rng, 5)
        outside = xis.copy()
        outside[2] = xis[-1] * (1 + 1e-6) / (1 - 1e-9)
        with pytest.raises(ValueError, match="injectivity domain"):
            kirillov_character(g, m, nu, outside)
        with pytest.raises(ValueError, match="injectivity domain"):
            exp_jacobian(g, outside)
        assert np.all(np.isfinite(kirillov_character(g, m, nu, xis)))


def test_a_stacked_kirillov_call_holds_no_per_node_array():
    # 51 xi on the 64 x 128 rule: (51, 64) phases; one value per node would
    # be 51 x 8192 complex values, about 6.7 MB
    for kind, coords in _SPHERE_ORBITS:
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        q = orbit_quadrature(g, m, nu, level=64)
        xis = _stack_with_edges(g, m, np.random.default_rng(59), 49)
        assert len(xis) == 51
        kirillov_character(g, m, nu, xis, quad=q)
        tracemalloc.start()
        try:
            kirillov_character(g, m, nu, xis, quad=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (kind, peak)


def test_kirillov_character_takes_one_exponential_per_ring(monkeypatch):
    # one complex exponential per azimuth ring: 64 for the 64 x 128 rule,
    # where one per node took 8192
    sizes = []

    def counted_exp(z, *args, **kwargs):
        sizes.append(np.size(z))
        return np.exp(z, *args, **kwargs)

    monkeypatch.setattr(characters, "np", SimpleNamespace(**{**vars(np), "exp": counted_exp}))
    for kind, coords in _SPHERE_ORBITS:
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        q = orbit_quadrature(g, m, nu, level=64)
        sizes.clear()
        val = kirillov_character(g, m, nu, 0.3 * np.ones(g.rank), quad=q)
        assert sum(sizes) <= 64, (kind, sizes)
        assert abs(val - weyl_character(g, nu, 0.3 * np.ones(g.rank))) <= 1e-6 * weyl_dimension(g, nu)
        # a stack takes at most 64 per xi
        xis = np.linspace(-0.4, 0.4, 9 * g.rank).reshape(9, g.rank)
        sizes.clear()
        vals = kirillov_character(g, m, nu, xis, quad=q)
        assert sum(sizes) <= 64 * len(xis), (kind, sizes)
        assert np.max(np.abs(vals - weyl_character(g, nu, xis))) <= 1e-6 * weyl_dimension(g, nu)


def test_ring_nodes_are_the_first_node_of_each_ring_bit_for_bit():
    # the rule keeps one lambda^phi per ring; the oracle's rule, built on
    # every azimuth from the rule's definition, starts each ring with
    # exactly that node and has one node per weight
    for kind, coords in (*_SPHERE_ORBITS, ("t2", (2.0, 1.0))):
        g = build_group(kind)
        for scale in (1.0, 2.7):
            m = trace_metric(g, scale)
            q = orbit_quadrature(g, m, half_weight(g, coords), level=64)
            nodes = orbit_rule_nodes(g, m, coords, 64)
            assert len(nodes) == q.node_count == len(q.ring_nodes) * q.ring
            assert np.array_equal(nodes[::q.ring], q.ring_nodes), (kind, scale)


def test_kirillov_character_refuses_a_non_cartan_xi(monkeypatch):
    # a full algebra vector would pair with every node and then fail in
    # the Jacobian; it is refused before any quadrature is built
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a quadrature was built")

    monkeypatch.setattr(characters, "orbit_quadrature", no_quadrature)
    for kind, coords in _SPHERE_ORBITS:
        g = build_group(kind)
        m = trace_metric(g)
        nu = half_weight(g, coords)
        for xi in (np.full(g.dim, 0.1), np.full((5, g.dim), 0.1), np.full((2, 3, g.rank), 0.1)):
            with pytest.raises(ValueError, match=f"the {g.rank} Cartan coefficients"):
                kirillov_character(g, m, nu, xi)


# -- Peter-Weyl projector pairing ----------------------------------------------

def test_projector_pairing_orthonormality():
    g = build_group("su2")
    nu = half_weight(g, 3.0)
    val = peter_weyl_projector_weight(
        g, nu, 1, lambda t: character_at_element(g, nu, t), level=14)
    assert abs(val - 3.0) < 1e-8
    # chi_{k' nu} with k' != k integrates to zero
    nu2 = half_weight(g, 6.0)
    val = peter_weyl_projector_weight(
        g, nu, 1, lambda t: character_at_element(g, nu2, t), level=14)
    assert abs(val) < 1e-8
    # orthogonality to the trivial character
    val = peter_weyl_projector_weight(g, nu, 1, lambda t: 1.0, level=14)
    assert abs(val) < 1e-8


def test_projector_pairing_u2():
    g = build_group("u2")
    nu = half_weight(g, (2.5, 0.5))
    val = peter_weyl_projector_weight(
        g, nu, 1, lambda t: character_at_element(g, nu, t), level=10)
    assert abs(val - 2.0) < 1e-7


def test_projector_pairing_conjugation_invariance():
    rng = np.random.default_rng(11)
    g = build_group("su2")
    nu = half_weight(g, 2.0)
    h = random_unitary(2, rng, special=True)

    def f(t):
        trace = np.trace(t, axis1=-2, axis2=-1)
        return np.exp(1j * trace.real) * abs(trace) ** 2

    base = peter_weyl_projector_weight(g, nu, 1, f, level=16)
    conj = peter_weyl_projector_weight(
        g, nu, 1, lambda t: f(h @ t @ h.conj().T), level=16)
    assert abs(base - conj) < 1e-6 * max(1.0, abs(base))


def test_stacked_projector_rows_are_the_one_function_calls_bit_for_bit():
    # f returning (2, N) pairs both functions with one node stack per level
    rng = np.random.default_rng(61)
    for kind, coords, level in (("su2", 2.0, 12), ("u2", (2.5, 0.5), 8), ("t2", (2.0, 1.0), 12)):
        g = build_group(kind)
        nu = half_weight(g, coords)
        h = random_unitary(2, rng, special=True)
        if g.kind == "torus":
            fs = (lambda t: np.exp(1j * t[:, 0]) + np.cos(t[:, 1]), lambda t: np.exp(-2j * t[:, 1]))
        else:
            fs = (lambda t: np.abs(t[:, 0, 0] + t[:, 1, 1]) ** 2,
                  lambda t: np.exp(1j * (h @ t @ h.conj().T)[:, 0, 0].real))
        both = peter_weyl_projector_weight(g, nu, 1, lambda t: np.stack([f(t) for f in fs]),
                                           level=level)
        assert both.shape == (2,), kind
        assert np.array_equal(both, [peter_weyl_projector_weight(g, nu, 1, f, level=level)
                                     for f in fs]), kind


def test_projector_pairing_checks_every_row_of_a_stack():
    # a stacked pairing converges only if each row does
    g = build_group("t1")
    nu = half_weight(g, 1.0)
    with pytest.raises(QuadratureDisagreement):
        peter_weyl_projector_weight(g, nu, 1, lambda th: np.stack(
            [np.exp(-1j * th[:, 0]), np.exp(-23j * th[:, 0])]), level=24)


def test_projector_pairing_rejects_per_element_f():
    # f is called on the whole node stack; a function written for one
    # element would trace the wrong axes, so the pairing refuses it
    g = build_group("su2")
    nu = half_weight(g, 2.0)
    with pytest.raises(ValueError) as err:
        peter_weyl_projector_weight(g, nu, 1, lambda t: np.trace(t), level=8)
    assert "stack" in str(err.value)
    for shape in (lambda t: (len(t), 1), lambda t: (len(t), 2)):
        with pytest.raises(ValueError):
            peter_weyl_projector_weight(g, nu, 1, lambda t: np.ones(shape(t)), level=8)
    torus = build_group("t1")
    with pytest.raises(ValueError):
        peter_weyl_projector_weight(torus, half_weight(torus, 1.0), 1,
                                    lambda th: np.exp(-1j * th[0]), level=8)


def test_projector_pairing_nonconvergence_raises():
    g = build_group("t1")
    nu = half_weight(g, 1.0)
    # a pure mode above the coarse grid size aliases: refinement disagrees
    with pytest.raises(QuadratureDisagreement) as err:
        peter_weyl_projector_weight(
            g, nu, 1, lambda th: np.exp(-23j * th[:, 0]), level=24)
    assert "vs" in str(err.value)


def test_haar_quadrature_weights_normalized():
    for kind, lvl in (("t2", 16), ("su2", 10), ("u2", 8)):
        g = build_group(kind)
        _, w = haar_quadrature(g, lvl)
        assert np.isclose(w.sum(), 1.0, rtol=1e-12)


def test_kk_density_constant_on_orbit():
    # the Kostant-Kirillov density is G-invariant, so it is the same at
    # every orbit node whichever generator pair each node selects
    from coorbit.characters import _kk_density

    for kind, coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        for scale in (1.0, 2.7):
            m = trace_metric(g, scale)
            q = orbit_quadrature(g, m, half_weight(g, coords), level=64)
            dens = _kk_density(m, orbit_rule_nodes(g, m, coords, 64))
            assert dens.shape == (q.node_count,)
            assert np.ptp(dens) <= 1e-12 * dens.mean(), (kind, scale)


def test_orbit_quadrature_weights_are_area_times_per_node_density():
    # the quadrature reads the density at one node; the reference reads it
    # at every node and takes the area weights from Gauss-Legendre x uniform
    from numpy.polynomial.legendre import leggauss

    from coorbit.characters import _kk_density

    level = 16
    _, ws = leggauss(level)
    for kind, coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        g = build_group(kind)
        for scale in (1.0, 2.7):
            m = trace_metric(g, scale)
            q = orbit_quadrature(g, m, half_weight(g, coords), level=level)
            nodes = orbit_rule_nodes(g, m, coords, level)
            center = np.trace(nodes[0]) / 2 * np.eye(2)
            radius2 = m.inner_matrices(nodes[0] - center, nodes[0] - center)
            area = np.repeat(ws, 2 * level) * (np.pi / level) * radius2
            ref = area * _kk_density(m, nodes)
            np.testing.assert_allclose(q.weights, ref, rtol=1e-12, atol=0)


def test_character_at_element_on_stack():
    rng = np.random.default_rng(13)
    for kind, coords in (("su2", (4.0,)), ("u2", (3.5, 0.5)), ("t2", (2.0, 1.0))):
        g = build_group(kind)
        nodes, _ = haar_quadrature(g, 6)
        if g.kind != "torus":
            extra = [random_unitary(2, rng, special=kind == "su2") for _ in range(5)]
            nodes = np.concatenate([nodes, extra])
        stacked = character_at_element(g, coords, nodes)
        single = [character_at_element(g, coords, el) for el in nodes]
        assert stacked.shape == (len(nodes),)
        assert np.isscalar(single[0])
        assert np.allclose(stacked, single, rtol=1e-13, atol=1e-13), kind
