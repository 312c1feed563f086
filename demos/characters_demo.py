#!/usr/bin/env python3
"""Walk through the character-theory layer.

Builds the supported groups, prints their root data, and compares the
two independent character evaluations (Weyl's character as the
Jacobi-Trudi determinant of the eigenvalues vs the Fourier integral over
the coadjoint orbit) on a handful of regular torus elements.
"""

import numpy as np

from coorbit import (
    build_group,
    group_volumes,
    half_weight,
    kirillov_character,
    orbit_quadrature,
    orbit_volume,
    scaled_dimension,
    trace_metric,
    weyl_character,
    weyl_dimension,
)


def section(title):
    print("\n" + title)
    print("-" * len(title))


def main():
    section("Root data and volumes")
    for kind in ("t2", "su2", "u2", "su3"):
        g = build_group(kind)
        vol_g, vol_t = group_volumes(trace_metric(g))
        print(f"{g.name:6s} dim={g.dim:2d} rank={g.rank} |W|={g.weyl_order}"
              f"  vol(G)={vol_g:10.4f}  vol(T)={vol_t:8.4f}")

    section("Weyl dimensions and the exact scaling law")
    su2 = build_group("su2")
    u2 = build_group("u2")
    m_su2, m_u2 = trace_metric(su2), trace_metric(u2)
    for nu_val in (1.0, 3.0, 6.0):
        nu = half_weight(su2, nu_val)
        print(f"SU(2) nu={nu_val:.0f}: d_nu={weyl_dimension(su2, nu)}"
              f"  d_(8 nu)={scaled_dimension(su2, nu, 8)}")
    nu = half_weight(u2, (2.5, 0.5))
    print(f"U(2) nu=(5/2,1/2): d_nu={weyl_dimension(u2, nu)}"
          f"  d_(5 nu)={scaled_dimension(u2, nu, 5)}")

    section("Orbit volumes vs (2 pi)^n d_nu")
    for g, m, coords in ((su2, m_su2, (4.0,)), (u2, m_u2, (2.5, 0.5))):
        nu = half_weight(g, coords)
        quad = orbit_quadrature(g, m, nu)
        closed = orbit_volume(g, nu.coords)
        d = weyl_dimension(g, nu)
        print(f"{g.name}: quadrature={quad.volume:.10f}  closed={closed:.10f}"
              f"  (2 pi)^n d_nu={(2 * np.pi) ** g.n_pos * d:.10f}")

    section("Kirillov orbit integral vs Weyl character (Jacobi-Trudi)")
    rng = np.random.default_rng(0)
    for g, m, coords in ((su2, m_su2, (4.0,)), (u2, m_u2, (2.5, 0.5))):
        nu = half_weight(g, coords)
        quad = orbit_quadrature(g, m, nu)
        worst = 0.0
        for _ in range(20):
            xi = rng.uniform(-0.8, 0.8, g.rank)
            worst = max(worst, abs(kirillov_character(g, m, nu, xi, quad=quad)
                                   - weyl_character(g, nu, xi)))
        print(f"{g.name}: max |orbit integral - character| over 20 samples: {worst:.2e}")


if __name__ == "__main__":
    main()
