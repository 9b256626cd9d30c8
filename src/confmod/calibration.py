"""Frozen reference values for the lattice ladders.

Produced by a one-time run of the size ladder on the half circle with the
default test family (deterministic: the family and the lattice carry no
randomness), double precision, numpy backend:

    interval = half circle, endpoints on sites
    t = 0.25, flow-comparison window = 1e-3, lattice clip angle = 1e-7
    sizes L in {64, 128, 256}

Suites compare fresh runs against these ceilings with the slack factor
below.  The duality angles are recorded for regression even though they do
not decrease on sharp site lattices (their worst principal angles are
pinned to boundary site pairs; see the chiral module notes).

PCT_DEFECTS are chiral.pct_geometry_defect(build_model(L), half_circle(),
CircleInterval(pi + 0.7, pi + 1.5)) for L in {64, 128, 256}:

    family = default_test_family of the probe (three bumps at 0.4, 0.5,
             0.6 of the probe arc, widths arc/8, arc/6, arc/10)
    window = 1e-3: the family is projected onto the modular planes of the
             half circle with principal angle above the window (planes
             below the lattice clip angle 1e-7 never enter) and each column
             is normalised to one
    value  = max over the family of || (J + Theta_r) w ||, J the modular
             conjugation of the half circle, Theta_r the weight-0
             pull-back by the reflection theta -> -theta, evaluated by
             retained-mode interpolation; the sign is J ~ -Theta_r

They agree to within 1e-10 between 1 and 2 BLAS threads and under
orthogonal mixing of the interval generators.
"""

SLACK = 1.2

BW_CEILINGS = {64: 0.5799059096219454, 128: 0.4744817327449268,
               256: 0.3647821774145955}

DUALITY_ANGLES = {64: 0.7591292422188732, 128: 0.8400307787955423,
                  256: 0.9065360877169156}

PCT_DEFECTS = {64: 0.583521910036984, 128: 0.502960360810636,
               256: 0.39456377836089546}
