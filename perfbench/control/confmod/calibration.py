"""Frozen reference values for the lattice ladders.

Produced by a one-time run of the size ladder on the half circle with the
default test family (deterministic: the family and the lattice carry no
randomness), double precision, numpy backend:

    interval = half circle, endpoints on sites
    t = 0.25, flow-comparison window = 1e-3, lattice clip angle = 1e-7
    sizes L in {64, 128, 256}

Suites compare fresh runs against these ceilings with the slack factor
below.  The duality and reflection angles are recorded for regression even
though they do not decrease on sharp site lattices (their worst principal
angles are pinned to boundary site pairs; see the chiral module notes).
"""

SLACK = 1.2

BW_CEILINGS = {64: 0.5799059096219454, 128: 0.4744817327449268,
               256: 0.3647821774145955}

Z_RESIDUALS = {64: 0.675946771925708, 128: 0.6523885157892492,
               256: 0.37308628947639716}

DUALITY_ANGLES = {64: 0.7591292422188732, 128: 0.8400307787955423,
                  256: 0.9065360877169156}

PCT_ANGLES = {64: 1.4853999971194594, 128: 1.5147594530203712,
              256: 1.5334112773399649}
