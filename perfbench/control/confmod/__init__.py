"""Conformal group geometry, canonical region flows, and numerical
Tomita calculus on standard subspaces, with a lattice chiral field."""

__version__ = "0.1.0"

from . import chiral, confgroup, flows, geometry, modular  # noqa: F401
