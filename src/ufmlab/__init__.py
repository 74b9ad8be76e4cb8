"""Numerical laboratory for the unconstrained feature model under
cross-entropy and label-smoothing losses."""

__version__ = "0.1.0"
