"""Shock-model copulas with imprecise marginals.

Builds the copulas of two-component shock models, where each component
fails at the earlier (or later) of an idiosyncratic and a common shock,
from the shock onset distributions; admits interval uncertainty about the
idiosyncratic laws as p-boxes and propagates it to generator envelopes,
an imprecise copula, and bivariate distribution bounds, verifying every
structural property of the construction along the way.
"""
