"""Numerical laboratory for Laplacians of flat unitary bundles on
square-tiled surfaces: discretization, spectral convergence, piecewise
linear transfer operators, discrete potential theory, and forest-sum
determinant identities."""

__version__ = "0.1.0"
