"""PSD tolerance shared by the positivity tests."""

# A matrix passes the PSD test when min eig >= -PSD_TOL * max(1, scale).
PSD_TOL = 1e-10
