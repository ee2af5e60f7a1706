"""hornsing: exact singular-variety computations for double hypergeometric series.

The package computes Horn-type singular curves of bivariate hypergeometric
series, expands and restricts the series themselves, guesses and verifies
annihilating differential operators (including log-solution bases of theta
operator systems and exterior/symmetric square orders), and carries an exact
catalog of anisotropic Ising susceptibility singularities with elliptic-curve
bookkeeping.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"
