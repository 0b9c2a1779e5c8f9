"""Exact-arithmetic rank-one Cartan-free modules over Nappi-Witten type algebras.

Subpackages, bottom up: exactpoly (rationals, sparse polynomials, shifts),
liealg (structure constants of the four algebras), modfam (module families
as action evaluators), verify (module-axiom checker), classify (inverse
problem, twists, isomorphism), irreducible (verdicts, certificates,
witnesses, brute-force oracle), specdsl (text formats and the CLI).
Every error class for bad input derives from InputError, defined here.
"""

__version__ = "0.1.0"


class InputError(Exception):
    """Bad input from the caller, never a fault of the program; may carry a
    1-based source line and column.  The CLI reports it and exits 2."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
