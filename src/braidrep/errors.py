"""Exception types shared across the package.

Every failure of a mathematical precondition raises a subclass of
``BraidRepError`` so callers can tell domain errors apart from plain bugs.
"""

from __future__ import annotations


class BraidRepError(Exception):
    """Base class for all domain-specific errors raised by this package."""


# -- Laurent ring -----------------------------------------------------------

class ZeroSpecialization(BraidRepError):
    """Specializing t to 0 is not defined on the Laurent ring."""


# -- matrices ---------------------------------------------------------------

class ShapeMismatch(BraidRepError):
    """Operand shapes (or entry domains) are incompatible."""


class NotSquare(BraidRepError):
    """A square matrix was required."""


class NotInvertible(BraidRepError):
    """A square matrix with no inverse in its entry domain: its determinant
    ``det`` is not a unit there (zero over a field)."""

    def __init__(self, message: str, det=None):
        super().__init__(message)
        self.det = det


# -- presentations and words ------------------------------------------------

class BadStrandCount(BraidRepError):
    """Fewer than two strands."""


class BadIndices(BraidRepError):
    """Generator or strand-pair indices out of range."""


# -- representations --------------------------------------------------------

class ModeMismatch(BraidRepError):
    """Representation and presentation disagree on mode or strand count."""


class UnassignedGenerator(BraidRepError):
    """A word references a generator the representation does not assign."""


class NonInvertibleLetter(BraidRepError):
    """A word asks for the inverse of a letter with no invertible image."""


class NonInvertibleTau(BraidRepError):
    """Group mode demands a unit (or nonzero) determinant for tau images."""


class DivisibilityViolation(BraidRepError):
    """A ring-valued family parameter fails a required exact division."""


class ZeroQ(BraidRepError):
    """The involution family with q in a denominator got q = 0."""


# -- solver -----------------------------------------------------------------

class NonlinearSystem(BraidRepError):
    """The linear solver received equations of degree greater than one."""


class Inconsistent(BraidRepError):
    """The linear system has no solution."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInvolution(BraidRepError):
    """A matrix claimed to square to the identity does not."""


class Unclassifiable(BraidRepError):
    """An involution matches none of the involution families it was
    classified against."""


# -- kernel certificates ----------------------------------------------------

class NotInKernel(BraidRepError):
    """The candidate word does not evaluate to the identity matrix."""


class TrivialWord(BraidRepError):
    """The candidate word is already trivial in the group, so a kernel
    certificate for it would be vacuous."""
