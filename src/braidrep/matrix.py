"""Dense exact matrices over the package's entry domains.

A matrix carries an ``EntryDomain`` tag (Laurent ring, Q(t), or Q) that
supplies the zero/one elements, coercion, and the division notion used by the
fraction-free elimination.  Determinants use the one-step fraction-free
(Bareiss) scheme, which stays inside the entry domain.  Every elimination
over a field runs on ``Echelon``, an incremental basis of sparse rows kept in
reduced echelon form: nullspace and inverse (over the fraction field for
Laurent entries), subspace membership, the span certificate's spins and its
exact closure, and the linear solver.  It sums entries with the field's own
arithmetic, which keeps them in the field.

Generator images are the identity outside one small diagonal block, so the
word products of ``reps`` (word images, relation checks and the solver's
assembly) apply each letter as a block-local update: ``mul_local`` right-
multiplies by the identity with a block at an offset in O(k^2 d) ring
operations instead of the O(d^3) of the dense product.  Nothing else calls
it; the span moves vectors by g - I instead.  It lays out the block's
nonzero columns on its first use and keeps that layout in the immutable
block, so no caller sees it.  The dense ``Matrix.__mul__`` stays the
general product and the reference the local one is tested against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .errors import NotInvertible, NotSquare, ShapeMismatch
from .laurent import ONE, ZERO, LaurentPoly, RationalFunction

__all__ = [
    "EntryDomain",
    "Echelon",
    "LAURENT",
    "RATFUNC",
    "QQ",
    "Matrix",
    "Subspace",
    "mul_local",
]


@dataclass(frozen=True, eq=False)
class EntryDomain:
    """Bundle of ring/field operations for one entry type."""

    name: str
    zero: Any
    one: Any
    is_field: bool
    coerce: Callable[[Any], Any]
    is_unit: Callable[[Any], bool]
    exact_div: Callable[[Any, Any], Any]

    def __repr__(self):
        return f"EntryDomain({self.name})"


def _coerce_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into Q")


LAURENT = EntryDomain(
    name="laurent",
    zero=ZERO,
    one=ONE,
    is_field=False,
    coerce=LaurentPoly.coerce,
    is_unit=lambda f: f.is_unit(),
    exact_div=lambda a, b: a.exact_div(b),
)

RATFUNC = EntryDomain(
    name="ratfunc",
    zero=RationalFunction(0),
    one=RationalFunction(1),
    is_field=True,
    coerce=RationalFunction.coerce,
    is_unit=lambda x: not x.is_zero(),
    exact_div=lambda a, b: a / b,
)

QQ = EntryDomain(
    name="rational",
    zero=Fraction(0),
    one=Fraction(1),
    is_field=True,
    coerce=_coerce_fraction,
    is_unit=lambda x: x != 0,
    exact_div=lambda a, b: a / b,
)


class Echelon:
    """Incremental basis over a field, on sparse rows in reduced echelon form.

    A vector is a ``{coordinate: entry}`` dict with orderable coordinates; a
    sequence is read as ``{index: entry}``.  Zero entries are dropped (every
    entry type is falsy exactly at zero), so a vector is zero iff it is empty.
    ``rows`` maps each pivot, its row's smallest coordinate, to the row's
    other entries, in insertion order; each row is 1 at its pivot and 0 at
    every other, so a vector's entry at a pivot is its coefficient on that
    row.
    """

    __slots__ = ("domain", "rows")

    def __init__(self, domain: EntryDomain, vectors=()):
        if not domain.is_field:
            raise TypeError(f"echelon form needs field entries, got {domain.name}; "
                            "lift Laurent matrices first")
        self.domain = domain
        self.rows: dict[Any, dict] = {}
        for vec in vectors:
            self.insert(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def remainder(self, vec) -> dict:
        """The vector reduced against the basis: empty iff it lies in the span."""
        rows = self.rows
        acc: dict = {}
        get = acc.get
        for k, e in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
            if e:
                rest = rows.get(k)
                if rest is None:
                    val = get(k)
                    acc[k] = e if val is None else val + e
                else:
                    e = -e
                    for j, r in rest.items():
                        val = get(j)
                        acc[j] = e * r if val is None else val + e * r
        return {k: e for k, e in acc.items() if e}

    def insert(self, vec) -> bool:
        """Keep the vector's remainder, scaled to 1 at its pivot, if it is
        nonzero, and clear that pivot from the other rows; True iff kept."""
        v = self.remainder(vec)
        if not v:
            return False
        dom = self.domain
        pivot = min(v)
        lead = v.pop(pivot)
        if lead != dom.one:
            inv = dom.exact_div(dom.one, lead)
            v = {k: e * inv for k, e in v.items()}
        for rest in self.rows.values():
            coeff = rest.pop(pivot, None)
            if coeff is not None:
                coeff = -coeff
                for k, e in v.items():
                    val = rest.get(k)
                    if val is None:
                        rest[k] = coeff * e
                    elif r := val + coeff * e:
                        rest[k] = r
                    else:
                        del rest[k]
        self.rows[pivot] = v
        return True

    def reduced(self) -> list[tuple[Any, dict]]:
        """The reduced row echelon form of the span, which is unique, as
        (pivot, row) pairs sorted by pivot; each row is 1 at its own pivot
        and 0 at every other."""
        one = self.domain.one
        return [(pivot, {pivot: one, **rest}) for pivot, rest in sorted(self.rows.items())]

    def kernel(self, width: int) -> "Subspace":
        """Basis of the vectors of length ``width`` that every row kills,
        one per coordinate f that is not a pivot, in increasing f: 1 at f,
        minus each row's entry at f at that row's pivot, 0 elsewhere."""
        dom = self.domain
        basis = []
        for f in range(width):
            if f not in self.rows:
                vec = [dom.zero] * width
                vec[f] = dom.one
                for pivot, rest in self.rows.items():
                    vec[pivot] = -rest.get(f, dom.zero)
                basis.append(tuple(vec))
        return Subspace(dom, width, tuple(basis))


class Matrix:
    """Immutable dense matrix with exact entries.

    ``_columns`` is ``mul_local``'s layout of the matrix as a block, set on
    its first use and read by every later one.
    """

    __slots__ = ("domain", "rows", "cols", "entries", "_columns")

    def __init__(self, domain: EntryDomain, entries):
        rows = tuple(tuple(domain.coerce(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ShapeMismatch("matrices must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, domain: EntryDomain, n: int) -> Matrix:
        return cls(
            domain,
            [[domain.one if i == j else domain.zero for j in range(n)] for i in range(n)],
        )

    # -- access -------------------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        dom = self.domain
        return all(
            e == (dom.one if i == j else dom.zero)
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )

    def map_entries(self, fn: Callable, domain: EntryDomain | None = None) -> Matrix:
        return Matrix(domain or self.domain, [[fn(e) for e in row] for row in self.entries])

    def transpose(self) -> Matrix:
        return Matrix(self.domain, list(zip(*self.entries)))

    # -- arithmetic ---------------------------------------------------------

    def _check_domain(self, other: Matrix):
        if self.domain is not other.domain:
            raise ShapeMismatch(
                f"mixed entry domains: {self.domain.name} vs {other.domain.name}"
            )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_domain(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        cols = other.transpose().entries
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = self.domain.zero
                for a, b in zip(row, col):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return Matrix(self.domain, out)

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"shape mismatch in entrywise {op.__name__}")
        return Matrix(
            self.domain,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def scaled(self, scalar) -> Matrix:
        s = self.domain.coerce(scalar) if not isinstance(scalar, int) else scalar
        return Matrix(self.domain, [[e * s for e in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.domain is other.domain
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain.name, self.entries))

    # -- elimination-based operations ------------------------------------------

    def det(self):
        """Fraction-free determinant; stays inside the entry domain."""
        if not self.is_square():
            raise NotSquare("determinant of a non-square matrix")
        n = self.rows
        dom = self.domain
        m = [list(row) for row in self.entries]
        sign = 1
        prev = dom.one
        for k in range(n - 1):
            pivot_row = next((r for r in range(k, n) if m[r][k] != dom.zero), None)
            if pivot_row is None:
                return dom.zero
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = dom.exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
                m[i][k] = dom.zero
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return d if sign > 0 else -d

    def _field_lift(self) -> Matrix:
        """View over the fraction field (Laurent entries go to Q(t))."""
        if self.domain.is_field:
            return self
        if self.domain is LAURENT:
            return self.map_entries(RationalFunction, RATFUNC)
        raise TypeError(f"no fraction field registered for {self.domain.name}")

    def nullspace(self) -> "Subspace":
        """Basis of the right kernel, over a field, read off the reduced rows."""
        lifted = self._field_lift()
        return Echelon(lifted.domain, lifted.entries).kernel(self.cols)

    def inverse(self) -> Matrix:
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        dom = self.domain
        if dom.is_field:
            # Reduce [self | I]: invertible iff every column of self is a pivot.
            n = self.rows
            rows = Echelon(dom, ({**dict(enumerate(row)), n + i: dom.one}
                                 for i, row in enumerate(self.entries))).rows
            if any(i not in rows for i in range(n)):
                raise NotInvertible("matrix is singular", det=dom.zero)
            return Matrix(dom, [[rows[i].get(n + j, dom.zero) for j in range(n)]
                                for i in range(n)])
        if dom is LAURENT:
            d = self.det()
            if not d.is_unit():
                raise NotInvertible(f"determinant {d} is not a unit of the Laurent ring", det=d)
            inv = self._field_lift().inverse()
            return inv.map_entries(lambda e: e.as_laurent(), LAURENT)
        raise TypeError(f"no inverse available over {dom.name}")

    # -- serialization / display -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "domain": self.domain.name,
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    def __str__(self):
        rendered = [[str(e) for e in row] for row in self.entries]
        widths = [max(len(rendered[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in rendered:
            cells = ", ".join(cell.rjust(w) for cell, w in zip(row, widths))
            lines.append(f"[ {cells} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.domain.name}, {self.rows}x{self.cols})"


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an explicit basis, verified independent;
    ``echelon`` holds the basis in reduced echelon form."""

    domain: EntryDomain
    ambient: int
    basis: tuple[tuple, ...]
    echelon: Echelon = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for vec in self.basis:
            if len(vec) != self.ambient:
                raise ShapeMismatch("basis vector has wrong length")
        echelon = Echelon(self.domain, self.basis)
        if len(echelon) != len(self.basis):
            raise ValueError("claimed basis is linearly dependent")
        object.__setattr__(self, "echelon", echelon)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        if len(vector) != self.ambient:
            raise ShapeMismatch("vector length does not match the ambient dimension")
        return not self.echelon.remainder(vector)

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "basis": [[str(e) for e in vec] for vec in self.basis],
        }


def _lay_out(block: Matrix) -> tuple:
    """The block's columns as ``mul_local`` applies them, kept in the block:
    the nonzero entries of each column as (row, entry) pairs, with None for
    an entry equal to one."""
    one = block.domain.one
    columns = tuple(tuple((j, None if b == one else b) for j, b in enumerate(col) if b)
                    for col in zip(*block.entries))
    object.__setattr__(block, "_columns", columns)
    return columns


def mul_local(rows, offset: int, block: Matrix) -> list[list]:
    """Rows of the product (rows) * E, where E is the identity with ``block``
    on the diagonal at ``offset``.

    Only the block's columns change, each to the old row segment times a
    block column, so this costs O(k^2 d) ring operations; the columns are
    laid out (``_lay_out``) on the block's first product only.  Zero terms
    (every entry type is falsy exactly at zero) are skipped, and a unit
    factor, or a left factor that is the domain's ``one`` object itself, is
    taken as is, which keeps every entry equal to the dense product's.
    """
    dom = block.domain
    zero, one = dom.zero, dom.one
    try:
        columns = block._columns
    except AttributeError:
        columns = _lay_out(block)
    end = offset + block.rows
    out = []
    for row in rows:
        segment = row[offset:end]
        new = []
        for col in columns:
            acc = None
            for j, b in col:
                a = segment[j]
                if a:
                    term = a if b is None else b if a is one else a * b
                    acc = term if acc is None else acc + term
            new.append(zero if acc is None else acc)
        out.append([*row[:offset], *new, *row[end:]])
    return out
