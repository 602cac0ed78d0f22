"""The paper's table of the five 2x2 involution families, typed by hand.

The package derives these families (``solve_involution_2x2``); this table is
the independent oracle the derived families, their images and the classifier
are checked against.
"""

from __future__ import annotations

from braidrep.matrix import LAURENT, EntryDomain, Matrix


def involution_matrix(family_id: int, *, p=None, q=None, r=None,
                      domain: EntryDomain = LAURENT) -> Matrix:
    """The involution of the given family; family 1 needs q to divide
    1 - p^2 in the domain."""
    one, zero = domain.one, domain.zero
    if family_id == 1:
        p, q = domain.coerce(p), domain.coerce(q)
        return Matrix(domain, [[p, q], [domain.exact_div(one - p * p, q), -p]])
    if family_id == 2:
        return Matrix(domain, [[-one, zero], [domain.coerce(r), one]])
    if family_id == 3:
        return Matrix(domain, [[one, zero], [domain.coerce(r), -one]])
    if family_id == 4:
        return Matrix.identity(domain, 2).scaled(-1)
    if family_id == 5:
        return Matrix.identity(domain, 2)
    raise ValueError(f"family_id must be 1..5, got {family_id}")
