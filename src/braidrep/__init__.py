"""Exact computations with braid-family representations.

Laurent-polynomial linear algebra, presentations of the braid, singular, and
virtual singular families, the catalogued representations, symbolic solving
of the extension problems, span-criterion irreducibility, and kernel
certificates, plus a CLI (``braidrep``) tying them together.
"""

from .errors import BraidRepError
from .irreducibility import (
    GridReport,
    IrreducibilityVerdict,
    burnside_span,
    grid_report,
    is_irreducible,
    matrix_algebra_span,
    predicted_irreducible,
    specialize,
    specialized_extension,
    symbolic_extension,
)
from .kernel import KernelCertificate, certify, pure_commutator_certificate
from .laurent import LaurentPoly, RationalFunction, T, laurent_gcd, parse_laurent
from .matrix import (
    LAURENT,
    QQ,
    RATFUNC,
    Echelon,
    Matrix,
    Subspace,
    mul_local,
)
from .presentations import (
    GeneratorSymbol,
    Presentation,
    Relation,
    Word,
    build_presentation,
    commutator,
    format_word,
    free_reduce,
    nu,
    parse_word,
    pure_braid_generator,
    sigma,
    tau,
    word,
)
from .reps import (
    Representation,
    Violation,
    burau_rep,
    evaluate_word,
    f_rep,
    singular_extension,
    standard_rep,
    verify_relations,
    vsb2_extension,
)
from .solver import (
    ConstraintSystem,
    InvolutionSolution,
    SolutionFamily,
    assemble,
    block_form_match,
    involution_classify,
    laurent_representability,
    solve_involution_2x2,
    solve_linear,
    solve_with_residue,
    solved_images,
    vsb2_problem,
)
from .symbolic import SYMBOLIC, SymPoly

__version__ = "0.1.0"
