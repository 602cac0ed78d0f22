"""Checkers: what each op must return, derived from the mathematics.

Nothing here calls braidrep.  The generator images are rebuilt from their
definition (sigma_i = [[0, t], [1, 0]] and tau_i = [[a, c t], [c, a]] on
strands i, i+1, the identity elsewhere), so a witness or a certificate is
verified with this module's own exact arithmetic.

Expectations, for n >= 3:
- t0 != 1: the sigma images alone act irreducibly (the n-dimensional
  standard representation is irreducible away from t = 1), so the span is n^2.
- t0 = 1: sigma_i is the transposition matrix and the span of the sigmas is
  the image of Q[S_n] on Q^n = trivial + standard, of dimension
  1 + (n-1)^2.  With P_i the projection onto strands i, i+1,
  tau_i = I + c (sigma_i - I) + (a + c - 1) P_i, so a + c != 1 puts every
  P_i in the algebra and the span is n^2, while a + c = 1 leaves it at
  1 + (n-1)^2 with the all-ones line invariant.
- n = 2: sigma^2 = t I and tau = a I + c sigma, so the algebra is Q[sigma]
  of dimension 2 whatever t is; the CLI records the cell as a divergence.
- Under this representation every pure braid maps to a diagonal matrix (a
  conjugate of sigma_i^2 = t I on the block), so the pure braid image is
  abelian and every commutator of pure braids maps to the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

CITED_SOURCE = "cited:pure-braid-commutator"

# Distinct nonzero affine entry constraints of the singular extension
# problem ("solve-extension sb n"): (n - 1) unknown n x n tau images.
SB_EQUATIONS = {3: 32, 4: 117, 5: 288}
SB_FREE = 3

_LETTER = re.compile(r"^([stv])(\d+)(?:\^(-?\d+))?$")


def singular_relation_count(n: int) -> int:
    """Relations of the singular braid monoid presentation on n strands:
    n-2 braid relations, (n-2)(n-3)/2 far s-s and t-t commutations each,
    (n-2)(n-3) ordered far t-s commutations, n-1 same-index t-s
    commutations, and n-2 slide relations in each direction."""
    far = (n - 2) * (n - 3) // 2
    return (n - 2) + 2 * far + 2 * far + (n - 1) + 2 * (n - 2)


# -- generator images, from the definition ----------------------------------


def _images(n: int, t: Fraction, a: Fraction, c: Fraction):
    """The 2(n-1) generator images as functions on vectors of length n."""
    def sigma(i):
        def apply(v):
            w = list(v)
            w[i], w[i + 1] = t * v[i + 1], v[i]
            return w
        return apply

    def tau(i):
        def apply(v):
            w = list(v)
            w[i], w[i + 1] = a * v[i] + c * t * v[i + 1], c * v[i] + a * v[i + 1]
            return w
        return apply

    return [sigma(i) for i in range(n - 1)] + [tau(i) for i in range(n - 1)]


def _is_invariant_line(vec: list[Fraction], images) -> bool:
    """True iff vec is nonzero and every image maps it to a multiple of it."""
    if not any(vec):
        return False
    for apply in images:
        w = apply(vec)
        if any(w[j] * vec[k] != w[k] * vec[j]
               for j in range(len(vec)) for k in range(j + 1, len(vec))):
            return False
    return True


def _sigma_word_is_identity(text: str, n: int) -> bool:
    """Evaluate a word in the sigma letters as a monomial matrix.

    Column j of a monomial matrix is t^exp[j] e_row[j]; sigma_i sends
    e_i -> e_{i+1} and e_{i+1} -> t e_i (0-based i)."""
    row, exp = list(range(n)), [0] * n
    for token in text.split():
        m = _LETTER.match(token)
        if m is None or m.group(1) != "s":
            return False
        i, power = int(m.group(2)) - 1, int(m.group(3) or 1)
        if not 0 <= i < n - 1 or power not in (1, -1):
            return False
        # The letter as a monomial matrix L (columns i and i+1 only).
        lrow, lexp = list(range(n)), [0] * n
        if power == 1:
            lrow[i], lexp[i], lrow[i + 1], lexp[i + 1] = i + 1, 0, i, 1
        else:
            lrow[i], lexp[i], lrow[i + 1], lexp[i + 1] = i + 1, -1, i, 0
        # (M L) column j = M (t^lexp[j] e_lrow[j]).
        row, exp = ([row[lrow[j]] for j in range(n)],
                    [exp[lrow[j]] + lexp[j] for j in range(n)])
    return row == list(range(n)) and exp == [0] * n


def _freely_reduced(tokens: list[str]) -> bool:
    def inverse(tok):
        return tok[:-3] if tok.endswith("^-1") else tok + "^-1"
    return all(inverse(x) != y for x, y in zip(tokens, tokens[1:]))


# -- checkers ----------------------------------------------------------------


def _check_irreducible(op, rc: int, report: dict) -> list[str]:
    n, t, a, c = op.n, op.expect["t"], op.expect["a"], op.expect["c"]
    res = report.get("result", {})
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if res.get("full_dim") != n * n:
        problems.append(f"full_dim {res.get('full_dim')} != {n * n}")
    if n == 2:
        expected = ("reducible", 2, "divergence", False)
    elif t != 1 or a + c != 1:
        expected = ("irreducible", n * n, "pass", True)
    else:
        expected = ("reducible", (n - 1) ** 2 + 1, "pass", True)
    got = (res.get("status"), res.get("span_dim"), report.get("status"), res.get("agree"))
    if got != expected:
        problems.append(f"(verdict, span_dim, status, agree) = {got}, expected {expected}")
    witness = res.get("witness")
    if witness is not None:
        basis = witness.get("basis", [])
        vec = [Fraction(x) for x in basis[0]] if len(basis) == 1 else []
        if len(vec) != n or not _is_invariant_line(vec, _images(n, t, a, c)):
            problems.append(f"witness {basis} is not an invariant line")
        elif n > 2 and any(x != vec[0] for x in vec):
            problems.append(f"witness {basis} is not the all-ones line")
    elif expected[0] == "reducible" and n > 2:
        problems.append("no witness for a reducible cell at t = 1")
    return problems


def _check_solve_sb(op, rc: int, report: dict) -> list[str]:
    n = op.n
    res = report.get("result", {})
    family = res.get("family", {})
    free, bindings = family.get("free", []), family.get("bindings", {})
    problems = []
    if rc != 0 or report.get("status") != "pass":
        problems.append(f"exit code {rc}, status {report.get('status')}")
    counts = (res.get("equations"), res.get("unknowns"))
    if counts != (SB_EQUATIONS[n], (n - 1) * n * n):
        problems.append(f"(equations, unknowns) = {counts}, "
                        f"expected {(SB_EQUATIONS[n], (n - 1) * n * n)}")
    if len(free) != SB_FREE:
        problems.append(f"{len(free)} free parameters, expected {SB_FREE}")
    if len(free) + len(bindings) != res.get("unknowns") or set(free) & set(bindings):
        problems.append("free parameters and bindings do not partition the unknowns")
    # The three-strand report checks the block form instead of a residue.
    if n > 3 and res.get("residue") != []:
        problems.append(f"nonlinear residue {res.get('residue')}")
    return problems


def _check_verify(op, rc: int, report: dict) -> list[str]:
    res = report.get("result", {})
    problems = []
    if rc != 0 or report.get("status") != "pass":
        problems.append(f"exit code {rc}, status {report.get('status')}")
    if res.get("relations") != singular_relation_count(op.n):
        problems.append(f"{res.get('relations')} relations, "
                        f"expected {singular_relation_count(op.n)}")
    if res.get("violations") != []:
        problems.append(f"{len(res.get('violations') or [])} violations reported")
    return problems


def _check_kernel_probe(op, rc: int, report: dict) -> list[str]:
    res = report.get("result", {})
    certs = res.get("certificates", [])
    problems = []
    if rc != 0 or report.get("status") != "pass":
        problems.append(f"exit code {rc}, status {report.get('status')}")
    if res.get("rejected") != []:
        problems.append(f"rejected probes {res.get('rejected')}")
    if len(certs) != len(op.expect["pairs"]):
        problems.append(f"{len(certs)} certificates for {len(op.expect['pairs'])} probes")
    for cert in certs:
        word = cert.get("word", "")
        if (cert.get("image") != "identity" or cert.get("n") != op.n
                or cert.get("nontriviality") != CITED_SOURCE):
            problems.append(f"certificate fields {cert}")
        elif not word.split() or not _freely_reduced(word.split()):
            problems.append(f"word {word!r} is empty or not freely reduced")
        elif not _sigma_word_is_identity(word, op.n):
            problems.append(f"word {word!r} does not map to the identity")
    return problems


CHECKERS = {
    "irreducible": _check_irreducible,
    "solve-sb": _check_solve_sb,
    "verify": _check_verify,
    "kernel-probe": _check_kernel_probe,
}


def check(op, rc: int, report: dict) -> list[str]:
    """Every way the result differs from the expectation; empty when it is right."""
    return CHECKERS[op.kind](op, rc, report)


# -- tampered results for the self-test ------------------------------------


def _set(path, value):
    def tamper(rc, report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node.get(path[-1])) if callable(value) else value
        return rc, report
    return tamper


def _non_invariant_witness(rc, report):
    n = int(report["inputs"]["n"])
    report["result"]["witness"] = {"ambient": n, "dim": 1,
                                   "basis": [["1"] + ["0"] * (n - 1)]}
    return rc, report


def _identity_breaking_word(rc, report):
    report["result"]["certificates"][0]["word"] = "s1 s2"
    return rc, report


TAMPERS = {
    "irreducible": [
        ("wrong span_dim", _set(("result", "span_dim"), lambda d: d - 1)),
        ("non-invariant witness", _non_invariant_witness),
        ("exit code 1", lambda rc, report: (1, report)),
    ],
    "solve-sb": [
        ("wrong equation count", _set(("result", "equations"), lambda e: e + 1)),
        ("extra free parameter", _set(("result", "family", "free"), lambda f: f + ["zz"])),
    ],
    "verify": [
        ("reported violation", _set(("result", "violations"), [{"relation": "s1 s2 = s2 s1"}])),
        ("wrong relation count", _set(("result", "relations"), lambda r: r - 1)),
    ],
    "kernel-probe": [
        ("word off the kernel", _identity_breaking_word),
        ("rejected probe", _set(("result", "rejected"), [{"pairs": "1,2;3,4"}])),
    ],
}
