"""Command-line front end.

Subcommands construct the catalogued representations, check them against
their defining relations, solve the extension problems symbolically, decide
irreducibility of specializations, sweep parameter grids, and emit kernel
certificates.  Output is human-readable by default and JSON with --json;
both are byte-deterministic for fixed arguments and BRAIDREP_SEED.

Exit codes: 0 when the computation matches the expected outcome (including
recorded divergences on the two-strand watch cases), 1 when a violation or
mismatch was computed, 2 for usage errors, 141 (128 + SIGPIPE) when the
reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .errors import BraidRepError, NotInKernel, TrivialWord, Unclassifiable
from .irreducibility import grid_cell, grid_report
from .kernel import pure_commutator_certificate
from .laurent import ONE, ZERO, parse_laurent
from .matrix import QQ, Matrix
from .presentations import TAU, build_presentation
from .reps import (
    burau_rep,
    f_rep,
    singular_extension,
    standard_rep,
    verify_relations,
    vsb2_extension,
)
from .solver import (
    block_form_match,
    involution_classify,
    involution_families,
    laurent_representability,
    solve_with_residue,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# Each representation kind with the options it reads besides --p/--q/--r,
# and their defaults.
_REP_READS = {
    "standard": {}, "burau": {}, "f": {},
    "singular-ext": {"a": ONE, "c": ONE, "group": False},
    "vsb2": {"a": ONE, "c": ONE, "family": 1, "group": False},
}


def _seed() -> int:
    return int(os.environ.get("BRAIDREP_SEED", "0"))


def _arg(parse):
    """An argparse type: what ``parse`` reads from the text.  A ValueError
    from ``parse`` becomes a usage error (exit 2) with its message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be a non-negative count, got {value}")
    return value


def _echo_inputs(args: argparse.Namespace) -> dict:
    skip = {"func", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _emit(args, result: dict, status: str, lines: list[str]) -> int:
    """Print the report, and return its exit code: 1 when the status is
    "fail", 0 otherwise.  The JSON ``inputs`` are the parsed values; exact
    numbers and Laurent literals among them print as their text."""
    if args.json:
        report = {"command": args.command, "inputs": _echo_inputs(args),
                  "result": result, "status": status}
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print("\n".join(lines))
    return EXIT_MISMATCH if status == "fail" else EXIT_OK


def _build_rep(args):
    """The representation the arguments name.  An option its kind does not
    read is refused; an absent one it reads takes its default, and so does
    each free entry of a vsb2 family, so that the report echoes exactly the
    values used."""
    kind = args.kind
    reads = _REP_READS[kind]
    unread = [f"--{name}" for name in ("a", "c", "family", "group")
              if getattr(args, name) is not None and name not in reads]
    if unread:
        raise BraidRepError(f"{', '.join(unread)} does not apply to the {kind} representation")
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    family = None
    if kind == "vsb2":
        if args.n != 2:
            raise BraidRepError("the vsb2 representation is two-strand only")
        family = {f.family_id: f for f in involution_families()[2]}[args.family]
    # --p, --q and --r set free entries of a vsb2 family and nothing else.
    free = family.free if family else ()
    unused = [f"--{name}" for name in ("p", "q", "r")
              if getattr(args, name) is not None and name not in free]
    if unused:
        owner = (f"vsb2 family {args.family}, whose free entries are {', '.join(free) or 'none'}"
                 if family else f"the {kind} representation, which has no free entries")
        raise BraidRepError(f"{', '.join(unused)} does not apply to {owner}")
    if kind == "singular-ext":
        return singular_extension(args.n, args.a, args.c, group=args.group)
    if kind == "vsb2":
        # Free entries default to 0, or to 1 where the family needs them nonzero.
        for name in free:
            if getattr(args, name) is None:
                setattr(args, name, ONE if name in family.nonzero else ZERO)
        values = {name: getattr(args, name) for name in free}
        return vsb2_extension(family, values, a=args.a, c=args.c, group=args.group)
    return {"standard": standard_rep, "burau": burau_rep, "f": f_rep}[kind](args.n)


def cmd_show_rep(args) -> int:
    rep = _build_rep(args)
    lines = [f"{rep.name or args.kind}: n={rep.n}, dim={rep.dim}, domain={rep.domain.name}"]
    for kind, index in rep.generator_keys():
        lines.append(f"{kind}{index} ->")
        lines.append(str(rep.image(kind, index)))
    return _emit(args, rep.to_json_dict(), "pass", lines)


def cmd_verify(args) -> int:
    rep = _build_rep(args)
    pres = build_presentation(rep.n, rep.mode)
    violations = verify_relations(rep, pres)
    status = "pass" if not violations else "fail"
    lines = [f"checked {len(pres.relations)} relations for {rep.name or args.kind} (n={rep.n})"]
    if violations:
        for v in violations:
            lines.append(f"violated: {v.relation}")
            lines.append(f"difference:\n{v.diff}")
    lines.append(f"status: {status}")
    result = {"relations": len(pres.relations),
              "violations": [v.to_json_dict() for v in violations]}
    return _emit(args, result, status, lines)


def cmd_solve_extension(args) -> int:
    if args.target == "vsb2":
        if args.n != 2:
            raise BraidRepError("the virtual target is two-strand only")
        system, quadratics, families = involution_families()
        result, ok, family_lines = _family_report(
            families, quadratics,
            lambda f, matrix, cond:
                f"  family {f.family_id}: {matrix}" + (f" ({cond})" if cond else ""))
        status = "pass" if ok else "fail"
        lines = [f"constraints on the v-image: {len(quadratics.equations)} quadratic equations, "
                 f"{len(system.equations)} linear"]
        lines += [f"  {p} = 0" for p in quadratics.equations]
        lines += [f"solution families: {len(families)}", *family_lines, f"status: {status}"]
        report = {**system.to_json_dict(), "nonlinear": [str(p) for p in quadratics.equations]}
        return _emit(args, {"system": report, **result}, status, lines)

    system, family, residue = solve_with_residue(
        build_presentation(args.n, "singular"), standard_rep(args.n),
        [(TAU, i) for i in range(1, args.n)])
    form_ok, residual_free = block_form_match(family, args.n)
    status = "fail" if not form_ok else ("divergence" if residue else "pass")
    result = {
        "unknowns": len(system.unknowns),
        "equations": len(system.equations),
        "discarded_zero_equations": system.discarded_zero,
        "discarded_duplicate_equations": system.discarded_duplicate,
        "family": family.to_json_dict(),
        "laurent_representable": laurent_representability(family)["representable"],
        "residue": [str(p) for p in residue],
        "residual_free_parameters": list(residual_free),
        "matches_block_form": form_ok,
        "status": status,
    }
    lines = [
        f"assembled {len(system.equations)} equations in {len(system.unknowns)} unknowns "
        f"({system.discarded_zero} identically zero entries discarded, "
        f"{system.discarded_duplicate} sign-duplicates dropped)",
        f"free parameters: {', '.join(family.free)}",
    ]
    for name in sorted(family.bindings):
        lines.append(f"  {name} = {family.bindings[name]}")
    lines.append(f"nonlinear residue after the linear solve: {len(residue)} equations")
    for p in residue:
        lines.append(f"  {p} = 0")
    lines.append("residual free parameters beyond the block pair: "
                 + (", ".join(residual_free) or "none"))
    lines.append(f"matches the embedded-block form after setting them to 1: {form_ok}")
    lines.append(f"status: {status}")
    return _emit(args, result, status, lines)


def cmd_irreducible(args) -> int:
    if args.symbolic and args.t is not None:
        raise BraidRepError("--t and --symbolic exclude each other")
    if not args.symbolic and args.t is None:
        raise BraidRepError("either --t or --symbolic is required")
    cell = grid_cell(args.n, args.t, args.a, args.c)
    verdict = cell.verdict
    where = "t symbolic" if cell.t0 is None else f"t={cell.t0}"
    lines = [
        f"n={cell.n}, {where}, a={cell.a}, c={cell.c}: span {verdict.span_dim} of "
        f"{verdict.dim * verdict.dim} -> {verdict.status}",
        f"predicted: {cell.predicted}",
    ]
    if verdict.witness is not None:
        basis = ["(" + ", ".join(str(e) for e in v) + ")"
                 for v in verdict.witness.basis]
        lines.append(f"invariant subspace witness: {'; '.join(basis)}")
    lines.append(f"status: {cell.status}")
    result = {**verdict.to_json_dict(), "predicted": cell.predicted, "agree": cell.agree}
    return _emit(args, result, cell.status, lines)


def _parse_t_list(text: str) -> list[Fraction]:
    return [_parse_fraction(piece) for piece in text.split(",") if piece.strip()]


def _parse_pair_list(text: str) -> list[tuple[Fraction, Fraction]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad (a,c) pair {chunk!r}; expected like 2,-1")
        pairs.append((_parse_fraction(parts[0]), _parse_fraction(parts[1])))
    return pairs


def cmd_grid(args) -> int:
    pairs = list(args.ac)  # a copy, so that the report echoes only the pairs given
    if args.random:
        rng = random.Random(_seed())
        wanted = len(pairs) + args.random
        while len(pairs) < wanted:
            a = Fraction(rng.randint(-4, 4))
            c = Fraction(rng.randint(-4, 4))
            if all(a * a - t0 * c * c != 0 for t0 in args.t):
                pairs.append((a, c))
    if not args.t or not pairs:
        raise BraidRepError("grid needs at least one t value and one (a,c) sample")
    report_obj = grid_report(args.n, args.t, pairs)
    status = report_obj.status
    lines = [report_obj.csv(),
             f"agreements: {report_obj.agreements}/{len(report_obj.cells)}",
             f"status: {status}"]
    return _emit(args, report_obj.to_json_dict(), status, lines)


def _parse_probe(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    chunks = [c for c in text.split(";") if c.strip()]
    if len(chunks) != 2:
        raise ValueError(f"bad probe {text!r}; expected like 1,2;1,3")
    out = []
    for chunk in chunks:
        parts = chunk.split(",")
        try:
            i, j = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"bad strand pair {chunk!r}; expected two integers like 1,3") from None
        out.append((i, j))
    return out[0], out[1]


def cmd_kernel_probe(args) -> int:
    rep = singular_extension(args.n, args.a, args.c, group=False)
    if args.pairs is None:  # written back, so that the report echoes the pair probed
        args.pairs = [((1, 2), (1, 3))]
    certificates = []
    rejected = []
    lines = []
    for pair1, pair2 in args.pairs:
        try:
            cert = pure_commutator_certificate(rep, pair1, pair2)
        except (TrivialWord, NotInKernel) as exc:
            rejected.append({"pairs": (pair1, pair2), "error": type(exc).__name__,
                             "message": str(exc)})
            lines.append(f"[{pair1} , {pair2}]: rejected ({exc})")
            continue
        certificates.append(cert.to_json_dict())
        lines.append(f"[{pair1} , {pair2}]: image is the identity; "
                     f"word {cert.to_json_dict()['word']}")
        lines.append(f"  nontriviality: {cert.nontriviality}")
    status = "pass" if not rejected else "fail"
    lines.append(f"status: {status}")
    return _emit(args, {"certificates": certificates, "rejected": rejected}, status, lines)


def _family_report(families, quadratics, line) -> tuple[dict, bool, list[str]]:
    """The derived involution families, each checked by substitution into
    the ``quadratics`` system: their JSON, whether all five hold, and their
    text lines, one per family from ``line(family, matrix, constraints)``
    plus a summary."""
    squares = {f.family_id: f.solves(quadratics) for f in families}
    lines = [line(f, "[" + "; ".join(", ".join(row) for row in f.entries) + "]",
                  "; ".join(f.constraints)) for f in families]
    lines.append(f"every family squares to the identity: {all(squares.values())}")
    result = {"families": [f.to_json_dict() for f in families], "squares_to_identity": squares}
    return result, len(families) == 5 and all(squares.values()), lines


def _random_involution(rng: random.Random) -> Matrix:
    while True:
        v = Matrix(QQ, [[Fraction(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)])
        if v.det() != 0:
            break
    signs = rng.choice([(1, 1), (-1, -1), (1, -1), (-1, 1)])
    d = Matrix(QQ, [[Fraction(signs[0]), Fraction(0)], [Fraction(0), Fraction(signs[1])]])
    return v * d * v.inverse()


def cmd_involutions(args) -> int:
    _, quadratics, families = involution_families()
    result, ok, lines = _family_report(
        families, quadratics, lambda f, matrix, cond: f"family {f.family_id}: free "
        f"{', '.join(f.free) or '(none)'}; {matrix}" + (f"  ({cond})" if cond else ""))
    tallies: dict[int, int] = {}
    classified = 0
    if args.check:
        rng = random.Random(_seed())
        for _ in range(args.check):
            try:
                fid, _params = involution_classify(_random_involution(rng), families)
            except Unclassifiable:
                continue
            tallies[fid] = tallies.get(fid, 0) + 1
            classified += 1
    ok = ok and classified == args.check
    status = "pass" if ok else "fail"
    result["classified"] = {"total": classified,
                            "by_family": {str(k): v for k, v in sorted(tallies.items())}}
    if args.check:
        tally_text = ", ".join(f"family {k}: {v}" for k, v in sorted(tallies.items()))
        lines.append(f"classified {classified}/{args.check} random involutions ({tally_text})")
    lines.append(f"status: {status}")
    return _emit(args, result, status, lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every default is
    immutable or converted at parse time, so ``main`` may reuse it."""
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact computations with braid-family representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rep_args(p, kinds):
        p.add_argument("kind", choices=kinds)
        p.add_argument("n", type=int)
        # None marks an option not given; _build_rep fills in the defaults.
        p.add_argument("--a", type=_arg(parse_laurent), default=None,
                       help="diagonal parameter of the t-image block (Laurent literal)")
        p.add_argument("--c", type=_arg(parse_laurent), default=None,
                       help="off-diagonal parameter of the t-image block")
        p.add_argument("--family", type=int, choices=[1, 2, 3, 4, 5], default=None)
        p.add_argument("--p", type=_arg(parse_laurent), default=None)
        p.add_argument("--q", type=_arg(parse_laurent), default=None)
        p.add_argument("--r", type=_arg(parse_laurent), default=None)
        p.add_argument("--group", action="store_true", default=None,
                       help="demand invertible t-images (unit block determinant)")

    p = sub.add_parser("show-rep", help="print the generator matrices")
    add_rep_args(p, _REP_READS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_show_rep)

    p = sub.add_parser("verify", help="check a representation against its relations")
    add_rep_args(p, _REP_READS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve-extension",
                       help="solve for the unknown generator images symbolically")
    p.add_argument("target", choices=["sb", "vsb2"])
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve_extension)

    p = sub.add_parser("irreducible",
                       help="span-criterion verdict for one specialization")
    p.add_argument("n", type=int)
    p.add_argument("--t", type=_arg(_parse_fraction), default=None)
    p.add_argument("--a", type=_arg(_parse_fraction), required=True)
    p.add_argument("--c", type=_arg(_parse_fraction), required=True)
    p.add_argument("--symbolic", action="store_true",
                   help="keep t a variable and decide over the function field")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("grid", help="sweep specializations against the dichotomy")
    p.add_argument("n", type=int)
    p.add_argument("--t", type=_arg(_parse_t_list), default="2,-1,3/2",
                   help="comma-separated t values")
    p.add_argument("--ac", type=_arg(_parse_pair_list), default="",
                   help="semicolon-separated a,c pairs, like 2,-1;0,1")
    p.add_argument("--random", type=_arg(_parse_count), default=0,
                   help="additionally sample this many integer (a,c) pairs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("kernel-probe",
                       help="emit identity-image certificates for pure-braid commutators")
    p.add_argument("n", type=int)
    p.add_argument("--pairs", type=_arg(_parse_probe), action="append",
                   default=None, help="two strand pairs like 1,2;1,3 (repeatable)")
    p.add_argument("--a", type=_arg(parse_laurent), default=parse_laurent("1"))
    p.add_argument("--c", type=_arg(parse_laurent), default=parse_laurent("1"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kernel_probe)

    p = sub.add_parser("involutions",
                       help="the five 2x2 involution families and the classifier")
    p.add_argument("--check", type=_arg(_parse_count), default=0,
                   help="classify this many random rational involutions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_involutions)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BraidRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away: send the rest of stdout, flushed at exit, nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
