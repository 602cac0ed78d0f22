"""Names that nothing imports must still resolve: the benchmark tracer's
wrapped functions, and every module's ``__all__``.  And ``cli.main`` must be
reentrant, since the benchmark calls it many times in one process, and
derive the involution families once per process.  Every report echoes its
parsed options as JSON values, not as their Python text.  The witness search must
build no dense image, the exact closure no word product, and the span
certificate's modular spins must settle the extension cells, without the
exact spins or the exact closure."""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from braidrep import (
    QQ,
    Matrix,
    Representation,
    assemble,
    build_presentation,
    f_rep,
    irreducibility,
    is_irreducible,
    matrix,
    reps,
    solver,
    specialize,
    specialized_extension,
    standard_rep,
    symbolic_extension,
    vsb2_problem,
)
from braidrep import cli
from braidrep.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    tracer = load_tracer()
    names = [(module, attr) for module, attr, *_ in tracer.FUNCTION_SPANS]
    names += [(module, attr) for module, attr, _ in tracer.FUNCTION_TIMERS]
    names += [(module, f"{cls}.{method}")
              for module, cls, method, *_ in tracer.METHOD_SPANS + tracer.METHOD_COUNTERS]
    return names


@pytest.mark.parametrize("module,attr", wrapped_names())
def test_every_traced_name_resolves(module, attr):
    # A method is read from its own class's namespace, where the tracer
    # installs its wrapper, so a method its class only inherits fails here.
    owner, _, name = attr.rpartition(".")
    target = importlib.import_module(module)
    if owner:
        target = vars(getattr(target, owner))[name]
    else:
        target = getattr(target, name)
    assert callable(target)


def exported_names():
    package = importlib.import_module("braidrep")
    names = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"braidrep.{info.name}")
        names += [(module.__name__, name) for name in getattr(module, "__all__", ())]
    return names


@pytest.mark.parametrize("module,name", exported_names())
def test_every_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


# Appends, a seeded sample, a usage error that exits 2, reports with and
# without --json, the involution families that each process derives once,
# and the defaults and vsb2 free entries written back into the arguments.
REENTRANT_ARGVS = [
    ["kernel-probe", "4", "--pairs", "1,2;1,3", "--pairs", "2,3;3,4", "--json"],
    ["kernel-probe", "4", "--pairs", "1,2;3,4"],
    ["kernel-probe", "4", "--json"],
    ["grid", "3", "--ac", "2,1", "--random", "2", "--json"],
    ["grid", "3", "--t", "abc"],
    ["verify", "singular-ext", "4", "--a", "1+t", "--c", "t^-1"],
    ["verify", "vsb2", "2", "--family", "2", "--r", "3", "--json"],
    ["show-rep", "burau", "3"],
    ["show-rep", "singular-ext", "3", "--group", "--a", "0", "--json"],
    ["show-rep", "vsb2", "2", "--family", "3", "--json"],
    ["show-rep", "vsb2", "2", "--family", "1", "--json"],
    ["show-rep", "standard", "3", "--json"],
    ["solve-extension", "vsb2", "2"],
    ["involutions", "--check", "5"],
    # Cells the span's modular spins cannot settle: t0 = 1/P does not reduce
    # mod the prime P = 2^61 - 1, and a = P + 1, c = P make a + c = 1 mod P,
    # so both spins stop one short and the exact spins answer.
    ["irreducible", "3", "--t", "1/2305843009213693951", "--a", "3", "--c", "1"],
    ["irreducible", "3", "--t", "1", "--a", "2305843009213693952", "--c", "2305843009213693951",
     "--json"],
]


def run_in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def test_main_is_reentrant(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDREP_SEED", "3")
    fresh = []
    for argv in REENTRANT_ARGVS:
        proc = subprocess.run([sys.executable, "-m", "braidrep.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.stdout, proc.stderr, proc.returncode))
    assert any(code == 2 for _, _, code in fresh)
    for _ in range(2):
        for argv, expected in zip(REENTRANT_ARGVS, fresh):
            assert run_in_process(capsys, argv) == expected, argv


# One argv per subcommand, in the parser's order, with its flag, count or
# list-valued options where it has them.
EVERY_SUBCOMMAND = [
    ["show-rep", "vsb2", "2", "--group", "--a", "0", "--c", "1"],
    ["verify", "singular-ext", "3"],
    ["solve-extension", "sb", "2"],
    ["irreducible", "3", "--symbolic", "--a", "2", "--c", "1"],
    ["grid", "3", "--t", "2,3/2", "--ac", "2,1", "--random", "1"],
    ["kernel-probe", "4", "--pairs", "1,2;1,3"],
    ["involutions", "--check", "2"],
]


def test_every_report_echoes_its_inputs_as_json_values(capsys):
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert [argv[0] for argv in EVERY_SUBCOMMAND] == list(subparsers.choices)
    for argv in EVERY_SUBCOMMAND:
        out, _, code = run_in_process(capsys, [*argv, "--json"])
        assert code == 0, argv
        inputs = json.loads(out)["inputs"]
        assert type(inputs.get("n", 0)) is int, argv
        for name, value in inputs.items():
            assert isinstance(value, (int, bool, str, list)), (argv, name)
            if isinstance(value, str):
                assert value not in ("True", "False") and not value.startswith("["), (argv, name)


def test_the_involution_families_are_derived_once(capsys, monkeypatch):
    # One vsb2 solve and one case split per process, whether the CLI or a
    # library default asks for the families.
    calls, solves = [], []
    derive, solve = solver.solve_involution_2x2, solver.solve_with_residue

    def counting(system=None):
        calls.append(system)
        return derive(system)

    def counting_solve(*problem):
        if problem[0].mode == "virtual_singular":
            solves.append(problem)
        return solve(*problem)

    monkeypatch.setattr(solver, "solve_involution_2x2", counting)
    for module in (cli, solver):
        monkeypatch.setattr(module, "solve_with_residue", counting_solve)
    solver.involution_families.cache_clear()
    try:
        for argv in (["show-rep", "vsb2", "2", "--family", "3"],
                     ["verify", "vsb2", "2", "--family", "1", "--json"],
                     ["verify", "vsb2", "2", "--family", "5"],
                     ["involutions", "--check", "3"]):
            assert main(argv) == 0, argv
        assert [f.family_id for f in derive()] == [1, 2, 3, 4, 5]
        assert solver.involution_classify(Matrix(QQ, [[0, 1], [1, 0]])) == (1, {"p": 0, "q": 1})
    finally:
        solver.involution_families.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1
    (problem,) = solves
    assert problem[0].mode == "virtual_singular" and problem[0].n == 2


@pytest.mark.parametrize("problem", [
    *[lambda n=n: (build_presentation(n, "singular"), standard_rep(n),
                   [("t", i) for i in range(1, n)]) for n in (3, 4, 5)],
    vsb2_problem,
], ids=["sb3", "sb4", "sb5", "vsb2"])
def test_the_traced_assembly_counts_every_entry(problem):
    # The tracer's note on solver.assemble counts the entries as kept plus
    # discarded, the base of its kept_ratio: on the full presentation that
    # must be every entry of every relation, quadratics included.
    note = next(note for module, name, _, note in load_tracer().FUNCTION_SPANS
                if (module, name) == ("braidrep.solver", "assemble"))
    pres, known, unknown = problem()
    system = assemble(pres, known, unknown)
    counts = note((pres, known, unknown), system)
    assert counts["entries"] == known.dim ** 2 * len(pres.relations)
    assert counts["equations"] == len(system.equations)


def test_traced_spans_stay_on_the_irreducibility_path(capsys):
    # A span that leaves the call path it names reads a silent zero, so
    # trace one reducible and one irreducible op through the CLI, and one
    # grid of a reducible and an irreducible cell; each op lists its cells
    # as (n, reducible).
    tracer = load_tracer().Tracer()
    ops = [(["irreducible", "5", "--t", "1", "--a", "3", "--c", "-2", "--json"], [(5, True)]),
           (["irreducible", "4", "--t", "2", "--a", "3", "--c", "1", "--json"], [(4, False)]),
           (["grid", "3", "--t", "1", "--ac", "3,-2;2,1", "--json"], [(3, True), (3, False)])]
    tracer.install()
    try:
        for op, (argv, _) in enumerate(ops):
            tracer.op = op
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for op, (_, cells) in enumerate(ops):
        spans = [(name, notes) for name, _, _, _, at, notes in tracer.spans if at == op]
        names = [name for name, _ in spans]
        assert names.count("irreducibility.witness") == sum(r for _, r in cells)
        assert [notes["images"] for name, notes in spans if name == "irreducibility.span"] \
            == [2 * (n - 1) for n, _ in cells]
        assert [notes["reducible"] for name, notes in spans
                if name == "irreducibility.verdict"] == [int(r) for _, r in cells]


def test_traced_solver_spans_stay_on_the_solve_path(capsys):
    # One assembly, one linear solve and one residue pass per solve op; the
    # residue pass encloses the other two.
    tracer = load_tracer().Tracer()
    ops = [["solve-extension", "sb", "3", "--json"], ["solve-extension", "sb", "4", "--json"]]
    tracer.install()
    try:
        for op, argv in enumerate(ops):
            tracer.op = op
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for op in range(len(ops)):
        names = [name for name, _, _, _, at, _ in tracer.spans if at == op]
        for span in ("solver.assemble", "solver.solve_linear", "solver.residue"):
            assert names.count(span) == 1
        residue = next(k for k, rec in enumerate(tracer.spans)
                       if rec[0] == "solver.residue" and rec[4] == op)
        assert {rec[0] for rec in tracer.spans if rec[3] == residue} \
            >= {"solver.assemble", "solver.solve_linear"}


def test_the_witness_search_builds_no_dense_image():
    # One representation per witness branch: a rational eigenline, the
    # common fixed space, and the all-ones line.
    cases = [
        Representation(2, "braid", 3, {("s", 1): (1, Matrix(QQ, [[0, 4], [1, 0]])),
                                       ("s", 2): (0, Matrix(QQ, [[2, 0], [0, -2]]))}),
        specialize(f_rep(4), 2),
        specialized_extension(4, 1, 3, -2),
    ]
    embedded = []
    shapes = []
    dense_mul = Matrix.__mul__

    def refuse(*args):
        embedded.append(args)
        raise AssertionError("a dense image was built")

    def recording_mul(self, other):
        shapes.append((self.rows, self.cols, other.rows, other.cols))
        return dense_mul(self, other)

    saved = reps._embed
    reps._embed = refuse
    Matrix.__mul__ = recording_mul
    try:
        for rep in cases:
            verdict = is_irreducible(rep)
            assert verdict.status == "reducible" and verdict.witness is not None
    finally:
        reps._embed = saved
        Matrix.__mul__ = dense_mul
    assert embedded == []
    largest = max(block.rows for rep in cases for _, block in rep.local_images())
    assert all(max(shape) <= largest for shape in shapes)


def test_the_exact_closure_forms_no_word_product(monkeypatch):
    # Two-strand cells that reach the exact closure: t0 = 3 is not a
    # rational square, and over Q(t) no block has a rational eigenvalue.
    cases = [specialized_extension(2, 3, 1, 1), symbolic_extension(2, 1, 2)]
    closures = []
    shapes = []
    exact_span = irreducibility._exact_span
    dense_mul = Matrix.__mul__

    def refuse(*args):
        raise AssertionError("a word product was formed")

    def recording_span(images, d):
        closures.append(d)
        return exact_span(images, d)

    def recording_mul(self, other):
        shapes.append((self.rows, self.cols, other.rows, other.cols))
        return dense_mul(self, other)

    monkeypatch.setattr(matrix, "mul_local", refuse)
    monkeypatch.setattr(irreducibility, "mul_local", refuse, raising=False)
    monkeypatch.setattr(irreducibility, "_exact_span", recording_span)
    monkeypatch.setattr(Matrix, "__mul__", recording_mul)
    for rep in cases:
        assert is_irreducible(rep).span_dim == 2
    assert closures == [2, 2]
    largest = max(block.rows for rep in cases for _, block in rep.local_images())
    assert all(max(shape) <= largest for shape in shapes)


def test_the_spins_insert_into_echelon(monkeypatch):
    # A deficient cell and a full one, at t0 = 1 and t0 != 1, in both
    # modes: each modular spin keeps its d or d - 1 vectors, and neither the
    # exact spins nor the exact closure run.
    sizes = []
    tree = irreducibility._tree

    def recording(seed, moves, d):
        edges = tree(seed, moves, d)
        sizes.append(len(edges) + 1)
        return edges

    def refuse(*args):
        raise AssertionError("an exact fallback ran")

    monkeypatch.setattr(irreducibility, "_tree", recording)
    monkeypatch.setattr(irreducibility, "_exact_spins", refuse)
    monkeypatch.setattr(irreducibility, "_exact_span", refuse)
    for n in (3, 5):
        for t0, a, c in ((1, 2, -1), (2, 3, 1), (1, 3, 1)):
            for group in (False, True):
                sizes.clear()
                verdict = is_irreducible(specialized_extension(n, t0, a, c, group=group))
                assert verdict.span_dim in (n * n, 1 + (n - 1) ** 2)
                kept = n if verdict.irreducible else n - 1
                assert len(sizes) >= 2 and sizes == [kept] * len(sizes)
