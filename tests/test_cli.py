"""The braidrep command line: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from braidrep import Matrix, SymPoly, cli, laurent, solver
from braidrep.cli import main
from braidrep.irreducibility import grid_cell
from braidrep.presentations import build_presentation
from braidrep.reps import Representation, standard_rep
from braidrep.symbolic import SYMBOLIC


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_show_rep_standard(capsys):
    code, out, _ = run_cli(capsys, "show-rep", "standard", "3")
    assert code == 0
    assert "standard: n=3, dim=3, domain=laurent" in out
    assert "s1 ->" in out and "s2 ->" in out


def test_show_rep_rejects_one_strand(capsys):
    code, out, err = run_cli(capsys, "show-rep", "standard", "1")
    assert code == 2
    assert "error:" in err


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as info:
        main(["irreducible", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize("kind,n", [
    ("standard", 4), ("burau", 3), ("f", 3), ("singular-ext", 3), ("vsb2", 2),
])
def test_verify_catalog_representations(capsys, kind, n):
    code, out, _ = run_cli(capsys, "verify", kind, str(n))
    assert code == 0
    assert "status: pass" in out


def test_verify_vsb2_other_families(capsys):
    # A family's own free entries may be set; see INAPPLICABLE_OPTIONS for others.
    for options in (["1", "--p", "2", "--q", "3"], ["2", "--r", "5"], ["3"], ["4"], ["5"]):
        code, out, _ = run_cli(capsys, "verify", "vsb2", "2", "--family", *options)
        assert code == 0 and "status: pass" in out


def test_solve_extension_two_strands(capsys):
    code, out, _ = run_cli(capsys, "solve-extension", "sb", "2")
    assert code == 0
    assert "free parameters: a, c" in out
    assert "d = a" in out and "b = c*t" in out
    assert "nonlinear residue after the linear solve: 0 equations" in out
    assert "residual free parameters beyond the block pair: none" in out
    assert "matches the embedded-block form after setting them to 1: True" in out
    assert "status: pass" in out


def test_solve_extension_three_strands(capsys):
    code, out, _ = run_cli(capsys, "solve-extension", "sb", "3")
    assert code == 0
    assert "assembled 32 equations in 18 unknowns" in out
    assert "free parameters: a1, d1, i1" in out
    assert "nonlinear residue after the linear solve: 0 equations" in out
    assert "residual free parameters beyond the block pair: i1" in out
    assert "matches the embedded-block form after setting them to 1: True" in out
    assert "status: pass" in out


def test_solve_extension_four_strands(capsys):
    code, out, _ = run_cli(capsys, "solve-extension", "sb", "4")
    assert code == 0
    assert "nonlinear residue after the linear solve: 0 equations" in out
    assert "residual free parameters beyond the block pair: k1" in out
    assert "matches the embedded-block form after setting them to 1: True" in out
    assert "status: pass" in out


@pytest.mark.parametrize("n,digest", [
    ("4", "74a91c401b707155069e642379945c66f0b8d5982e81c1a2d89a7a3ee0ee4d3d"),
    ("5", "e0025e4f5cf7cfefa615fa97376a7d67788ceaf092ecfa12b81cd1b9708f2646"),
    ("6", "f4c4d3942a6a711ff771d6fc046e10405eb33a25ce57815dbb9e4161273af8b5"),
], ids=["4", "5", "6"])
def test_solve_extension_json_report_is_pinned(capsys, n, digest):
    # SHA-256 of the whole report without the two block-form keys, so the
    # free set, every binding string and the residue for n >= 4 are held
    # fixed, not just the summary lines.
    code, report, _ = run_json(capsys, "solve-extension", "sb", n)
    assert code == 0
    del report["result"]["matches_block_form"]
    del report["result"]["residual_free_parameters"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Each case's id is its argv alone, so that a moved digest renames no test.
PINNED_REPORTS = [
    # Deficient span with the all-ones witness, a full span, an eigenline
    # witness, a denominator in t, and a span over Q(t).
    ("irreducible 6 --t 1 --a 3 --c -2", 0,
     "73fd6f26d770c1d5fb0ee63456ec2f038b0c6a2e55187c1be4636550b4cb23a4"),
    ("irreducible 5 --t 2 --a 3 --c 1", 0,
     "6ef5852dd4241b92e4d72b540e5908903f11bfcb3970c9d8d500f77e676bfc58"),
    ("irreducible 2 --t 4 --a 1 --c 1", 0,
     "816523000fdc191d62e51f27d29fef153923bffa966c4b3e4f561072c09f2c36"),
    ("irreducible 3 --t 1/3 --a 2 --c 1", 0,
     "db2485e85650ac3e3de539fed17b4bdce3382808ecd3c54681c1c4281120868c"),
    ("irreducible 3 --symbolic --a 2 --c 1", 0,
     "451b755b7683c1d567a9672af1abe4ded4214ce742d6e0f45bbf0a06618d360f"),
    ("show-rep singular-ext 3 --a 1+t --c t^-1", 0,
     "fbb4a4338527795f09be496e22d1efc242ba51f806dc2f0c5fe84b503d6105f1"),
    ("show-rep f 3", 0, "d0cda6bbf4d40309b29809d9fe41a190ceaeafd3776ad6f5a096b9aa69767235"),
    ("show-rep vsb2 2 --family 1 --p 2 --q 3", 0,
     "59eef9ef28b318182f4e5f0fd33086859e914dab6bea4840f6683ad6a29b03e3"),
    # Every involution family's v-image and relation check: Laurent and
    # integer free entries, a quotient that divides exactly, the defaults
    # (0, or 1 where the family needs it nonzero), and group mode.
    ("show-rep vsb2 2 --family 1 --p t --q 1-t", 0,
     "102b409d157209676e2127b67a41879af5f8096b29d11596c28ce5135f68efa3"),
    ("verify vsb2 2 --family 1 --p 3 --q 2", 0,
     "12800ed75b866b4403a860d18f23aa8d24f27a9ed64f4dfe291351c3269b29bd"),
    ("show-rep vsb2 2", 0, "36d87726929f3ee30840b018cf3a3638cdacb746df3da5cd6cbc9163c4be6393"),
    ("verify vsb2 2 --family 2 --r t^-1", 0,
     "f5b66a70e39c398433d1ba0f00662ad59b2972fa6adf2f4f944f12343bbc0dcc"),
    ("show-rep vsb2 2 --family 2 --r 5", 0,
     "ef54d2a294cf480a911bba5ce70136cc22c70cffa461f006e338f80f70679ffb"),
    ("verify vsb2 2 --family 3 --r -7 --a 0 --c 1 --group", 0,
     "3b8b4dc99f3e5c56260c12d2094aadf28e75d2f08212d73136e102632e2072c2"),
    ("show-rep vsb2 2 --family 3", 0,
     "202c09ae747e39d2ae7ec0b622a552bf12ea7b59ca5ce23bf53d3e4d14df9549"),
    ("verify vsb2 2 --family 4", 0,
     "947bed5f930d80b50b69ba283860389ad7a506512dab8ccd0d04f8cf6220fcf5"),
    ("show-rep vsb2 2 --family 4 --a t --c 2", 0,
     "02b6c823c1a5b4067da148de3d0073cbb06374c1bd1fb56c51288fbb5c6150f2"),
    ("verify vsb2 2 --family 5 --group --a 0 --c 1", 0,
     "e08775d4ece7df7a46c61f02fe649e4bc102ca89c64e9b432e32b3cbc48ea1fa"),
    ("show-rep vsb2 2 --family 5", 0,
     "76682db9e534c1dc056c0a253d47e7d5b845c4e0dfdedfd68df41bbe95baae1a"),
    ("verify singular-ext 4 --a 0 --c 1 --group", 0,
     "393ed32ddc1e8474b1eff1ff6f6cfc39837f61c83ea9b52129cc10bc016ee463"),
    # Ten strands: 145 relations in 8 shapes, each shape multiplied once.
    ("verify singular-ext 10 --a 3*t^2-2*t^-1 --c 1+t", 0,
     "aa248376b30f8b0c4cf5a45078fb85bf6813b63a95ea9918f7cf7b63ecc3df0d"),
    # The quadratics of the vsb2 problem, the families derived from them
    # and a seeded classification.
    ("solve-extension vsb2 2", 0,
     "21941d1441a0c1ee80764d29c2c537b2e257b68e43c11299a31220777ed8449f"),
    ("involutions --check 25", 0,
     "6ae5791a0f7d365a4864d5c08e4b3589568f047b897688619f054f2dd9aa1255"),
    # 1 - t is not a unit: a usage error with nothing on stdout.
    ("verify singular-ext 4 --a 1 --c 1 --group", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS,
                         ids=[argv for argv, _, _ in PINNED_REPORTS])
def test_json_reports_are_pinned(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("BRAIDREP_SEED", "0")  # the classification samples are seeded
    try:
        got = main([*argv.split(), "--json"])
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("options,message", [
    # The dividend is printed as the family's binding prints it.
    (["--p", "0", "--q", "t+1"],
     "error: q = t + 1 does not divide -p^2 + 1 = 1 in the Laurent ring\n"),
    (["--q", "0"], "error: family 1 requires q != 0\n"),
])
@pytest.mark.parametrize("command", ["show-rep", "verify"])
def test_vsb2_family_one_refuses_a_quotient_outside_the_ring(capsys, command, options, message):
    for json_flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, command, "vsb2", "2", "--family", "1", *options,
                                 *json_flag)
        assert (code, out, err) == (2, "", message)


def test_a_far_quotient_is_refused_without_a_gcd(capsys, monkeypatch):
    # The quotient is decided by exact division in the Laurent ring.  A
    # reduction of top/bottom in Q(t) runs a dense Euclid whose time grows
    # with the square of the exponent.
    def refuse(f, g):
        raise AssertionError("laurent_gcd was called")

    monkeypatch.setattr(laurent, "laurent_gcd", refuse)
    code, out, err = run_cli(capsys, "show-rep", "vsb2", "2", "--family", "1",
                             "--p", "t^1000000+t", "--q", "t^1000000+1")
    assert (code, out) == (2, "")
    assert err == ("error: q = t^1000000 + 1 does not divide -p^2 + 1 = -t^2000000 "
                   "- 2*t^1000001 - t^2 + 1 in the Laurent ring\n")


@pytest.mark.parametrize("n,residual", [
    (2, []), (3, ["i1"]), (4, ["k1"]), (5, ["m1"]), (6, ["x3_3_1"]),
])
def test_solve_extension_reports_the_block_form(capsys, n, residual):
    code, report, _ = run_json(capsys, "solve-extension", "sb", str(n))
    assert code == 0
    assert report["status"] == report["result"]["status"] == "pass"
    assert report["result"]["matches_block_form"] is True
    assert report["result"]["residue"] == []
    assert report["result"]["residual_free_parameters"] == residual


def test_irreducible_symbolic_zero_tau_is_a_usage_error(capsys):
    # In group mode tau must be invertible: a = c = 0 makes it the zero block.
    code, out, err = run_cli(capsys, "irreducible", "3", "--a", "0", "--c", "0", "--symbolic")
    assert code == 2
    assert out == ""
    assert "is not a unit" in err


def test_solve_extension_vsb2(capsys):
    code, report, _ = run_json(capsys, "solve-extension", "vsb2", "2")
    assert code == 0
    assert report["status"] == "pass"
    result = report["result"]
    assert len(result["families"]) == 5
    assert all(result["squares_to_identity"][str(k)] for k in range(1, 6))
    assert len(result["system"]["nonlinear"]) == 4


def test_solve_extension_vsb2_wrong_strands(capsys):
    code, _, err = run_cli(capsys, "solve-extension", "vsb2", "3")
    assert code == 2 and "two-strand" in err


def test_irreducible_specialized(capsys):
    code, out, _ = run_cli(capsys, "irreducible", "3", "--t", "2", "--a", "0", "--c", "1")
    assert code == 0
    assert "span 9 of 9 -> irreducible" in out
    assert "status: pass" in out


def test_irreducible_reducible_with_witness(capsys):
    code, out, _ = run_cli(capsys, "irreducible", "3", "--t", "1", "--a", "2", "--c", "-1")
    assert code == 0
    assert "-> reducible" in out
    assert "invariant subspace witness: (1, 1, 1)" in out
    assert "status: pass" in out


def test_irreducible_two_strand_divergence(capsys):
    code, report, _ = run_json(capsys, "irreducible", "2", "--t", "2", "--a", "0", "--c", "1")
    assert code == 0
    assert report["status"] == "divergence"
    assert report["result"]["span_dim"] == 2
    assert report["result"]["predicted"] == "irreducible"


def test_irreducible_two_strands_with_a_huge_non_square_t():
    # The eigenvalue search on x^2 - t once divided by trial up to sqrt(t),
    # about 3e10 steps here; bisection between critical points answers at once.
    proc = subprocess.run(
        [sys.executable, "-m", "braidrep.cli", "irreducible", "2",
         "--t", "1000000000000000000000", "--a", "1", "--c", "0", "--json"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["status"] == "divergence"
    assert report["result"]["span_dim"] == 2
    assert "witness" not in report["result"]


def test_irreducible_symbolic_two_strands(capsys):
    # Over Q(t) the two-strand algebra is Q(t)[sigma], of dimension 2.
    code, out, _ = run_cli(capsys, "irreducible", "2", "--a", "0", "--c", "1", "--symbolic")
    assert code == 0
    assert "span 2 of 4 -> reducible" in out
    assert "status: divergence" in out


def test_irreducible_needs_t_or_symbolic(capsys):
    code, _, err = run_cli(capsys, "irreducible", "3", "--a", "1", "--c", "1")
    assert code == 2 and "--t or --symbolic" in err


def test_irreducible_takes_t_or_symbolic_not_both(capsys):
    # The --symbolic verdict is over Q(t), so a --t beside it would be echoed
    # as an input that played no part; at t = 4 the block (2, 1) is singular.
    for json_flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, "irreducible", "3", "--t", "4", "--a", "2", "--c", "1",
                                 "--symbolic", *json_flag)
        assert code == 2 and out == "" and "--t and --symbolic" in err


def test_singular_tau_is_one_usage_error_in_both_commands(capsys):
    # (a, c) = (1, 1) makes the tau block singular at t = 1.
    code, out, err = run_cli(capsys, "irreducible", "3", "--t", "1", "--a", "1", "--c", "1")
    assert code == 2 and out == ""
    assert "(a, c) = (1, 1) at t = 1" in err and "is not a unit" in err
    assert run_cli(capsys, "grid", "3", "--t", "1", "--ac", "1,1") == (2, "", err)


PARITY_CELLS = [(n, t0, a, c) for n in (2, 3, 4, 5)
                for t0, a, c in (("1", "3", "-2"), ("1", "2", "1"), ("2", "0", "1"),
                                 ("-1/2", "3", "1"), (None, "2", "1"), (None, "0", "1"))]


@pytest.mark.parametrize("n,t0,a,c", PARITY_CELLS)
def test_irreducible_reports_the_grid_cell(capsys, n, t0, a, c):
    where = ["--symbolic"] if t0 is None else [f"--t={t0}"]
    code, report, _ = run_json(capsys, "irreducible", str(n), *where, "--a", a, "--c", c)
    result = report["result"]
    if t0 is None:
        cell = grid_cell(n, None, a, c)
        expected, status = cell.to_json_dict(), cell.status
    else:
        _, grid, _ = run_json(capsys, "grid", str(n), f"--t={t0}", "--ac", f"{a},{c}")
        (expected,), status = grid["result"]["cells"], grid["status"]
    assert (result["span_dim"], result["status"], result["predicted"], result["agree"]) \
        == (expected["span_dim"], expected["verdict"], expected["predicted"], expected["agree"])
    assert report["status"] == status
    assert code == (1 if status == "fail" else 0)


def test_grid_three_strands(capsys):
    code, out, _ = run_cli(capsys, "grid", "3", "--t", "2,-1", "--ac", "0,1;2,-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,t0,a,c,span_dim,verdict,predicted,agree"
    assert "agreements: 4/4" in out
    assert "status: pass" in out


def test_grid_two_strand_watch(capsys):
    code, out, _ = run_cli(capsys, "grid", "2", "--t", "2", "--ac", "0,1")
    assert code == 0
    assert "status: divergence" in out


def test_grid_random_sampling_is_seeded(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDREP_SEED", "11")
    code1, out1, _ = run_cli(capsys, "grid", "3", "--t", "2", "--random", "3")
    code2, out2, _ = run_cli(capsys, "grid", "3", "--t", "2", "--random", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    monkeypatch.setenv("BRAIDREP_SEED", "12")
    _, out3, _ = run_cli(capsys, "grid", "3", "--t", "2", "--random", "3")
    assert out3.splitlines()[0] == out1.splitlines()[0]


def test_grid_needs_samples(capsys):
    code, _, err = run_cli(capsys, "grid", "3")
    assert code == 2 and "at least one" in err


def test_kernel_probe_default(capsys):
    code, out, _ = run_cli(capsys, "kernel-probe", "3")
    assert code == 0
    assert "image is the identity" in out
    assert "nontriviality: cited:pure-braid-commutator" in out
    assert "status: pass" in out


def test_kernel_probe_rejects_disjoint_pairs(capsys):
    code, out, _ = run_cli(capsys, "kernel-probe", "4", "--pairs", "1,2;3,4")
    assert code == 1
    assert "rejected" in out
    assert "status: fail" in out


@pytest.mark.parametrize("pairs", ["0,5;1,2", "1,2;3,5", "2,1;2,1"])
def test_kernel_probe_strands_out_of_range_are_usage_errors(capsys, pairs):
    # The strands are checked before the guard can call the pairs commuting.
    code, out, err = run_cli(capsys, "kernel-probe", "4", "--pairs", pairs)
    assert code == 2
    assert out == "" and "need 1 <= i < j <= n" in err


def test_kernel_probe_multiple_pairs(capsys):
    code, report, _ = run_json(
        capsys, "kernel-probe", "4", "--pairs", "1,2;1,3", "--pairs", "2,3;3,4")
    assert code == 0
    assert len(report["result"]["certificates"]) == 2
    assert report["result"]["rejected"] == []
    assert report["inputs"]["pairs"] == [[[1, 2], [1, 3]], [[2, 3], [3, 4]]]
    assert report["inputs"]["n"] == 4


def test_kernel_probe_echoes_the_default_pair(capsys):
    code, report, _ = run_json(capsys, "kernel-probe", "4")
    assert code == 0
    assert report["inputs"]["pairs"] == [[[1, 2], [1, 3]]]
    assert len(report["result"]["certificates"]) == 1


# What each representation kind reads besides --p/--q/--r, at the values
# used when an option is not given, and each vsb2 family's free entries at
# theirs: 0, or 1 where the family needs the entry nonzero.
KIND_DEFAULTS = {
    "standard": {}, "burau": {}, "f": {},
    "singular-ext": {"a": "1", "c": "1", "group": False},
    "vsb2": {"a": "1", "c": "1", "family": 1, "group": False},
}
FAMILY_FREE = {1: {"p": "0", "q": "1"}, 2: {"r": "0"}, 3: {"r": "0"}, 4: {}, 5: {}}


@pytest.mark.parametrize("command", ["show-rep", "verify"])
@pytest.mark.parametrize("argv,expected", [
    *[([kind, "3"], defaults) for kind, defaults in KIND_DEFAULTS.items() if kind != "vsb2"],
    (["singular-ext", "3", "--a", "0", "--c", "1", "--group"],
     {"a": "0", "c": "1", "group": True}),
    (["vsb2", "2"], {**KIND_DEFAULTS["vsb2"], **FAMILY_FREE[1]}),
    *[(["vsb2", "2", "--family", str(k)], {**KIND_DEFAULTS["vsb2"], "family": k, **free})
      for k, free in FAMILY_FREE.items()],
    (["vsb2", "2", "--family", "1", "--p", "2", "--a", "t"],
     {**KIND_DEFAULTS["vsb2"], "a": "t", "p": "2", "q": "1"}),
    (["vsb2", "2", "--family", "2", "--r", "t^-1", "--group", "--a", "0", "--c", "1"],
     {"a": "0", "c": "1", "family": 2, "group": True, "r": "t^-1"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_inputs_echo_exactly_what_the_kind_read(capsys, command, argv, expected):
    code, report, _ = run_json(capsys, command, *argv)
    assert code == 0
    assert report["inputs"] == {"command": command, "kind": argv[0], "n": int(argv[1]), **expected}


# Options that parse but cannot apply: refused once the representation is
# chosen, naming its kind, its strand count or the chosen family's free
# entries.
INAPPLICABLE_OPTIONS = {
    ("show-rep", "vsb2", "2", "--family", "4", "--r", "5", "--json"):
        "error: --r does not apply to vsb2 family 4, whose free entries are none",
    ("show-rep", "standard", "3", "--p", "5"):
        "error: --p does not apply to the standard representation",
    ("show-rep", "standard", "3", "--family", "3", "--group", "--a", "5", "--json"):
        "error: --a, --family, --group does not apply to the standard representation",
    ("verify", "burau", "3", "--c", "2"):
        "error: --c does not apply to the burau representation",
    ("verify", "f", "3", "--group", "--json"):
        "error: --group does not apply to the f representation",
    ("verify", "singular-ext", "3", "--family", "2"):
        "error: --family does not apply to the singular-ext representation",
    ("show-rep", "vsb2", "3"): "error: the vsb2 representation is two-strand only",
}


@pytest.mark.parametrize("argv", [
    ["kernel-probe", "4", "--pairs", "a,b;1,3"],
    ["grid", "3", "--t", "abc"],
    ["grid", "3", "--t", "1/0"],
    ["grid", "3", "--t", "2", "--ac", "1,x"],
    ["involutions", "--check", "-5"],
    ["grid", "3", "--ac", "2,1", "--random", "-2"],
    *map(list, INAPPLICABLE_OPTIONS),
    ["grid", "3", "--random", "x"],
    ["grid", "3", "--ac", "1,2,3"],
    ["kernel-probe", "4", "--pairs", "1,2"],
])
def test_malformed_arguments_are_usage_errors(capsys, argv):
    message = INAPPLICABLE_OPTIONS.get(tuple(argv))
    if message:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message)
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: braidrep")
    assert "Traceback" not in err


def test_verify_reports_a_violated_relation(capsys, monkeypatch):
    build = cli.singular_extension

    def one_wrong_tau(n, a, c, group=False):
        # tau_1's block with its (1, 1) entry raised by one.
        rep = build(n, a, c, group=group)
        blocks = {key: rep.local_image(*key) for key in rep.generator_keys()}
        offset, block = blocks[("t", 1)]
        entries = [list(row) for row in block.entries]
        entries[0][0] += 1
        blocks[("t", 1)] = (offset, Matrix(rep.domain, entries))
        return Representation(rep.n, rep.mode, rep.dim, blocks, group=rep.group)

    monkeypatch.setattr(cli, "singular_extension", one_wrong_tau)
    code, out, _ = run_cli(capsys, "verify", "singular-ext", "3")
    assert code == 1
    assert "\nviolated: " in out and out.endswith("status: fail\n")
    code, report, _ = run_json(capsys, "verify", "singular-ext", "3")
    assert code == 1 and report["status"] == "fail"
    violations = report["result"]["violations"]
    assert violations and out.count("violated: ") == len(violations)
    for v in violations:
        assert set(v) == {"relation", "kind", "indices", "lhs", "rhs", "diff"}
        assert v["lhs"] != v["rhs"]


def test_kernel_probe_two_strands_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kernel-probe", "2")
    assert code == 2


def test_involutions_with_classification(capsys, monkeypatch):
    monkeypatch.setenv("BRAIDREP_SEED", "0")
    code, report, _ = run_json(capsys, "involutions", "--check", "25")
    assert code == 0
    result = report["result"]
    assert result["classified"]["total"] == 25
    assert sum(result["classified"]["by_family"].values()) == 25
    assert [f["family"] for f in result["families"]] == [1, 2, 3, 4, 5]


@pytest.mark.slow
def test_solve_extension_twelve_strands_passes(capsys):
    # From 12 strands on, entry names like x1_11 + "1" and x1_1 + "11"
    # collided before the suffix got its own separator.
    code, report, _ = run_json(capsys, "solve-extension", "sb", "12")
    assert code == 0
    assert report["status"] == "pass"
    assert report["result"]["residual_free_parameters"] == ["x3_3_1"]


@pytest.mark.slow
def test_solve_extension_sixteen_strands_passes(capsys):
    code, report, _ = run_json(capsys, "solve-extension", "sb", "16")
    assert code == 0
    assert report["status"] == "pass"
    result = report["result"]
    assert len(result["family"]["free"]) == 3
    assert result["residue"] == []
    assert result["matches_block_form"] is True


def test_solve_extension_never_assembles_a_quadratic_relation(capsys, monkeypatch):
    received, returned = [], []
    assemble, solve = solver.assemble, cli.solve_with_residue

    def recording_assemble(pres, known, unknown_gens):
        received.extend(pres.relations)
        return assemble(pres, known, unknown_gens)

    def recording_solve(*args):
        returned.append(solve(*args))
        return returned[-1]

    monkeypatch.setattr(solver, "assemble", recording_assemble)
    monkeypatch.setattr(cli, "solve_with_residue", recording_solve)
    code, report, _ = run_json(capsys, "solve-extension", "sb", "5")
    assert (code, report["status"]) == (0, "pass")
    assert received
    for rel in received:
        assert all(sum(g.kind == "t" for g in side) <= 1 for side in (rel.lhs, rel.rhs)), rel
    (system, _, _), = returned
    assert all(e.degree() <= 1 and e.variables() <= set(system.unknowns)
               for e in system.equations)
    assert (len(system.equations) + system.discarded_zero + system.discarded_duplicate
            == 25 * len(received))


def test_a_failed_residue_check_is_a_divergence(capsys, monkeypatch):
    honest, calls = solver.solved_images, []

    def tampered(family, dim, unknown_gens):
        # A free symbol z at the (1, 4) entry of t_1, off its 2x2 block, on
        # the first call since ``calls`` was emptied: the residue check's.
        # block_form_match's call after it stays honest.
        images = honest(family, dim, unknown_gens)
        if not calls:
            entries = [list(row) for row in images[("t", 1)].entries]
            entries[0][3] = SymPoly.symbol("z")
            images[("t", 1)] = Matrix(SYMBOLIC, entries)
        calls.append(dim)
        return images

    monkeypatch.setattr(solver, "solved_images", tampered)
    _, _, residue = solver.solve_with_residue(
        build_presentation(4, "singular"), standard_rep(4), [("t", i) for i in range(1, 4)])
    assert residue
    assert all("z" in p.variables() for p in residue)
    calls.clear()
    code, report, _ = run_json(capsys, "solve-extension", "sb", "4")
    assert code == 0
    assert report["status"] == report["result"]["status"] == "divergence"
    assert report["result"]["matches_block_form"] is True
    assert report["result"]["residue"] == [str(p) for p in residue]


@pytest.mark.parametrize("argv", [["solve-extension", "vsb2", "2"], ["involutions"]])
def test_a_tampered_involution_family_fails(capsys, monkeypatch, argv):
    derive = solver.solve_involution_2x2

    def tampered(system=None):
        # Family 1 with s = p instead of s = -p.
        families = derive(system)
        bindings = dict(families[0].bindings, s=(SymPoly.symbol("p"), SymPoly.const(1)))
        return [replace(families[0], bindings=bindings)] + families[1:]

    monkeypatch.setattr(solver, "solve_involution_2x2", tampered)
    # The families are derived once per process: clear the cache so that
    # the tampered ones reach the report, and again so that none stay.
    solver.involution_families.cache_clear()
    try:
        code, report, _ = run_json(capsys, *argv)
        assert code == 1
        assert report["status"] == "fail"
        assert report["result"]["squares_to_identity"]["1"] is False
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert "every family squares to the identity: False" in out
        assert "status: fail" in out
    finally:
        solver.involution_families.cache_clear()


def test_json_reports_carry_the_run_shape(capsys):
    for argv in (
        ["verify", "standard", "3"],
        ["solve-extension", "sb", "2"],
        ["irreducible", "3", "--t", "2", "--a", "1", "--c", "1"],
        ["grid", "2", "--t", "2", "--ac", "0,1"],
        ["kernel-probe", "3"],
        ["involutions"],
    ):
        _, report, _ = run_json(capsys, *argv)
        assert set(report) == {"command", "inputs", "result", "status"}
        assert report["command"] == argv[0]
        assert report["inputs"]["command"] == argv[0]


def test_json_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "solve-extension", "sb", "3", "--json")
    _, out2, _ = run_cli(capsys, "solve-extension", "sb", "3", "--json")
    assert out1 == out2


def test_a_closed_stdout_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidrep.cli", "show-rep", "singular-ext", "40", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "braidrep.cli", "verify", "standard", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status: pass" in proc.stdout
