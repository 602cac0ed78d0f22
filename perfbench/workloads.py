"""Seeded inputs for the four benchmark workloads.

A workload is an endless sequence of cycles; a cycle is a fixed list of op
slots.  The strand count of every slot is the same on every seed, so the mix
of strata (and the op at the median and at the tail percentile) never depends
on the seed; the seed draws only t, a, c, the Laurent parameters and the
kernel-probe strand pairs (and, for solve-sb, which has no parameters, the
order of the slots inside each cycle).

Every op carries ``expect``: the facts its checker needs, computed here from
the drawn parameters and never from braidrep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# t0 != 1 values for span-full; small heights keep the per-op cost of a slot
# nearly independent of the seed.
T_POOL = tuple(Fraction(x) for x in
               ("2", "-1", "3/2", "-2", "1/2", "3", "-3", "2/3", "-1/2", "4/3", "-3/2", "5/2"))
SMALL = range(-4, 5)


@dataclass(frozen=True)
class Op:
    kind: str        # "irreducible" | "solve-sb" | "verify" | "kernel-probe"
    n: int
    stratum: str     # cost class, e.g. "n6" or "n2-12d"; fixed per slot
    argv: tuple
    expect: dict = field(compare=False)


def _irreducible(n: int, stratum: str, t0: Fraction, a: Fraction, c: Fraction) -> Op:
    argv = ("irreducible", str(n), f"--t={t0}", f"--a={a}", f"--c={c}", "--json")
    return Op("irreducible", n, stratum, argv, {"t": t0, "a": a, "c": c})


def _full_cell(rng: random.Random, n: int, at_one: bool) -> Op:
    """A cell the dichotomy calls irreducible: t0 != 1, or t0 = 1 with
    a + c != 1; the tau block must be invertible (a^2 - t0 c^2 != 0)."""
    while True:
        t0 = Fraction(1) if at_one else rng.choice(T_POOL)
        a, c = Fraction(rng.choice(SMALL)), Fraction(rng.choice(SMALL))
        if c != 0 and a * a != t0 * c * c and (t0 != 1 or a + c != 1):
            return _irreducible(n, f"n{n}", t0, a, c)


def _deficient_cell(rng: random.Random, n: int) -> Op:
    """t0 = 1 and a + c = 1, with a != c so the tau block is invertible."""
    while True:
        a = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        c = 1 - a
        if a != c:
            return _irreducible(n, f"n{n}", Fraction(1), a, c)


def _watch_cell(rng: random.Random, digits: int) -> Op:
    """A two-strand cell whose t has a numerator of exactly ``digits``
    digits from the top tenth of that range, so the trial division of the
    rational-root search costs about the same on every seed."""
    top = 10 ** digits
    while True:
        p = rng.randrange(top - top // 10, top) * rng.choice((1, -1))
        t0 = Fraction(p, rng.choice((1, 2, 3, 5, 7)))
        a, c = Fraction(rng.choice(SMALL)), Fraction(rng.choice((1, 2, 3)))
        if t0 != 1 and a * a != t0 * c * c:
            return _irreducible(2, f"n2-{digits}d", t0, a, c)


def _laurent_text(rng: random.Random) -> str:
    """A two-term Laurent literal, such as '3*t^2-2*t^-1'."""
    exps = rng.sample(range(-2, 3), 2)
    out = ""
    for e in sorted(exps, reverse=True):
        coeff = rng.choice([k for k in range(-5, 6) if k])
        body = str(abs(coeff)) if e == 0 else f"{abs(coeff)}*t^{e}"
        out += ("-" if coeff < 0 else ("+" if out else "")) + body
    return out


def _verify(rng: random.Random, n: int) -> Op:
    a, c = _laurent_text(rng), _laurent_text(rng)
    argv = ("verify", "singular-ext", str(n), f"--a={a}", f"--c={c}", "--json")
    return Op("verify", n, f"verify-n{n}", argv, {"a": a, "c": c})


def _kernel_probe(rng: random.Random, n: int) -> Op:
    """Two probes, each a pair of pure-braid generators that share exactly
    one strand."""
    texts = []
    for _ in range(2):
        x, y, z = sorted(rng.sample(range(1, n + 1), 3))
        pairs = rng.choice([((x, y), (x, z)), ((x, y), (y, z)), ((x, z), (y, z))])
        if rng.random() < 0.5:
            pairs = pairs[::-1]
        texts.append(";".join(f"{i},{j}" for i, j in pairs))
    argv = ["kernel-probe", str(n), f"--a={_laurent_text(rng)}", f"--c={_laurent_text(rng)}"]
    for text in texts:
        argv += ["--pairs", text]
    return Op("kernel-probe", n, "kernel-probe", tuple(argv + ["--json"]), {"pairs": texts})


# Shares are chosen so that, on every seed, the median op falls three
# quarters of the way into one stratum and the tail percentile inside the top
# one, away from any boundary between strata, so that neither jumps from one
# stratum's cost to another's between runs.

def _span_full(rng, k):
    # Every fourth cycle sits at t0 = 1 (the minority share).
    return [_full_cell(rng, n, at_one=(k % 4 == 3)) for n in (6, 6, 5, 5, 4)]


def _span_deficient(rng, k):
    last = (_deficient_cell(rng, 4) if k % 2 == 0
            else _watch_cell(rng, 12 if k % 4 == 3 else 6))
    return [_deficient_cell(rng, 6), _deficient_cell(rng, 6), _deficient_cell(rng, 5),
            _deficient_cell(rng, 5), last]


def _solve_sb(rng, k):
    slots = [5, 5, 4, 4, 3]
    rng.shuffle(slots)
    return [Op("solve-sb", n, f"n{n}", ("solve-extension", "sb", str(n), "--json"), {})
            for n in slots]


def _verify_words(rng, k):
    kp = [5 + (2 * k + j) % 5 for j in range(2)]
    # Four n = 6 verifies, so that the median lies inside them even where a
    # nine-strand kernel probe costs as much as one of them.
    return [_verify(rng, 10), _kernel_probe(rng, kp[0]), _verify(rng, 8), _verify(rng, 6),
            _verify(rng, 10), _kernel_probe(rng, kp[1]), _verify(rng, 6), _verify(rng, 6),
            _verify(rng, 6)]


WORKLOADS = {
    "span-full": _span_full,
    "span-deficient": _span_deficient,
    "solve-sb": _solve_sb,
    "verify-words": _verify_words,
}

# The costliest stratum of each workload, where the tail percentile must lie.
TAIL_STRATUM = {
    "span-full": "n6",
    "span-deficient": "n6",
    "solve-sb": "n5",
    "verify-words": "verify-n10",
}


def iter_cycles(workload: str, seed: int):
    """The cycles of the workload for this seed, endlessly."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    k = 0
    while True:
        yield make(rng, k)
        k += 1
