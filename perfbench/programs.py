"""Workload programs and the answers each must give.

Every workload is a list of programs run through the `tokennets` CLI with
`--engine all`.  Generated programs are built from the workload seed here;
the engines only ever see the generated source text.  Each program carries
its expected answer, worked out from the program's structure (a closed form
or a property the method must have), never from saved engine output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TOL = 1e-9
HORIZON = 200

# The terminating corpus programs, named one by one so that files added to
# corpus/ later leave the workload unchanged.
CORPUS = (
    "bell.pcf",
    "coin.pcf",
    "coin_prob.pcf",
    "compose.pcf",
    "deep.pcf",
    "dup.pcf",
    "entangled.pcf",
    "id.pcf",
    "letrec_count.pcf",
    "max_pair.pcf",
    "pairs.pcf",
    "parallel.pcf",
)
# Programs that retry a fair coin until it succeeds.
COIN_RETRY = ("coin.pcf", "coin_prob.pcf")
# Programs that measure a Bell pair: two outcomes of probability 1/2.
BELL = ("bell.pcf",)

# Omega's horizon: msiam finishes in about 1.4 s here, while its cost per
# fused step already grows with the horizon.  A round of about 2 s gives a
# run some 14 rounds, enough for pcf's 0.09 s per round to settle.
DIVERGE_HORIZON = 3
# Qubits (and coins) per wide program: 2^8 equally likely outcomes.
WIDE_WIDTH = 8
# Depths of the nested S chains, doubling so that the growth of set-up and
# net-engine cost with net size shows.  Cost grows about as the square of
# the depth: these take about 4 s a round, so a run has some 8 rounds, and
# the few hundredths of a second pcf and msiam spend per round settle.
# Depth 200 alone takes about 12 s.
DEEP_DEPTHS = (20, 40, 80)
# Nesting depth of the program loaded through parse and typecheck only.
DEEP_FRONT_END_DEPTH = 1000


@dataclass(frozen=True)
class Expect:
    """The answer every engine must give.

    `probability` is the convergence probability, `truncated` whether the
    horizon cut the run short.  `uniform` is the number of equally likely
    terminal outcomes (every terminal entry then has mass 1/uniform), and
    `register` the value of the single nonzero integer register left in
    every terminal state.
    """

    probability: Fraction
    truncated: bool = False
    uniform: int | None = None
    register: int | None = None


@dataclass(frozen=True)
class Program:
    """One program as the CLI receives it.

    `path` is the file given to the CLI: relative to the checkout for
    corpus files, and for generated programs a file name in the run's
    scratch directory, where `source` is written (None for corpus files).  A program with `front_end_only` set is loaded through `parse`
    and `typecheck` alone and must type to `expect_type`.
    """

    name: str
    path: str
    backend: str
    horizon: int = HORIZON
    source: str | None = None
    expect: Expect | None = None
    front_end_only: bool = False
    expect_type: str | None = None


def retry_rounds(tol: float = TOL, horizon: int = HORIZON) -> int:
    """Rounds a fair retry-until-success loop runs before the CLI stops.

    After k rounds the reducible mass is 2^-k; the CLI stops once that mass
    falls below `tol`, or at the horizon.
    """
    k = 0
    while Fraction(1, 2**k) >= Fraction(tol) and k < horizon:
        k += 1
    return k


def corpus_programs(rng: random.Random) -> list[Program]:
    """The 12 terminating corpus programs, in an order drawn from the seed."""
    out = []
    for name in CORPUS:
        with open(f"corpus/{name}") as fh:
            header = fh.readline()
        if not header.startswith("-- backend:"):
            raise ValueError(f"corpus/{name} has no backend header")
        if name in COIN_RETRY:
            expect = Expect(1 - Fraction(1, 2 ** retry_rounds()))
        elif name in BELL:
            expect = Expect(Fraction(1), uniform=2)
        else:
            expect = Expect(Fraction(1))
        out.append(
            Program(name, f"corpus/{name}", header.split(":", 1)[1].strip(), expect=expect)
        )
    rng.shuffle(out)
    return out


def _tuple(parts: list[str]) -> str:
    body = parts[-1]
    for p in reversed(parts[:-1]):
        body = f"<{p}, {body}>"
    return body


def omega_source(rng: random.Random) -> str:
    """corpus/omega.pcf with its two bound names drawn from the seed."""
    f, x = (f"v{i}" for i in rng.sample(range(1000), 2))
    return f"letrec {f} {x} = {f} {x} in {f} new\n"


def wide_quantum_source(n: int, rng: random.Random) -> str:
    """n qubits, each prepared with H, entangled by a CNOT chain over an
    order drawn from the seed, then all measured.

    H on every qubit gives the uniform superposition and CNOT only permutes
    basis states, so each of the 2^n outcomes has probability 2^-n.  Each
    measurement returns a fresh qubit set to its outcome, so the outcomes
    stay distinct terminal states.
    """
    order = rng.sample(range(n), n)
    var = {order[0]: "q0"}
    lines = []
    for k in range(1, n):
        a, b = order[k - 1], order[k]
        src = var[a] if k > 1 else "H new"
        lines.append(f"let <c{k}, q{k}> = CNOT <{src}, H new> in")
        var[a], var[b] = f"c{k}", f"q{k}"
    lines.append(_tuple([f"(if {var[i]} then X new else new)" for i in range(n)]))
    return "\n".join(lines) + "\n"


def wide_prob_source(n: int) -> str:
    """n independent fair coins, each recorded in a fresh register.

    A true coin leaves a fresh register holding a new coin, a false one a
    fresh zero register, so the 2^n outcomes stay distinct, each with
    probability 2^-n.
    """
    return _tuple(["(if c new then c new else new)"] * n) + "\n"


def deep_source(depth: int) -> str:
    """S applied `depth` times to a fresh register: the register ends at depth."""
    return "S (" * depth + "new" + ")" * depth + "\n"


def workload(name: str, seed: int) -> list[Program]:
    """The programs of one workload, in run order, built from `seed`."""
    rng = random.Random(seed)
    if name == "corpus":
        return corpus_programs(rng)
    if name == "diverge":
        expect = Expect(Fraction(0), truncated=True)
        return [Program("omega", "omega.pcf", "int", DIVERGE_HORIZON, omega_source(rng), expect)]
    if name == "wide":
        n = WIDE_WIDTH
        uniform = Expect(Fraction(1), uniform=2**n)
        progs = [
            Program(f"wide-quantum-{n}", f"wide_quantum_{n}.pcf", "quantum",
                    source=wide_quantum_source(n, rng), expect=uniform),
            Program(f"wide-prob-{n}", f"wide_prob_{n}.pcf", "prob",
                    source=wide_prob_source(n), expect=uniform),
        ]
        rng.shuffle(progs)
        return progs
    if name == "deep":
        depths = list(DEEP_DEPTHS)
        rng.shuffle(depths)
        progs = [
            Program(f"deep-{d}", f"deep_{d}.pcf", "int", source=deep_source(d),
                    expect=Expect(Fraction(1), register=d))
            for d in depths
        ]
        d = DEEP_FRONT_END_DEPTH
        progs.append(
            Program(f"deep-{d}", f"deep_{d}.pcf", "int", source=deep_source(d),
                    front_end_only=True, expect_type="a")
        )
        return progs
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "diverge", "wide", "deep")
