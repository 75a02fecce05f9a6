"""Command-line runner: evaluate a program under one or all engines.

Parses and typechecks the program, translates it to a net, and reports the
convergence probability and terminal distribution for the selected engine(s):
`pcf` reduces the term directly, `net` rewrites the translated program net,
and `msiam` runs the multi-token machine on it.  Under `all`, the pairwise
probability deltas are reported and the run fails if any exceeds the
tolerance.  Exit codes: 2 bad input (unreadable or non-UTF-8 program,
parse error, missing or malformed `--gates` file, non-integer
`MSIAM_SEED`, a flag value out of range), 3 type error, 4 engine
disagreement, 5 the translated net is malformed or fails its correctness
check (an internal fault), 6 any other internal fault (for instance a
program nested too deeply for the parser, or a case an engine does not
implement), 1 diamond-check failure.  Each failure prints a one-line
message on stderr (after argparse's usage line, for a flag value), never
a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .memory import int_backend, prob_backend, quantum_backend, read_text
from .msiam import MsSystem
from .nets import InvalidNetError, check_correct
from .pars import (
    Distribution,
    FusedSystem,
    check_diamond,
    leftmost_policy,
    lifted_steps,
    seeded_policy,
)
from .pcfll import Closure, ParseError, PcfSystem, TypecheckError, parse, term_str, typecheck
from .prognets import PnSystem
from .translate import translate

ENGINES = ("pcf", "net", "msiam")


def build_backend(name: str, gates: str | None):
    if name == "int":
        return int_backend()
    if name == "prob":
        return prob_backend()
    return quantum_backend(gates)


def make_engine(name: str, term, backend, pn):
    """(fused system, prepared initial element, element describer)."""
    if name == "pcf":
        sys_, start = PcfSystem(), Closure(term, {}, backend.initial())
        describe = lambda cl: f"{term_str(cl.term)}  |  {cl.memory!r}"
    elif name == "net":
        sys_, start = PnSystem(), pn
        describe = lambda q: f"{len(q.net.nodes)} nodes  |  {q.memory!r}"
    else:
        sys_ = MsSystem(pn)
        start = sys_.initial_state()
        describe = lambda st: f"{len(st)} tokens  |  {st.memory!r}"
    fused = FusedSystem(sys_)
    return fused, fused.prepare(start), describe


def run_to_horizon(fused, start, horizon, tol, policy, trace=False, tag=""):
    """Drive the lifted step, returning (probability, truncated, terminals)."""

    def picker(a, redexes):
        r = policy(a, redexes)
        if trace:
            # Step k is lifted inside the next() that yields it; `k` still holds k - 1.
            print(f"trace[{tag}] step {k + 1}: {r!r}")
        return r

    steps = lifted_steps(Distribution.dirac(start), fused, picker, horizon, tol)
    for k, (_, term, red) in enumerate(steps):
        pass
    return term.mass(), red.mass() >= tol, term


def report_engine(name, fused, start, describe, args) -> float:
    p, truncated, term = run_to_horizon(
        fused, start, args.horizon, args.tol, leftmost_policy, args.trace, name
    )
    print(f"engine: {name}")
    print(f"probability: {p:.12f}")
    print(f"truncated: {str(truncated).lower()}")
    print("terminal distribution:")
    # By the printed probability, so that 1-ulp noise sets no order.
    entries = sorted(((f"{q:.12f}", describe(a)) for a, q in term),
                     key=lambda qd: (-float(qd[0]), qd[1]))
    for q, d in entries:
        print(f"  {q}  {d}")
    return p


def main(argv=None) -> int:
    try:
        return _main(argv)
    except Exception as e:  # noqa: BLE001 - reported as exit code 6, not a traceback
        print(f"internal error: {type(e).__name__}: {' '.join(str(e).split())}", file=sys.stderr)
        return 6


def _main(argv) -> int:
    ap = argparse.ArgumentParser(
        prog="tokennets",
        description="Evaluate a linear functional program by term reduction, "
        "net rewriting, or a multi-token machine.",
    )
    ap.add_argument("file", help="program file")
    ap.add_argument("--engine", choices=ENGINES + ("all",), default="all")
    ap.add_argument("--backend", choices=("int", "prob", "quantum"), default="int")
    ap.add_argument("--horizon", type=int, default=200)
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--gates", metavar="FILE", help="extra quantum gate definitions")
    ap.add_argument("--trace", action="store_true", help="print each fired transition")
    ap.add_argument("--dump-net", action="store_true", help="print the translated net")
    ap.add_argument(
        "--check-diamond",
        type=int,
        metavar="DEPTH",
        help="compare leftmost vs seeded-random policies to this depth",
    )
    args = ap.parse_args(argv)
    if args.horizon < 1 or not 0 < args.tol < 1:
        ap.error("horizon must be >= 1 and tol in (0, 1)")
    if args.check_diamond is not None and args.check_diamond < 0:
        ap.error("--check-diamond DEPTH must be >= 0")

    seed_text = os.environ.get("MSIAM_SEED", "0")
    if args.check_diamond is not None:
        try:
            seed = int(seed_text)
        except ValueError:
            print(f"error: MSIAM_SEED must be an integer, got {seed_text!r}", file=sys.stderr)
            return 2
    try:
        backend = build_backend(args.backend, args.gates)
    except (OSError, ValueError) as e:
        print(f"error: gate file: {e}", file=sys.stderr)
        return 2
    try:
        src = read_text(args.file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        term = parse(src, backend.labels)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    try:
        tp = typecheck(term)
    except TypecheckError as e:
        print(f"type error: {e}", file=sys.stderr)
        return 3

    try:
        pn = translate(tp, backend)  # validates the net it returns
    except InvalidNetError as e:
        print(f"internal error: translated net is invalid: {e}", file=sys.stderr)
        return 5
    err = check_correct(pn.net)
    if err is not None:
        print(f"internal error: translated net is not correct: {err}", file=sys.stderr)
        return 5

    print(f"file: {args.file}")
    print(f"backend: {args.backend}")
    print(f"type: {tp.type}")
    print(f"horizon: {args.horizon}")
    if args.dump_net:
        print("net:")
        print(pn.net.dump("  "))

    engines = ENGINES if args.engine == "all" else (args.engine,)
    if args.check_diamond is not None:
        ok = True
        for name in engines:
            fused, start, _ = make_engine(name, term, backend, pn)
            rep = check_diamond(
                fused,
                [start],
                args.check_diamond,
                policies=(leftmost_policy, seeded_policy(seed)),
                tol=args.tol,
            )
            print(f"diamond[{name}]: {'ok' if rep.passed else 'FAILED'}")
            for f in rep.failures:
                print(f"  {f}")
            ok = ok and rep.passed
        if not ok:
            return 1

    probs = {}
    for name in engines:
        fused, start, describe = make_engine(name, term, backend, pn)
        probs[name] = report_engine(name, fused, start, describe, args)

    if args.engine == "all":
        pairs = [("pcf", "net"), ("net", "msiam"), ("pcf", "msiam")]
        bad = False
        for a, b in pairs:
            delta = abs(probs[a] - probs[b])
            print(f"delta[{a},{b}]: {delta:.3e}")
            bad = bad or delta > args.tol
        if bad:
            print("error: engines disagree beyond tolerance", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
