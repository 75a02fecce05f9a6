import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from convergence import converge
from tokennets.cli import ENGINES, build_backend, make_engine
from tokennets.pars import (
    CONTINUE,
    PRUNE,
    TOL,
    Distribution,
    FusedSystem,
    check_diamond,
    leftmost_policy,
    lift_step,
    lifted_steps,
    seeded_policy,
    terminal_split,
)
from tokennets.pcfll import parse, typecheck
from tokennets.translate import translate

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.pcf"))


def rightmost_policy(a, redexes):
    return redexes[-1]


class Geometric:
    """halt is terminal; 'a' steps to {halt: 1/2, a: 1/2}."""

    def enumerate_redexes(self, a):
        return [] if a == "halt" else ["flip"]

    def apply(self, a, r):
        return [("halt", 0.5), ("a", 0.5)]


class Loop:
    def enumerate_redexes(self, a):
        return ["spin"]

    def apply(self, a, r):
        return [(a, 1.0)]


class Fork:
    """a rewrites to b or to c depending on the chosen redex: not diamond."""

    def enumerate_redexes(self, a):
        return ["to_b", "to_c"] if a == "a" else []

    def apply(self, a, r):
        return [("b" if r == "to_b" else "c", 1.0)]


class Chain:
    """n counts down deterministically to 0, which branches to halt or 5.
    Like an engine, it lists only its choices: "branch", never "dec"."""

    def enumerate_redexes(self, a):
        return ["branch"] if a == 0 else []

    def apply(self, a, r):
        if r != "branch":
            raise ValueError(f"{r} does not branch")
        return [("halt", 0.5), (5, 0.5)]

    def next_det(self, a):
        return None if a in ("halt", 0) else "dec"

    def own(self, a):
        return a

    def step_det(self, a, r):
        assert r == "dec"
        return a - 1


GEO = Geometric()


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution({"a": 1.2})
    with pytest.raises(ValueError):
        Distribution({"a": -0.1})
    d = Distribution({"a": 0.5, "b": 1e-16})
    assert d.support() == ["a"]
    assert Distribution([("a", 0.25), ("a", 0.25)])["a"] == 0.5


def test_terminal_split_two_point():
    mu = Distribution({"halt": 0.5, "a": 0.5})
    term, red = terminal_split(mu, GEO)
    assert term == Distribution({"halt": 0.5})
    assert red == Distribution({"a": 0.5})


def test_terminal_split_edge_cases():
    all_term = Distribution({"halt": 1.0})
    term, red = terminal_split(all_term, GEO)
    assert term == all_term and len(red) == 0
    term, red = terminal_split(Distribution(), GEO)
    assert len(term) == 0 and len(red) == 0


def test_degree_of_termination():
    assert terminal_split(Distribution({"halt": 0.5, "a": 0.5}), GEO)[0].mass() == 0.5
    assert terminal_split(Distribution({"halt": 1.0}), GEO)[0].mass() == 1.0

    class TwoTerminal(Geometric):
        def enumerate_redexes(self, a):
            return [] if a in ("halt", "stop") else ["flip"]

    sys = TwoTerminal()
    mu = Distribution({"halt": 0.25, "stop": 0.25, "a": 0.5})
    assert terminal_split(mu, sys)[0].mass() == 0.5


def test_lift_step_terminal_fixpoint():
    mu = Distribution({"halt": 0.75})
    assert lift_step(mu, GEO, leftmost_policy) == mu


def test_lift_step_geometric():
    mu = lift_step(Distribution.dirac("a"), GEO, leftmost_policy)
    assert mu == Distribution({"halt": 0.5, "a": 0.5})
    mu = lift_step(mu, GEO, leftmost_policy)
    assert abs(mu["halt"] - 0.75) < 1e-12 and abs(mu["a"] - 0.25) < 1e-12


def test_iterate():
    mu = Distribution.dirac("a")
    (first, _, _), *_, (out, term, _) = lifted_steps(mu, GEO, leftmost_policy, 10, 0.0)
    assert first == mu
    assert abs(term.mass() - (1 - 2**-10)) < 1e-12
    assert terminal_split(out, GEO)[0].mass() == pytest.approx(0.9990234375)
    all_term = Distribution({"halt": 1.0})
    *_, (out, _, _) = lifted_steps(all_term, GEO, leftmost_policy, 7, 0.0)
    assert out == all_term


def test_converge_geometric():
    p, hit = converge(Distribution.dirac("a"), GEO, leftmost_policy, 64, tol=1e-12)
    assert abs(p - 1.0) < 1e-11 and not hit


def test_converge_all_terminal():
    p, hit = converge(Distribution({"halt": 0.5}), GEO, leftmost_policy, 10)
    assert p == 0.5 and not hit


def test_converge_pure_loop():
    p, hit = converge(Distribution.dirac("x"), Loop(), leftmost_policy, 25)
    assert p == 0.0 and hit


def test_converge_trace():
    trace = [t.mass() for _, t, _ in lifted_steps(Distribution.dirac("a"), GEO, leftmost_policy,
                                                   4, PRUNE)]
    assert trace == pytest.approx([0.0, 0.5, 0.75, 0.875, 0.9375])


def test_check_diamond_pass():
    report = check_diamond(GEO, ["a"], 4, (leftmost_policy, rightmost_policy))
    assert report.passed
    report = check_diamond(Chain(), [3], 6, (leftmost_policy, seeded_policy(1)))
    assert report.passed


def test_check_diamond_fail():
    report = check_diamond(Fork(), ["a"], 2, (leftmost_policy, rightmost_policy))
    assert not report.passed
    assert report.failures


@given(st.integers(1, 6))
def test_mass_conservation_and_monotonicity(n):
    mu = Distribution({"a": 0.6, "halt": 0.4})
    prev_nf = terminal_split(mu, GEO)[0].mass()
    for _ in range(n):
        nxt = lift_step(mu, GEO, leftmost_policy)
        assert abs(nxt.mass() - mu.mass()) < 1e-9
        nf = terminal_split(nxt, GEO)[0].mass()
        assert nf >= prev_nf - 1e-12
        assert nxt["halt"] >= mu["halt"] - 1e-12  # terminal persistence
        mu, prev_nf = nxt, nf


def test_fused_system_collapses_deterministic_runs():
    fused = FusedSystem(Chain(), budget=100)
    start = fused.prepare(10)
    # The countdown is fused away: the prepared element is the branch point.
    assert start == 0
    assert fused.enumerate_redexes(start) == ["branch"]
    rho = fused.apply(start, "branch")
    assert rho == [("halt", 0.5), (0, 0.5)]  # 5 re-closes to 0
    p, hit = converge(Distribution.dirac(start), fused, leftmost_policy, 25)
    assert abs(p - (1 - 2**-25)) < 1e-12 and hit


def test_fused_system_budget_continue():
    fused = FusedSystem(Chain(), budget=3)
    a = fused.prepare(10)
    assert a == 7
    assert fused.enumerate_redexes(a) == [CONTINUE]
    assert fused.apply(a, CONTINUE) == [(4, 1.0)]


def test_fused_system_offers_choices_else_continue_else_nothing():
    class EvenBranches(Chain):
        """Chain whose even numbers branch too."""

        def enumerate_redexes(self, a):
            return ["branch"] if a != "halt" and a % 2 == 0 else []

    fused = FusedSystem(EvenBranches(), budget=2)
    # A choice wins over the "dec" a budget cut left behind.
    assert fused.prepare(10) == 8 and fused.enumerate_redexes(8) == ["branch"]
    # Only "dec" is left: the closure resumes.
    assert fused.prepare(9) == 7 and fused.enumerate_redexes(7) == [CONTINUE]
    assert fused.prepare(1) == 0 and fused.enumerate_redexes(0) == ["branch"]
    assert fused.enumerate_redexes("halt") == []
    with pytest.raises(ValueError):
        fused.apply(7, "dec")


# -- the driver against the step loop it replaced ---------------------------


def reference_converge(mu, sys, policy, horizon, tol):
    """`converge` as a plain loop that splits and lifts, testing every
    element for redexes each time: (terminal part, truncated).  The
    reference for `lifted_steps`."""

    def split(mu):
        term = {a: p for a, p in mu if not sys.enumerate_redexes(a)}
        return Distribution(term), Distribution({a: p for a, p in mu if a not in term})

    def lift(mu):
        out = []
        for a, p in mu:
            if not sys.enumerate_redexes(a):
                out.append((a, p))
            else:
                rho = sys.apply(a, policy(a, sys.enumerate_redexes(a)))
                out.extend((b, p * q) for b, q in rho)
        return Distribution(out)

    for _ in range(horizon):
        _, red = split(mu)
        if red.mass() < tol:
            break
        mu = lift(mu)
    term, red = split(mu)
    return term, red.mass() >= tol


def corpus_engine(path, engine):
    """The CLI's fused system and prepared start for a corpus file."""
    src = path.read_text()
    backend = build_backend(re.search(r"^-- backend: *(\w+)", src, re.M).group(1), None)
    term = parse(src, backend.labels)
    pn = translate(typecheck(term), backend)
    fused, start, _ = make_engine(engine, term, backend, pn)
    return fused, start


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_driver_matches_reference_and_bounds_enumerations(path, engine, policy):
    fused, start = corpus_engine(path, engine)
    pick = (lambda: leftmost_policy) if policy == "leftmost" else (lambda: seeded_policy(0))
    horizon = 3 if path.name == "omega.pcf" else 40
    mu = Distribution.dirac(start)
    ref_term, ref_truncated = reference_converge(mu, fused, pick(), horizon, TOL)

    p, truncated = converge(mu, fused, pick(), horizon, TOL)
    assert (p, truncated) == (ref_term.mass(), ref_truncated)

    # Count the enumerations made inside each next(): one per new element,
    # whose list decides its status and, if it is reducible, goes to the
    # policy at the next step.
    calls = Counter()
    enumerate_redexes = fused.enumerate_redexes

    def counted(a):
        calls[a] += 1
        return enumerate_redexes(a)

    fused.enumerate_redexes = counted
    carried = Distribution()
    for _, term, red in lifted_steps(mu, fused, pick(), horizon, TOL):
        assert not any(calls[a] for a in carried.support())
        assert max(calls.values(), default=0) <= 1
        calls.clear()
        carried = term
    assert term == ref_term and term.mass() == ref_term.mass()
    assert (red.mass() >= TOL) == ref_truncated
