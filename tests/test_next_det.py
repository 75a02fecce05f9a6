"""Against the full enumeration of `unfused.full_redexes`, at every step of
every closure: every engine's `next_det` names its first deterministic
redex, and `apply` refuses that redex; at every exposed element, the
engine's `enumerate_redexes` is its tests, in the same order.  And the pcf
machine's refocused search finds the redex a search from the root of the
whole term finds."""

import os
import random

import pytest

from convergence import converge
from tokennets import cli
from tokennets.pars import Distribution, FusedSystem, leftmost_policy, seeded_policy
from tokennets.pcfll import (
    App, Closure, Const, If, Lam, LetPair, LetRec, New, Pair, PcfRedex, PcfSystem, Var)
from test_surface_index import program, programs
from unfused import full_redexes, rule


def same_redex(r, s) -> bool:
    """Equal redexes; a pcf redex by its kind and term node, not by its
    context, a chain of frames that `==` would compare frame by frame."""
    if isinstance(r, PcfRedex):
        return isinstance(s, PcfRedex) and r.kind == s.kind and r.node is s.node
    return r == s


class NextDetChecked:
    """An engine checked against its full enumeration: `next_det` names
    the first deterministic redex, which `apply` refuses, and
    `enumerate_redexes` lists the tests."""

    def __init__(self, sys):
        self.sys = sys
        self.steps = 0
        self.exposed = 0

    def __getattr__(self, name):
        return getattr(self.sys, name)

    def next_det(self, a):
        r = self.sys.next_det(a)
        det = [x for x in full_redexes(self.sys, a) if rule(x) != "test"]
        assert same_redex(r, det[0] if det else None)
        if r is not None:
            with pytest.raises(ValueError):
                self.sys.apply(a, r)
        self.steps += 1
        return r

    def enumerate_redexes(self, a):
        out = self.sys.enumerate_redexes(a)
        tests = [x for x in full_redexes(self.sys, a) if rule(x) == "test"]
        assert len(out) == len(tests) and all(map(same_redex, out, tests))
        self.exposed += 1
        return out


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("engine", cli.ENGINES)
def test_next_det_is_the_first_non_branching_redex(engine, policy, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    checked = []

    class CheckedFused(FusedSystem):
        def __init__(self, sys, budget=500):
            super().__init__(NextDetChecked(sys), budget)
            checked.append(self.sys)

    monkeypatch.setattr(cli, "FusedSystem", CheckedFused)
    for name, src, backend_name, horizon in programs():
        term, backend, pn = program(src, backend_name)
        fused, start, _ = cli.make_engine(engine, term, backend, pn)
        pick = leftmost_policy if policy == "leftmost" else seeded_policy(0)
        p, _ = converge(Distribution.dirac(start), fused, pick, horizon)
        assert p == pytest.approx(0.0 if name == "omega.pcf" else 1.0), name
        sys_ = checked.pop()
        assert sys_.steps > 0 and sys_.exposed > 0, name


# -- the refocused pcf search against a search from the root ----------------


def reference_is_value(t) -> bool:
    if isinstance(t, (Var, Lam, Const)):
        return True
    if isinstance(t, Pair):
        return reference_is_value(t.left) and reference_is_value(t.right)
    return False


def reference_tuple_vars(t) -> list[str] | None:
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Pair):
        left, right = reference_tuple_vars(t.left), reference_tuple_vars(t.right)
        if left is not None and right is not None:
            return left + right
    return None


def reference_find_redex(t):
    """(kind, node) of the head redex of the whole term `t`, or None: the
    search descends from the root, and tests at each node whether the node
    is a redex and which of its subterms are values."""

    def root_kind(t):
        if isinstance(t, New):
            return "link"
        if isinstance(t, LetRec):
            return "letrec"
        if isinstance(t, App) and isinstance(t.fun, Lam) and reference_is_value(t.arg):
            return "beta"
        if isinstance(t, App) and isinstance(t.fun, Const) and reference_is_value(t.arg):
            if reference_tuple_vars(t.arg) is not None:
                return "update"
        if isinstance(t, LetPair) and reference_is_value(t.subject):
            if isinstance(t.subject, Pair):
                return "letpair"
        if isinstance(t, If) and isinstance(t.guard, Var):
            return "test"
        return None

    def descend(t):
        kind = root_kind(t)
        if kind is not None:
            return kind, t
        evaluated = {App: ("fun", "arg"), Pair: ("left", "right"), LetPair: ("subject",),
                     If: ("guard",)}.get(type(t), ())
        for field in evaluated:
            sub = getattr(t, field)
            if not reference_is_value(sub):
                return descend(sub)
        return None

    return descend(t)


class RefocusChecked(PcfSystem):
    """The pcf system, checking each closure it is asked about: its cached
    redex is the one `reference_find_redex` finds in its whole term, the
    same rule kind at the same node."""

    def __init__(self):
        self.checked = 0

    def check(self, cl) -> None:
        ref = reference_find_redex(cl.term)
        if ref is None:
            assert cl.redex is None, cl.redex
        else:
            assert cl.redex is not None and cl.redex.kind == ref[0], (cl.redex, ref)
            assert cl.redex.node is ref[1], (cl.redex, ref)
        self.checked += 1

    def enumerate_redexes(self, cl):
        self.check(cl)
        return super().enumerate_redexes(cl)

    def next_det(self, cl):
        self.check(cl)
        return super().next_det(cl)


def test_refocused_pcf_redex_is_the_root_search_redex(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from programs import deep_source, wide_prob_source, wide_quantum_source

    runs = [(name, src, backend, horizon) for name, src, backend, horizon in programs()
            if name.endswith(".pcf")]
    runs += [("wide-quantum-8", wide_quantum_source(8, random.Random(2)), "quantum", 200),
             ("wide-prob-8", wide_prob_source(8), "prob", 200),
             ("deep-80", deep_source(80), "int", 200)]
    for name, src, backend_name, horizon in runs:
        term, backend, _ = program(src, backend_name)
        sys_ = RefocusChecked()
        fused = FusedSystem(sys_)
        start = fused.prepare(Closure(term, {}, backend.initial()))
        p, _ = converge(Distribution.dirac(start), fused, leftmost_policy, horizon)
        assert p == pytest.approx(0.0 if name == "omega.pcf" else 1.0), name
        assert sys_.checked > 0, name
