"""Every engine's `next_det` names the redex a full enumeration would put
first among the non-branching ones, at every step of every closure."""

import os

import pytest

from tokennets import cli
from tokennets.pars import Distribution, FusedSystem, converge, leftmost_policy, seeded_policy
from tokennets.pcfll import PcfRedex
from test_surface_index import program, programs


def same_redex(r, s) -> bool:
    """Equal redexes; a pcf redex by its kind and term node, since each
    search builds a fresh `rebuild` function."""
    if isinstance(r, PcfRedex):
        return isinstance(s, PcfRedex) and r.kind == s.kind and r.node is s.node
    return r == s


class NextDetChecked:
    """An engine's system whose `next_det` is checked against the first
    non-branching redex of its `enumerate_redexes`."""

    def __init__(self, sys):
        self.sys = sys
        self.steps = 0

    def __getattr__(self, name):
        return getattr(self.sys, name)

    def next_det(self, a):
        r = self.sys.next_det(a)
        det = [x for x in self.sys.enumerate_redexes(a) if not self.sys.is_branching(a, x)]
        assert same_redex(r, det[0] if det else None)
        self.steps += 1
        return r


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
        assert checked.pop().steps > 0, name
