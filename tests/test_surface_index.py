"""The surface index that `Net`'s methods keep up to date must always equal
one built from scratch: the same edge endpoints and the same redexes."""

import copy
import os
import random
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from convergence import converge
from tokennets import prognets
from tokennets.cli import build_backend, make_engine
from tokennets.nets import Net, find_redexes, reduce, reduce_test
from tokennets.pars import TOL, Distribution, leftmost_policy, lifted_steps
from tokennets.pcfll import parse, typecheck
from tokennets.prognets import enumerate_redexes, next_det
from tokennets.translate import translate
from unfused import pn_redexes, rule

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.pcf"))


def rebuilt_redexes(level: Net) -> list:
    """`find_redexes` of a fresh view of the level, indexed anew: every cut
    and sync node classified from scratch."""
    return find_redexes(Net(level.nodes.values(), level.edges, level.conclusions))


def check_fresh(net: Net) -> None:
    """The index of every level of `net` agrees with a rebuild."""
    levels = [net]
    while levels:
        level = levels.pop()
        ix = level.surface
        assert ix.concluder == {e: n.nid for n in level.nodes.values() for e in n.concl}
        assert ix.consumer == {e: n.nid for n in level.nodes.values() for e in n.prem}
        assert set(ix.redex) == {nid for nid, n in level.nodes.items()
                                 if n.kind in ("cut", "sync")}
        assert ix.dirty <= set(ix.redex)
        redexes = find_redexes(level)
        assert redexes == rebuilt_redexes(level)
        # Every live non-test redex has its entry in the ready heap.
        assert {r.sort_key() for r in redexes if r.kind != "test"} <= set(ix.ready)
        levels.extend(c for n in level.nodes.values() for c in n.contents)


def program(src: str, backend_name: str):
    backend = build_backend(backend_name, None)
    term = parse(src, backend.labels)
    return term, backend, translate(typecheck(term), backend)


def tree_source(n: int) -> str:
    """A balanced tree of pairs with n leaves `S new`."""
    if n == 1:
        return "S new"
    return f"<{tree_source(n // 2)}, {tree_source(n - n // 2)}>"


def programs():
    """(name, source, backend, horizon): the corpus, a program that erases
    a box, one whose unfolding brings a `one` node to the top level, the
    benchmark's wide and deep shapes at small sizes, and a register tree,
    whose top level has many `one` nodes and many ready redexes at once."""
    for path in CORPUS:
        src = path.read_text()
        backend = re.search(r"^-- backend: *(\w+)", src, re.M).group(1)
        yield path.name, src, backend, 3 if path.name == "omega.pcf" else 200
    yield "erase", "(\\f. new) (\\x. x)", "int", 200
    yield "unfold", "letrec f x = <x, new> in f new", "int", 200
    from programs import deep_source, wide_quantum_source

    yield "wide", wide_quantum_source(4, random.Random(1)), "quantum", 200
    yield "deep", deep_source(30), "int", 200
    yield "tree", tree_source(16), "int", 200


def test_maintained_index_equals_a_rebuild_after_every_rule(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    fired = Counter()

    def checked(rule):
        def run(net, redex, *side):
            out = rule(net, redex, *side)
            fired[redex.kind] += 1
            check_fresh(out)
            return out
        return run

    def checked_copy(net):
        # Branch copies and the closure's own copy each get their own index.
        clone = copy.deepcopy(net)
        assert clone.surface is not net.surface
        check_fresh(clone)
        return clone

    def checked_enumeration(pn):
        redexes = enumerate_redexes(pn)
        full = pn_redexes(pn)
        assert redexes == [r for r in full if rule(r) == "test"]
        # The live entries of the unlinked heap are the top-level one nodes
        # without an address.
        nodes, ind = pn.net.nodes, pn.ind

        def unaddressed(ids):
            return {nid for nid in ids if nid in nodes and nodes[nid].concl[0] not in ind}

        ones = [nid for nid, n in nodes.items() if n.kind == "one"]
        assert unaddressed(pn.unlinked) == unaddressed(ones)
        return redexes

    def checked_next_det(pn):
        # The closure's redex is the first deterministic one of the full
        # enumeration, which lists links before net redexes.
        r = next_det(pn)
        full = pn_redexes(pn)
        assert r == next((x for x in full if rule(x) != "test"), None)
        fired["mixed"] += len({x.kind for x in full}) == 2
        return r

    monkeypatch.setattr(prognets, "reduce", checked(reduce))
    monkeypatch.setattr(prognets, "reduce_test", checked(reduce_test))
    monkeypatch.setattr(prognets, "copy", SimpleNamespace(deepcopy=checked_copy))
    monkeypatch.setattr(prognets, "enumerate_redexes", checked_enumeration)
    monkeypatch.setattr(prognets, "next_det", checked_next_det)
    for name, src, backend_name, horizon in programs():
        term, backend, pn = program(src, backend_name)
        fused, start, _ = make_engine("net", term, backend, pn)
        p, _ = converge(Distribution.dirac(start), fused, leftmost_policy, horizon)
        assert p == pytest.approx(0.0 if name == "omega.pcf" else 1.0), name
    # Every rule ran, branch copies (test) included, and some closure steps
    # met both links and net redexes.
    assert {kind for kind, n in fired.items() if n > 0} == {
        "ax", "tensor_par", "d_box", "w_box", "c_box", "y_unfold", "absorb", "sync", "test",
        "mixed"}, fired


def contents_below(net: Net) -> list[Net]:
    """Every box content reachable from `net`, each object once."""
    seen, work = {}, [c for n in net.nodes.values() for c in n.contents]
    while work:
        c = work.pop()
        if id(c) not in seen:
            seen[id(c)] = c
            work.extend(cc for n in c.nodes.values() for cc in n.contents)
    return list(seen.values())


def fresh_signature(net: Net):
    """`net.signature()` with every content signed afresh, not read from
    the signatures the contents keep."""
    for c in contents_below(net):
        c._sig = None
    return net.signature()


def test_rewriting_a_copy_leaves_the_original_alone():
    # letrec_count fires y_unfold, absorb and test, dup fires c_box.
    fired = Counter()
    for name in ("letrec_count.pcf", "dup.pcf"):
        _, _, pn = program((CORPUS_DIR / name).read_text(), "int")
        before = find_redexes(pn.net)
        signature = fresh_signature(pn.net)
        clone = copy.deepcopy(pn.net)
        while redexes := find_redexes(clone):
            if redexes[0].kind == "test":
                reduce_test(clone, redexes[0], 1)
            else:
                reduce(clone, redexes[0])
            fired[redexes[0].kind] += 1
        assert find_redexes(pn.net) == before
        assert fresh_signature(pn.net) == signature
        check_fresh(pn.net)
    assert {"absorb", "c_box", "y_unfold", "test"} <= set(fired)


def test_no_rule_changes_a_box_content(monkeypatch):
    """Box contents are shared values: every content reachable from an
    element the engine exposes is, at the end of the run, the same object
    with the same signature, conclusions and node endpoints, and a copy of
    the element's net shares every content."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    elements, snapshots = [], {}

    def state(c: Net):
        return (fresh_signature(c), list(c.conclusions),
                {nid: (list(n.concl), list(n.prem)) for nid, n in c.nodes.items()})

    def expose(pn):
        contents = contents_below(pn.net)
        for c in contents:
            if id(c) not in snapshots:
                snapshots[id(c)] = (c, state(c))
        elements.append((pn, [id(c) for c in contents]))
        clone = copy.deepcopy(pn.net)
        for nid, n in pn.net.nodes.items():
            assert all(a is b for a, b in zip(n.contents, clone.nodes[nid].contents, strict=True))

    for name, src, backend_name, horizon in programs():
        term, backend, pn = program(src, backend_name)
        fused, start, _ = make_engine("net", term, backend, pn)
        for mu, _, _ in lifted_steps(Distribution.dirac(start), fused, leftmost_policy,
                                     horizon, TOL):
            for el in mu.support():
                expose(el)
    assert len(snapshots) > len(list(programs()))
    for pn, ids in elements:
        assert [id(c) for c in contents_below(pn.net)] == ids
    for c, snap in snapshots.values():
        assert state(c) == snap


def test_canonical_key_traverses_the_top_level_once(monkeypatch):
    _, _, pn = program((CORPUS_DIR / "letrec_count.pcf").read_text(), "int")
    top = Counter()
    traversal = Net.traversal

    def counted(self):
        top[self is pn.net] += 1
        return traversal(self)

    monkeypatch.setattr(Net, "traversal", counted)
    key = pn.canonical_key()
    assert top[True] == 1 and top[False] > 0
    assert key[0] == pn.net.signature()
