import copy
import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tokennets.memory import OperationLabel, int_backend, prob_backend, quantum_backend
from tokennets.nets import (
    BOT,
    Formula,
    InvalidNetError,
    Net,
    NetRedex,
    Node,
    ONE,
    Signature,
    bang,
    check_correct,
    count_units,
    cyclic_switching_block,
    find_redexes,
    fresh_id,
    is_positive,
    neg,
    par,
    quest,
    reduce,
    reduce_test,
    tensor,
    validate,
)
from tokennets.pcfll import parse, typecheck
from tokennets.translate import translate

from test_surface_index import check_fresh


def test_formula_negation_involutive():
    a = par(tensor(ONE, BOT), bang(quest(ONE)))
    assert neg(neg(a)) == a
    assert neg(ONE) == BOT
    assert neg(tensor(ONE, BOT)) == par(BOT, ONE)
    assert neg(bang(ONE)) == quest(BOT)
    assert is_positive(ONE) and not is_positive(BOT)
    assert count_units(tensor(ONE, tensor(ONE, ONE))) == 3


def single_ax_net():
    net = Net()
    ax = net.add_node("ax", [BOT, ONE])
    net.conclusions = list(ax.concl)
    return net


def test_validate_and_correct_single_ax():
    net = single_ax_net()
    validate(net)
    assert check_correct(net) is None
    assert find_redexes(net) == []


def dangling_conclusion(net):
    net.conclusions = []


def doubly_concluded_edge(net):
    ax = next(iter(net.nodes.values()))
    twin = Node(fresh_id(), "one", [ax.concl[1]])
    net.nodes[twin.nid] = twin


def mistyped_axiom(net):
    ax = next(iter(net.nodes.values()))
    net.edges[ax.concl[0]] = ONE


@pytest.mark.parametrize("breaking", [dangling_conclusion, doubly_concluded_edge, mistyped_axiom])
def test_validate_rejects_broken_nets(breaking):
    net = single_ax_net()
    breaking(net)
    with pytest.raises(InvalidNetError):
        validate(net)


def test_a_level_refuses_an_edge_with_two_concluders_or_consumers():
    net = single_ax_net()
    ax = next(iter(net.nodes.values()))
    twin = Node(fresh_id(), "one", [ax.concl[1]])
    with pytest.raises(InvalidNetError, match=f"^edge {ax.concl[1]} concluded twice$"):
        Net([ax, twin], net.edges, net.conclusions)
    net.add_node("cut", [], list(ax.concl))
    with pytest.raises(InvalidNetError, match=f"^edge {ax.concl[0]} consumed twice$"):
        net.add_node("der", [quest(BOT)], [ax.concl[0]])


def test_ax_cut_loop_is_cyclic_not_a_redex():
    net = single_ax_net()
    ax = next(iter(net.nodes.values()))
    net.add_node("cut", [], [ax.concl[1], ax.concl[0]])
    net.conclusions = []
    validate(net)
    assert check_correct(net) is not None
    assert find_redexes(net) == []


def ax_cut_one_net():
    """one --1-- cut --bot/1-- ax, with the ax's 1 as net conclusion."""
    net = Net()
    one = net.add_node("one", [ONE])
    ax = net.add_node("ax", [BOT, ONE])
    net.add_node("cut", [], [one.concl[0], ax.concl[0]])
    net.conclusions = [ax.concl[1]]
    return net


def test_ax_reduction():
    net = ax_cut_one_net()
    validate(net)
    (r,) = find_redexes(net)
    assert r.kind == "ax"
    out = reduce(net, r)
    validate(out)
    assert find_redexes(out) == []
    assert len(out.nodes) == 1
    (n,) = out.nodes.values()
    assert n.kind == "one" and out.conclusions == [n.concl[0]]


def test_tensor_par_reduction():
    net = Net()
    one1 = net.add_node("one", [ONE])
    one2 = net.add_node("one", [ONE])
    t = net.add_node("tensor", [tensor(ONE, ONE)], [one1.concl[0], one2.concl[0]])
    ax_a = net.add_node("ax", [BOT, ONE])
    ax_b = net.add_node("ax", [BOT, ONE])
    p = net.add_node("par", [par(BOT, BOT)], [ax_a.concl[0], ax_b.concl[0]])
    net.add_node("cut", [], [t.concl[0], p.concl[0]])
    net.conclusions = [ax_a.concl[1], ax_b.concl[1]]
    validate(net)
    assert check_correct(net) is None
    (r,) = find_redexes(net)
    assert r.kind == "tensor_par"
    out = reduce(net, r)
    validate(out)
    redexes = find_redexes(out)
    assert [x.kind for x in redexes] == ["ax", "ax"]
    for r in redexes:
        out = reduce(out, find_redexes(out)[0])
        validate(out)
    assert find_redexes(out) == []
    assert sorted(n.kind for n in out.nodes.values()) == ["one", "one"]
    assert len(out.conclusions) == 2


def test_sync_reduction():
    net = Net()
    one1 = net.add_node("one", [ONE])
    one2 = net.add_node("one", [ONE])
    sync = net.add_node("sync", [ONE, ONE], [one1.concl[0], one2.concl[0]],
                        label=OperationLabel("max", 2))
    net.conclusions = list(sync.concl)
    validate(net)
    assert check_correct(net) is None
    (r,) = find_redexes(net)
    assert r.kind == "sync"
    out = reduce(net, r)
    validate(out)
    assert find_redexes(out) == []
    assert set(out.conclusions) == {n.concl[0] for n in out.nodes.values()}


def bang_box_net():
    """A closed !-box around a one node, cut against a dereliction."""
    content = Net()
    cone = content.add_node("one", [ONE])
    content.conclusions = [cone.concl[0]]
    net = Net()
    box = net.add_node("bangbox", [bang(ONE)], contents=[content])
    ax = net.add_node("ax", [BOT, ONE])
    der = net.add_node("der", [quest(BOT)], [ax.concl[0]])
    net.add_node("cut", [], [box.concl[0], der.concl[0]])
    net.conclusions = [ax.concl[1]]
    return net


def test_d_box_reduction():
    net = bang_box_net()
    validate(net)
    assert check_correct(net) is None
    (r,) = find_redexes(net)
    assert r.kind == "d_box"
    out = reduce(net, r)
    validate(out)
    (r2,) = find_redexes(out)
    assert r2.kind == "ax"
    out = reduce(out, r2)
    validate(out)
    assert [n.kind for n in out.nodes.values()] == ["one"]


def test_redexes_inside_boxes_are_inert():
    inner = ax_cut_one_net()
    content = Net()
    content.conclusions = content.copy_in(inner.nodes.values(), inner.edges, inner.conclusions)
    net = Net()
    net.add_node("bangbox", [bang(ONE)], contents=[content])
    box = next(iter(net.nodes.values()))
    net.conclusions = [box.concl[0]]
    validate(net)
    assert find_redexes(net) == []


def w_box_net():
    """A closed !-box cut against a weakening."""
    net = Net()
    box = net.add_node("bangbox", [bang(ONE)], contents=[single_one_net()])
    weak = net.add_node("weak", [quest(BOT)])
    net.add_node("cut", [], [box.concl[0], weak.concl[0]])
    return net


def test_w_box_reduction():
    net = w_box_net()
    validate(net)
    (r,) = find_redexes(net)
    assert r.kind == "w_box"
    out = reduce(net, r)
    validate(out)
    assert not out.nodes and not out.edges


def contraction_of_weakenings(net):
    w1 = net.add_node("weak", [quest(BOT)])
    w2 = net.add_node("weak", [quest(BOT)])
    return net.add_node("contr", [quest(BOT)], [w1.concl[0], w2.concl[0]])


def c_box_net():
    """A closed !-box cut against a contraction of two weakenings."""
    net = Net()
    box = net.add_node("bangbox", [bang(ONE)], contents=[single_one_net()])
    contr = contraction_of_weakenings(net)
    net.add_node("cut", [], [box.concl[0], contr.concl[0]])
    return net


def test_c_box_reduction():
    net = c_box_net()
    (content,) = next(iter(net.nodes.values())).contents
    validate(net)
    (r,) = find_redexes(net)
    assert r.kind == "c_box"
    out = reduce(net, r)
    validate(out)
    # The two copies of the box share its content: duplicating it renames
    # the box node and its principal edge only.
    boxes = [n for n in out.nodes.values() if n.kind == "bangbox"]
    assert len(boxes) == 2 and all(b.contents[0] is content for b in boxes)
    redexes = find_redexes(out)
    assert [x.kind for x in redexes] == ["w_box", "w_box"]
    out = reduce(out, redexes[0])
    validate(out)
    out = reduce(out, find_redexes(out)[0])
    validate(out)
    assert not out.nodes


def y_box_net():
    """A closed fixpoint box whose content ignores its recursion port."""
    content = Net()
    cone = content.add_node("one", [ONE])
    wk = content.add_node("weak", [quest(BOT)])
    content.conclusions = [cone.concl[0], wk.concl[0]]
    net = Net()
    box = net.add_node("ybox", [bang(ONE)], contents=[content])
    ax = net.add_node("ax", [BOT, ONE])
    der = net.add_node("der", [quest(BOT)], [ax.concl[0]])
    net.add_node("cut", [], [box.concl[0], der.concl[0]])
    net.conclusions = [ax.concl[1]]
    return net


def test_y_unfold_reduction():
    net = y_box_net()
    validate(net)
    assert check_correct(net) is None
    (r,) = find_redexes(net)
    assert r.kind == "y_unfold"
    (content,) = next(n for n in net.nodes.values() if n.kind == "ybox").contents
    out = reduce(net, r)
    validate(out)
    # The unfolded content is a renamed copy; the fresh fixpoint box shares
    # the original content.
    (box,) = [n for n in out.nodes.values() if n.kind == "ybox"]
    assert box.contents[0] is content
    assert not content.nodes.keys() & out.nodes.keys()
    kinds = sorted(x.kind for x in find_redexes(out))
    assert kinds == ["ax", "w_box"]
    while find_redexes(out):
        out = reduce(out, find_redexes(out)[0])
        validate(out)
    assert [n.kind for n in out.nodes.values()] == ["one"]


def bot_box_net():
    def content_side():
        c = Net()
        root = c.add_node("bot", [BOT])
        cone = c.add_node("one", [ONE])
        c.conclusions = [root.concl[0], cone.concl[0]]
        return c

    net = Net()
    box = net.add_node("botbox", [BOT, ONE], contents=[content_side(), content_side()])
    one = net.add_node("one", [ONE])
    net.add_node("cut", [], [box.concl[0], one.concl[0]])
    net.conclusions = [box.concl[1]]
    return net


def test_bot_box_reduction():
    net = bot_box_net()
    validate(net)
    assert check_correct(net) is None
    (r,) = find_redexes(net)
    assert r.kind == "test"
    for side in (0, 1):
        copied = copy.deepcopy(net)
        out = reduce_test(copied, r, side)
        assert out is copied  # rewritten in place
        validate(out)
        assert find_redexes(out) == []
        assert [n.kind for n in out.nodes.values()] == ["one"]
        (n,) = out.nodes.values()
        assert out.conclusions == [n.concl[0]]


def snapshot(net):
    nodes = {nid: (n.kind, list(n.prem), list(n.concl), [id(c) for c in n.contents])
             for nid, n in net.nodes.items()}
    return nodes, dict(net.edges), list(net.conclusions)


def dereliction_of_an_axiom(net):
    ax = net.add_node("ax", [BOT, ONE])
    return net.add_node("der", [quest(BOT)], [ax.concl[0]])


@pytest.mark.parametrize("make, beside, other", [
    (bang_box_net, dereliction_of_an_axiom, "dereliction"),
    (y_box_net, dereliction_of_an_axiom, "dereliction"),
    (w_box_net, lambda net: net.add_node("weak", [quest(BOT)]), "weakening"),
    (c_box_net, contraction_of_weakenings, "contraction"),
    (bot_box_net, lambda net: net.add_node("one", [ONE]), "one"),
], ids=["d_box", "y_unfold", "w_box", "c_box", "test"])
def test_a_box_rule_refuses_a_node_the_box_is_not_cut_against(make, beside, other):
    net = make()
    (r,) = find_redexes(net)
    cut, box, _ = r.nodes
    wrong = NetRedex(r.kind, (cut, box, beside(net).nid))
    before = snapshot(net)
    first_free = fresh_id()
    with pytest.raises(InvalidNetError, match=f"^cut is not against the {other}$"):
        if r.kind == "test":
            reduce_test(net, wrong, 0)
        else:
            reduce(net, wrong)
    # Refused before anything was removed, added or numbered.
    assert snapshot(net) == before
    assert fresh_id() == first_free + 1
    assert r in find_redexes(net)


def test_absorb_reduction():
    # A closed !-box cut against the auxiliary door of another !-box is
    # pushed inside that box's content.
    inner_content = Net()
    ic_one = inner_content.add_node("one", [ONE])
    inner_content.conclusions = [ic_one.concl[0]]

    target_content = Net()
    tc_one = target_content.add_node("one", [ONE])
    tc_weak = target_content.add_node("weak", [quest(BOT)])
    target_content.conclusions = [tc_one.concl[0], tc_weak.concl[0]]

    net = Net()
    closed = net.add_node("bangbox", [bang(ONE)], contents=[inner_content])
    target = net.add_node("bangbox", [bang(ONE), quest(BOT)], contents=[target_content])
    net.add_node("cut", [], [closed.concl[0], target.concl[1]])
    net.conclusions = [target.concl[0]]
    validate(net)
    (r,) = find_redexes(net)
    assert r.kind == "absorb"
    out = reduce(net, r)
    validate(out)
    box = next(n for n in out.nodes.values() if n.kind == "bangbox")
    assert len(out.nodes) == 1 and len(box.concl) == 1
    content = box.contents[0]
    # The absorbed closed box met a bare weakening and was erased with it.
    assert sorted(n.kind for n in content.nodes.values()) == ["one"]
    assert len(content.conclusions) == 1
    assert find_redexes(out) == []


def test_absorb_reduction_into_dereliction_aux():
    # When the target content actually uses its auxiliary door, the closed
    # box is copied inside and its cut stays inert until the box opens.
    inner_content = Net()
    ic_one = inner_content.add_node("one", [ONE])
    inner_content.conclusions = [ic_one.concl[0]]

    target_content = Net()
    tc_ax = target_content.add_node("ax", [BOT, ONE])
    tc_der = target_content.add_node("der", [quest(BOT)], [tc_ax.concl[0]])
    target_content.conclusions = [tc_ax.concl[1], tc_der.concl[0]]

    net = Net()
    closed = net.add_node("bangbox", [bang(ONE)], contents=[inner_content])
    target = net.add_node("bangbox", [bang(ONE), quest(BOT)], contents=[target_content])
    net.add_node("cut", [], [closed.concl[0], target.concl[1]])
    net.conclusions = [target.concl[0]]
    validate(net)
    (r,) = find_redexes(net)
    assert r.kind == "absorb"
    out = reduce(net, r)
    validate(out)
    box = next(n for n in out.nodes.values() if n.kind == "bangbox")
    assert len(out.nodes) == 1 and len(box.concl) == 1
    content = box.contents[0]
    assert sorted(n.kind for n in content.nodes.values()) == [
        "ax", "bangbox", "cut", "der",
    ]
    assert len(content.conclusions) == 1
    assert find_redexes(out) == []


def test_signature_isomorphism_invariance():
    net1 = ax_cut_one_net()
    net2 = ax_cut_one_net()
    assert net1.signature() == net2.signature()
    assert net1.signature() == net1.renamed().signature()
    box = bang_box_net()
    assert box.signature() == box.renamed().signature()
    assert net1.signature() != bang_box_net().signature()


def rooted_content_with_boxes():
    """A choice-box content: a bot root, a one, and a !-box and a fixpoint
    box, each with a content of its own, the !-box cut against a
    dereliction."""
    y_content = Net()
    y_one = y_content.add_node("one", [ONE])
    y_weak = y_content.add_node("weak", [quest(BOT)])
    y_content.conclusions = [y_one.concl[0], y_weak.concl[0]]
    c = Net()
    root = c.add_node("bot", [BOT])
    one = c.add_node("one", [ONE])
    bbox = c.add_node("bangbox", [bang(ONE)], contents=[single_one_net()])
    ybox = c.add_node("ybox", [bang(ONE)], contents=[y_content])
    ax = c.add_node("ax", [BOT, ONE])
    der = c.add_node("der", [quest(BOT)], [ax.concl[0]])
    c.add_node("cut", [], [bbox.concl[0], der.concl[0]])
    c.conclusions = [root.concl[0], one.concl[0], ybox.concl[0], ax.concl[1]]
    return c, root


def test_copy_in_shares_nested_contents_and_leaves_the_source_alone():
    def state(net):
        return ([(n.nid, n.kind, list(n.concl), list(n.prem), n.label, list(n.contents))
                 for n in net.nodes.values()], dict(net.edges), list(net.conclusions))

    source, _ = rooted_content_with_boxes()
    sig = source.content_signature()
    before = state(source)
    level = single_one_net()
    start = fresh_id()
    concl = level.copy_in(source.nodes.values(), source.edges, source.conclusions)
    # Ids are drawn as `renamed` draws them: every edge, then every node.
    n_edges = len(source.edges)
    assert sorted(set(level.edges) - {level.conclusions[0]}) == list(
        range(start + 1, start + 1 + n_edges))
    assert sorted(level.nodes)[1:] == list(
        range(start + 1 + n_edges, start + 1 + n_edges + len(source.nodes)))
    assert [level.typ(e) for e in concl] == [source.typ(e) for e in source.conclusions]
    level.conclusions += concl
    validate(level)
    check_fresh(level)
    for kind in ("bangbox", "ybox"):
        (old,) = [n for n in source.nodes.values() if n.kind == kind]
        (new,) = [n for n in level.nodes.values() if n.kind == kind]
        assert new.nid != old.nid and new.contents[0] is old.contents[0]
    # A rule on the copy leaves the source alone.
    (r,) = find_redexes(level)
    assert r.kind == "d_box"
    reduce(level, r)
    validate(level)
    check_fresh(level)
    assert state(source) == before
    assert source.content_signature() is sig and sig == Signature(source.signature())


def test_a_test_copies_the_chosen_content_less_its_bot_root():
    for side in (0, 1):
        contents = [rooted_content_with_boxes(), rooted_content_with_boxes()]
        source, root = contents[side]
        net = Net()
        box = net.add_node("botbox", [source.typ(e) for e in source.conclusions],
                           contents=[c for c, _ in contents])
        one = net.add_node("one", [ONE])
        net.add_node("cut", [], [box.concl[0], one.concl[0]])
        net.conclusions = box.concl[1:]
        validate(net)
        (r,) = find_redexes(net)
        reduce_test(net, r, side)
        validate(net)
        check_fresh(net)
        assert len(net.nodes) == len(source.nodes) - 1
        assert len(net.edges) == len(source.edges) - 1
        assert "bot" not in [n.kind for n in net.nodes.values()]
        assert list(net.edges.values()).count(BOT) == list(source.edges.values()).count(BOT) - 1
        assert net.signature() == Net(
            [n for n in source.nodes.values() if n is not root],
            {e: t for e, t in source.edges.items() if e not in root.concl},
            source.conclusions[1:]).signature()


def test_dump_smoke():
    text = bot_box_net().dump()
    assert "botbox" in text and "left:" in text and "right:" in text


# ---------------------------------------------------------------------------
# Switching correctness: exact check against exhaustive enumeration


def switch_groups(level):
    """Per switched node, the edges a switching chooses one of."""
    groups = []
    for n in level.nodes.values():
        if n.kind in ("par", "contr"):
            groups.append(list(n.prem))
        elif n.kind == "sync" and len(n.concl) > 1:
            groups.append(list(n.concl))
    # A node with no premises has nothing to switch (only generated levels
    # have one); itertools.product over an empty group would yield nothing.
    return [g for g in groups if g]


def oracle_cyclic(level):
    """Whether some switching of this level is cyclic, by trying them all."""
    concluder = {e: n.nid for n in level.nodes.values() for e in n.concl}
    consumer = {e: n.nid for n in level.nodes.values() for e in n.prem}
    links = [(e, concluder[e], consumer[e]) for e in concluder if e in consumer]
    groups = switch_groups(level)
    for kept in itertools.product(*groups):
        removed = {e for g, k in zip(groups, kept) for e in g if e != k}
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for e, u, v in links:
            if e in removed:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def switchings(level):
    return math.prod(len(g) for g in switch_groups(level))


def test_contraction_ring_beyond_4096_switchings_is_cyclic():
    # 14 contraction nodes in a ring, each also fed by a weakening.  A ring
    # needs its edges before its nodes, so the level is built from nodes.
    weak = [Node(fresh_id(), "weak", [fresh_id()]) for _ in range(14)]
    out = [fresh_id() for _ in range(14)]
    ring = [Node(fresh_id(), "contr", [out[i]], [out[i - 1], weak[i].concl[0]])
            for i in range(14)]
    net = Net(weak + ring, {n.concl[0]: quest(BOT) for n in weak + ring})
    validate(net)
    assert switchings(net) == 2 ** 14
    assert check_correct(net) == (
        "cyclic switching path at depth 0 among nodes "
        f"{sorted(c.nid for c in ring)}")


def test_sync_ring_without_ordinary_edges_is_cyclic():
    # Every edge is a switched sync conclusion, so contracting ordinary
    # edges (as in Danos's contractibility) would find nothing to merge.
    label = OperationLabel("max", 2)
    out = [[fresh_id(), fresh_id()] for _ in range(3)]
    syncs = [Node(fresh_id(), "sync", out[i], [out[i - 1][0], out[i - 2][1]], label)
             for i in range(3)]
    net = Net(syncs, {e: ONE for pair in out for e in pair})
    validate(net)
    assert oracle_cyclic(net)
    assert check_correct(net) is not None


def single_one_net():
    net = Net()
    one = net.add_node("one", [ONE])
    net.conclusions = [one.concl[0]]
    return net


def nest_in_boxes(content, depth):
    """`content` inside `depth` nested !-boxes, and the box ids, outermost first."""
    typ, boxes = ONE, []
    for _ in range(depth):
        outer = Net()
        typ = bang(typ)
        box = outer.add_node("bangbox", [typ], contents=[content])
        outer.conclusions = [box.concl[0]]
        boxes.append(box.nid)
        content = outer
    return content, boxes[::-1]


def test_boxes_nested_1500_deep_are_checked_without_recursion():
    net, boxes = nest_in_boxes(single_one_net(), 1500)
    validate(net)
    assert check_correct(net) is None
    # Copying shares the contents, and signing fills the contents' cached
    # signatures bottom-up: neither recurses into the nest.
    clone = copy.deepcopy(net)
    assert clone.nodes[boxes[0]].contents[0] is net.nodes[boxes[0]].contents[0]
    assert clone.signature() == net.signature()
    assert net.renamed().signature() == net.signature()
    inner = single_one_net()  # beside an ax whose conclusions are cut together
    ax = inner.add_node("ax", [BOT, ONE])
    cut = inner.add_node("cut", [], list(ax.concl))
    net, boxes = nest_in_boxes(inner, 1500)
    path = "".join(f"inside box {nid}: " for nid in boxes)
    assert check_correct(net) == (
        f"{path}cyclic switching path at depth 0 among nodes {sorted((ax.nid, cut.nid))}")
    # A broken invariant at the bottom of the nest is found and named.
    bad = single_one_net()
    stray = bad.add_node("one", [ONE])  # neither consumed nor a conclusion
    net, _ = nest_in_boxes(bad, 1500)
    with pytest.raises(InvalidNetError, match=f"dangling edge {stray.concl[0]} "):
        validate(net)


def test_validate_reports_the_first_error_depth_first():
    # Levels are checked in `Net.levels` order: a level whole, its edges
    # before its nodes, and then its box contents, depth first in node
    # order.  So a broken node after a box is named before the box's
    # broken content.
    net, strays = Net(), []
    for _ in range(2):
        content = single_one_net()
        strays.append(content.add_node("one", [ONE]).concl[0])
        box = net.add_node("bangbox", [bang(ONE)], contents=[content])
        net.conclusions.append(box.concl[0])
    with pytest.raises(InvalidNetError, match=f"dangling edge {strays[0]} "):
        validate(net)
    mistyped = net.add_node("ax", [ONE, ONE])
    net.conclusions += mistyped.concl
    with pytest.raises(InvalidNetError, match="^bad ax$"):
        validate(net)
    top = net.add_node("one", [ONE]).concl[0]
    with pytest.raises(InvalidNetError, match=f"dangling edge {top} "):
        validate(net)


def test_levels_walk_depth_first_in_node_order():
    shared = single_one_net()
    middle = Net()
    inner = middle.add_node("bangbox", [bang(ONE)], contents=[shared])
    middle.conclusions = [inner.concl[0]]
    net = bot_box_net()
    choice = next(n for n in net.nodes.values() if n.kind == "botbox")
    left, right = choice.contents
    outer = net.add_node("bangbox", [bang(bang(ONE))], contents=[middle])
    beside = net.add_node("bangbox", [bang(ONE)], contents=[shared])
    net.conclusions += [outer.concl[0], beside.concl[0]]
    validate(net)
    assert check_correct(net) is None
    # A content in two boxes is met once under each box's path.
    expected = [
        ((), net),
        (((choice.nid, 0),), left),
        (((choice.nid, 1),), right),
        (((outer.nid, 0),), middle),
        (((outer.nid, 0), (inner.nid, 0)), shared),
        (((beside.nid, 0),), shared),
    ]
    walked = list(net.levels())
    assert [path for path, _ in walked] == [path for path, _ in expected]
    assert all(level is want for (_, level), (_, want) in zip(walked, expected))


def test_levels_of_boxes_nested_1500_deep(default_recursion_limit):
    net, boxes = nest_in_boxes(single_one_net(), 1500)
    paths = [path for path, _ in net.levels()]
    assert paths == [tuple((nid, 0) for nid in boxes[:depth]) for depth in range(1501)]


@st.composite
def levels(draw):
    """Small untyped levels: par/contr/n-ary sync groups, loops, parallel
    edges, sync conclusions consumed as par/contr premises (one edge in two
    groups) and edges left as conclusions."""
    net = Net()
    kinds = draw(st.lists(st.sampled_from(["par", "contr", "sync", "ax", "cut"]), min_size=1, max_size=6))
    nodes = [Node(fresh_id(), k) for k in kinds]
    net.nodes = {n.nid: n for n in nodes}
    for _ in range(draw(st.integers(0, 10))):
        eid = fresh_id()
        net.edges[eid] = ONE
        nodes[draw(st.integers(0, len(nodes) - 1))].concl.append(eid)
        consumer = draw(st.integers(-1, len(nodes) - 1))
        if consumer < 0:
            net.conclusions.append(eid)
        else:
            nodes[consumer].prem.append(eid)
    return net


@settings(derandomize=True, max_examples=400, deadline=None)
@given(levels())
def test_switching_check_agrees_with_enumeration(level):
    assert switchings(level) <= 4096
    assert bool(cyclic_switching_block(level)) == oracle_cyclic(level)


BACKENDS = {"int": int_backend, "prob": prob_backend, "quantum": quantum_backend}
CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.pcf"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_switching_check_agrees_with_enumeration_on_corpus(path):
    src = path.read_text()
    backend = BACKENDS[re.search(r"^-- backend: *(\w+)", src, re.M).group(1)]()
    net = translate(typecheck(parse(src, backend.labels)), backend).net
    checked, work = 0, [net]
    while work:
        level = work.pop()
        work.extend(c for n in level.nodes.values() for c in n.contents)
        if switchings(level) <= 4096:
            assert not oracle_cyclic(level)
            assert not cyclic_switching_block(level)
            checked += 1
    assert checked
