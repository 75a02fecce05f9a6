from collections import Counter

import pytest

from tokennets.memory import (
    COIN,
    IntRegisterMemory,
    ProbRegisterMemory,
    S,
    int_backend,
    prob_backend,
)
from tokennets.pars import (
    TOL,
    Distribution,
    FusedSystem,
    check_diamond,
    leftmost_policy,
    lifted_steps,
    seeded_policy,
)
from tokennets.pcfll import (
    App,
    Closure,
    Const,
    If,
    Lam,
    LetPair,
    LetRec,
    New,
    Pair,
    ParseError,
    PcfSystem,
    TVar,
    Ty,
    TypecheckError,
    Var,
    all_vars,
    binder_uses,
    closure_step,
    find_redex,
    free_vars,
    parse,
    resolve,
    subst,
    scopes,
    term_str,
    typecheck,
    walk,
)

INT_OPS = IntRegisterMemory.labels
PROB_OPS = ProbRegisterMemory.labels


# ---------------------------------------------------------------------------
# Parsing


def test_parse_shapes():
    t = parse(r"\x. x", {})
    assert isinstance(t, Lam) and isinstance(t.body, Var)
    t = parse("f a b", {})
    assert isinstance(t, App) and isinstance(t.fun, App)  # left-associative
    t = parse("let <a, b> = <new, new> in <b, a>", {})
    assert isinstance(t, LetPair) and isinstance(t.subject, Pair)
    t = parse("if c new then new else new", PROB_OPS)
    assert isinstance(t, If) and isinstance(t.guard, App)
    assert isinstance(t.guard.fun, Const) and t.guard.fun.label == COIN
    t = parse("S new -- increment\n", INT_OPS)
    assert isinstance(t, App) and t.fun.label == S


def test_parse_roundtrip_via_pretty_printer():
    for src in [
        r"\x. x",
        "letrec f x = if x then new else f new in f (S new)",
        "let <a, b> = <S new, new> in <a, b>",
    ]:
        t = parse(src, INT_OPS)
        assert term_str(parse(term_str(t), INT_OPS)) == term_str(t)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse(r"\x. ", {})
    with pytest.raises(ParseError):
        parse("let <x> = new in x", {})
    with pytest.raises(ParseError):
        parse("f x)", {})
    with pytest.raises(ParseError):
        parse("if new then new", {})


# ---------------------------------------------------------------------------
# Typechecking


def test_identity_applied_to_new():
    tp = typecheck(parse(r"(\x. x) new", {}))
    assert tp.type == Ty("base")


def test_duplicated_function_argument_is_promoted():
    term = parse(r"(\f. <f new, f new>) (\x. x)", {})
    tp = typecheck(term)
    assert tp.type == Ty("tensor", (Ty("base"), Ty("base")))
    arg = term.arg
    assert id(arg) in tp.promotions
    # The two uses of f are derelictions.
    uses = [v for k, v in tp.use.items()]
    assert uses.count("bang") == 2


def test_letrec_types():
    term = parse("letrec f x = if x then new else f new in f (S new)", INT_OPS)
    tp = typecheck(term)
    assert tp.type == Ty("base")
    fty, _ = tp.binders[id(term)]
    assert fty == Ty("bang", (Ty("lolli", (Ty("base"), Ty("base"))),))
    # x shadows f inside M in `letrec f x = M`; f keeps its !-type.
    term = parse("letrec f f = f in f new", {})
    assert typecheck(term).binders[id(term)] == (fty, Ty("base"))


def test_resolve_flattens_the_chain_it_follows():
    chain = [TVar() for _ in range(10**4)]
    for v, nxt in zip(chain, chain[1:]):
        v.ref = nxt
    chain[-1].ref = Ty("base")
    assert resolve(chain[0]) == Ty("base")
    assert all(v.ref is chain[-1].ref for v in chain)


def test_unbound_variable_rejected():
    with pytest.raises(TypecheckError):
        typecheck(parse("f new", {}))


def test_base_type_cannot_be_duplicated():
    # b is used twice, forcing a !-function type, which clashes with base.
    with pytest.raises(TypecheckError):
        typecheck(parse("let <a, b> = <new, new> in if a then b else b", {}))


def test_linear_variable_cannot_cross_into_branch():
    with pytest.raises(TypecheckError):
        typecheck(parse("let <a, b> = <new, new> in if a then b else new", {}))


@pytest.mark.parametrize("src", [
    # b is used once, inside the body of a recursive function.
    "let <a, b> = <new, new> in letrec f x = <x, b> in f a",
    # g is used once, as the value promoted for the unused binder a.
    r"(\g. (\a. new) g) (\z. z)",
    # x is used once, as the value promoted for the twice-used f.
    r"(\x. (\f. <f new, f new>) x) (\z. z)",
])
def test_linear_variable_cannot_cross_into_a_duplicable_value(src):
    with pytest.raises(TypecheckError, match="crosses a duplicable boundary"):
        typecheck(parse(src, {}))


def linear_nest(n):
    """(\\v1. ... ((\\vn. vn) v(n-1)) ...) new: every binder is used once."""
    t = Var(f"v{n}")
    for i in range(n, 0, -1):
        t = App(Lam(f"v{i}", t), Var(f"v{i - 1}") if i > 1 else New())
    return t


@pytest.mark.parametrize("n", [60, 120])
def test_typecheck_visits_each_node_a_bounded_number_of_times(n, monkeypatch):
    import tokennets.pcfll as pcfll

    term = linear_nest(n)
    nodes = sum(1 for _ in walk(term))
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return scopes(t)

    monkeypatch.setattr(pcfll, "scopes", counted)
    assert typecheck(term).type == Ty("base")
    assert calls <= 2 * nodes


def test_only_values_promote():
    src = r"(\f. <f new, f new>) (if new then (\x. x) else (\y. y))"
    with pytest.raises(TypecheckError):
        typecheck(parse(src, {}))


# ---------------------------------------------------------------------------
# Substitution


def test_subst_capture_avoiding():
    inner = Lam("y", Pair(Var("x"), Var("y")))
    out = subst(inner, "x", Var("y"))
    assert isinstance(out, Lam) and out.var != "y"
    assert term_str(out.body.left) == "y"


def alpha_eq(a, b, free):
    ind = {v: i for i, v in enumerate(free)}
    return Closure(a, ind, IntRegisterMemory()) == Closure(b, ind, IntRegisterMemory())


def test_subst_renames_pair_and_recursive_binders():
    # let <a, b> = x in <a, x>  [x := a]: the subject is substituted, `a` renamed.
    t = LetPair("a", "b", Var("x"), Pair(Var("a"), Var("x")))
    out = subst(t, "x", Var("a"))
    assert out.left not in ("a", "b") and out.right == "b"
    assert alpha_eq(out, LetPair("c", "b", Var("a"), Pair(Var("c"), Var("a"))), ["a"])
    # letrec f y = f x in f x  [x := f]: `f` is renamed in both of its scopes.
    t = LetRec("f", "y", App(Var("f"), Var("x")), App(Var("f"), Var("x")))
    out = subst(t, "x", Var("f"))
    assert out.fun != "f" and free_vars(out) == {"f"}
    assert alpha_eq(out, LetRec("g", "y", App(Var("g"), Var("f")), App(Var("g"), Var("f"))), ["f"])


def test_subst_shares_what_it_leaves_alone():
    fun = Lam("y", Pair(Var("y"), New()))
    t = App(fun, Lam("x", Var("x")))
    out = subst(t, "x", Var("z"))
    assert out is t  # no free x: nothing is rebuilt
    t = Pair(fun, Var("x"))
    out = subst(t, "x", Var("z"))
    assert out.left is fun and out.right.name == "z"


DEEP = 10**4


def deep_terms(binder, head):
    """A DEEP-long chain S (S (... new)) and a DEEP-deep nest
    \\v0. ... \\v9999. v0 y, with the given binder prefix and head index."""
    chain = New()
    for _ in range(DEEP):
        chain = App(Const(S), chain)
    nest = App(Var(f"{binder}{head}"), Var("y"))
    for i in reversed(range(DEEP)):
        nest = Lam(f"{binder}{i}", nest)
    return chain, nest


def check_free_vars(chain, nest):
    assert free_vars(chain) == set() and free_vars(nest) == {"y"}


def check_all_vars(chain, nest):
    assert all_vars(chain) == set()
    assert all_vars(nest) == {f"v{i}" for i in range(DEEP)} | {"y"}


def check_binder_uses(chain, nest):
    assert binder_uses(chain) == {}
    uses = binder_uses(nest)  # v0 is used once, in the innermost scope
    assert len(uses) == DEEP and uses.pop((id(nest.body), "v0")) == 1
    assert set(uses.values()) == {0}


def check_subst(chain, nest):
    assert subst(chain, "y", New()) is chain
    out = subst(nest, "y", Var("v1"))  # captured: the binder v1 is renamed
    for _ in range(DEEP):
        out = out.body
    assert out.fun.name == "v0" and out.arg.name == "v1"


def check_canonical_key(chain, nest):
    m = IntRegisterMemory({0: 1})
    a = Closure(chain, {}, m)
    assert a == Closure(deep_terms("v", 0)[0], {}, m) and hash(a) == hash(Closure(chain, {}, m))
    b, alpha = Closure(nest, {"y": 0}, m), Closure(deep_terms("w", 0)[1], {"y": 0}, m)
    assert b == alpha and hash(b) == hash(alpha)
    assert b != Closure(deep_terms("v", 1)[1], {"y": 0}, m)


def check_term_str(chain, nest):
    assert term_str(chain) == "S (" * (DEEP - 1) + "S new" + ")" * (DEEP - 1)
    assert term_str(nest) == "".join(f"\\v{i}. " for i in range(DEEP)) + "v0 y"


def check_closure_repr(chain, nest):
    m = IntRegisterMemory({0: 1})
    text = repr(Closure(nest, {"y": 0}, m))
    assert text == f"Closure({term_str(nest)!r}, ind={{'y': 0}}, memory={m!r})"


def check_fused_machine(chain, nest):
    # DEEP + 1 micro-steps: the closure budget exposes the chain about 20
    # times on the way, and each exposed closure is hashed.
    fused = FusedSystem(PcfSystem())
    start = fused.prepare(Closure(chain, {}, IntRegisterMemory()))
    *_, (_, term, _) = lifted_steps(Distribution.dirac(start), fused, leftmost_policy, 100, TOL)
    ((final, p),) = list(term)
    assert p == 1.0 and final.memory.get(final.ind[final.term.name]) == DEEP


@pytest.mark.parametrize("check", [
    check_free_vars, check_all_vars, check_binder_uses, check_subst, check_canonical_key,
    check_term_str, check_closure_repr, check_fused_machine,
])
def test_walkers_are_stack_safe(check, default_recursion_limit):
    check(*deep_terms("v", 0))


# ---------------------------------------------------------------------------
# Abstract machine


def run(src, backend, steps=200):
    ops = backend.labels
    term = parse(src, ops)
    typecheck(term)
    cl = Closure(term, {}, backend.initial())
    sys = PcfSystem()
    *_, (dist, _, _) = lifted_steps(Distribution.dirac(cl), sys, leftmost_policy, steps, 0.0)
    return dist, sys


def s_chain(n):
    """S (S (... new)), n deep."""
    t = New()
    for _ in range(n):
        t = App(Const(S), t)
    return t


def register_tree(n):
    """A balanced tree of pairs with n leaves S new."""
    if n == 1:
        return App(Const(S), New())
    return Pair(register_tree(n // 2), register_tree(n - n // 2))


@pytest.mark.parametrize("shape", [s_chain, register_tree])
def test_search_work_per_micro_step_does_not_grow(shape, monkeypatch):
    # The search's work is its frame pushes and its hole fillings: a frame
    # is popped either to fill its node or to push the node's next frame.
    # A micro-step is a `closure_step_det` call (these shapes never branch).
    import tokennets.pcfll as pcfll

    calls = Counter()
    frame, fill, all_vars_, step_det = (
        pcfll.frame, pcfll._fill, pcfll.all_vars, pcfll.closure_step_det)

    def counted(name, f):
        def call(*a):
            calls[name] += 1
            return f(*a)
        return call

    def counted_step_det(cl, r):
        before = calls["all_vars"]
        out = step_det(cl, r)
        calls["micro"] += 1
        calls[f"all_vars.{r.kind}"] += calls["all_vars"] - before
        return out

    monkeypatch.setattr(pcfll, "frame", counted("work", frame))
    monkeypatch.setattr(pcfll, "_fill", counted("work", fill))
    monkeypatch.setattr(pcfll, "all_vars", counted("all_vars", all_vars_))
    monkeypatch.setattr(pcfll, "closure_step_det", counted_step_det)
    per_step = {}
    for n in (128, 512):
        calls.clear()
        fused = FusedSystem(PcfSystem())
        start = fused.prepare(Closure(shape(n), {}, IntRegisterMemory()))
        *_, (_, term, _) = lifted_steps(Distribution.dirac(start), fused, leftmost_policy, 20, TOL)
        ((final, p),) = list(term)
        assert p == 1.0 and sorted(final.memory.values.values()) == (
            [n] if shape is s_chain else [1] * n)
        assert calls["micro"] == (n + 1 if shape is s_chain else 2 * n)
        assert calls["all_vars.link"] == 0
        per_step[n] = calls["work"] / calls["micro"]
    assert per_step[512] <= 1.05 * per_step[128], per_step


def test_machine_identity():
    dist, sys = run(r"(\x. x) new", int_backend())
    ((final, p),) = list(dist)
    assert p == 1.0 and not sys.enumerate_redexes(final)
    assert isinstance(final.term, Var)
    assert final.memory.get(final.ind[final.term.name]) == 0


def test_machine_update():
    dist, _ = run("S (S new)", int_backend())
    ((final, _),) = list(dist)
    assert final.memory.get(final.ind[final.term.name]) == 2


def test_machine_pair_and_letpair():
    dist, _ = run("let <a, b> = <S new, new> in <b, a>", int_backend())
    ((final, _),) = list(dist)
    assert isinstance(final.term, Pair)
    # b first: address 1 (value 0), then a: address 0 (value 1).
    assert final.memory.get(final.ind[final.term.left.name]) == 0
    assert final.memory.get(final.ind[final.term.right.name]) == 1


def test_machine_letrec_argument_shadows_the_function():
    dist, _ = run(r"letrec a a = (\y. <new, a>) in (\f. a)", int_backend())
    ((final, p),) = list(dist)
    assert p == 1.0 and term_str(final.term) == r"\f. \a. \y. <new, a>"


def test_machine_coin_test():
    dist, sys = run("if c new then new else new", prob_backend())
    assert dist.mass() == pytest.approx(1.0)
    probs = sorted(p for _, p in dist)
    assert probs == [pytest.approx(0.5), pytest.approx(0.5)]
    for cl, _ in dist:
        assert not sys.enumerate_redexes(cl)
        assert isinstance(cl.term, Var)


def test_machine_letrec_countdown():
    dist, sys = run("letrec f x = if x then new else f new in f (S new)", int_backend())
    (p,), hit = [sum(q for _, q in dist)], None
    assert p == pytest.approx(1.0)
    for cl, _ in dist:
        assert not sys.enumerate_redexes(cl) and isinstance(cl.term, Var)


def test_machine_duplicated_function():
    dist, _ = run(r"(\f. <f new, f new>) (\x. x)", int_backend())
    ((final, _),) = list(dist)
    assert isinstance(final.term, Pair)
    assert final.ind[final.term.left.name] != final.ind[final.term.right.name]


def test_closure_alpha_and_address_equivalence():
    m = IntRegisterMemory()
    a = Closure(parse(r"\x. x", {}), {}, m)
    b = Closure(parse(r"\y. y", {}), {}, m)
    assert a == b and hash(a) == hash(b)
    c = Closure(Var("u"), {"u": 4}, IntRegisterMemory({4: 2}))
    d = Closure(Var("w"), {"w": 0}, IntRegisterMemory({0: 2}))
    assert c == d


@pytest.mark.parametrize("a, b", [
    (r"\x. \x. \y. x", r"\x. \x. \y. y"),
    (r"\x. letrec f x = \y. <x, y> in f", r"\x. letrec f x = \y. <y, x> in f"),
])
def test_closure_key_separates_shadowing_binders(a, b):
    # Bound variables are numbered by binder depth, so a binder that shadows
    # an outer one does not reuse the outer one's number.
    m = IntRegisterMemory()
    ca, cb = Closure(parse(a, {}), {}, m), Closure(parse(b, {}), {}, m)
    assert ca != cb and ca.canonical_key() != cb.canonical_key()
    assert len(list(Distribution([(ca, 0.5), (cb, 0.5)]))) == 2


def test_machine_diamond_smoke():
    ops = ProbRegisterMemory.labels
    seeds = []
    for src in [
        "if c new then S_like else new".replace("S_like", "new"),
        "let <a, b> = <new, new> in <b, a>",
    ]:
        term = parse(src, ops)
        typecheck(term)
        seeds.append(Closure(term, {}, ProbRegisterMemory()))
    report = check_diamond(
        PcfSystem(), seeds, depth=6, policies=(leftmost_policy, seeded_policy(3))
    )
    assert report.passed, report.failures
