"""A linearly typed call-by-value language with memory effects.

Terms:  x | \\x. M | M N | <M, N> | let <x,y> = M in N |
        letrec f x = M in N | new | c | if P then M else N

`new` allocates a fresh memory address of base type; constants are the
backend's labeled operations at type a^(x)n -o a^(x)n; `if` destructively
tests its base-typed guard.  The type system is linear: non-! variables are
used exactly once, and duplicable values live at types !(A -o B) introduced
by promotion.  Three duplicable boundaries may only capture !-typed
variables: the branches of an `if`, a `letrec` function's body, and a
promoted value.  A linear variable bound outside one and used inside it is
a type error.  In `letrec f x = M`, `x` shadows `f` inside `M`.  Types are
inferred by unification, with promotions inserted where a value is checked
against a !-type, and linearity is checked in the same pass.

The abstract machine rewrites closures (term, address map, memory): `new`
links a fresh address, a constant applied to a tuple of linked variables
updates the memory, `if` on a linked variable branches through the memory
test, and beta/let/letrec steps are pure.  A closure holds its head redex
with the redex's evaluation context, a persistent stack of frames (Huet's
zipper).  A step contracts the redex and resumes the search at the hole,
not at the root (refocusing, after Danvy and Nielsen), so a micro-step
touches only the part of the term around the hole; the whole term is
built only to be hashed or printed.  `new` names its variable from a
counter that avoids only the names of the program the run started from,
so no step walks the term for a fresh name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_not
from typing import Callable, NamedTuple

from .memory import KEYWORDS, OperationLabel, canonical_addresses, fresh


# ---------------------------------------------------------------------------
# Terms (identity equality: nodes carry type annotations after checking)


@dataclass(eq=False)
class Term:
    pass


@dataclass(eq=False)
class Var(Term):
    name: str


@dataclass(eq=False)
class Lam(Term):
    var: str
    body: Term


@dataclass(eq=False)
class App(Term):
    fun: Term
    arg: Term


@dataclass(eq=False)
class Pair(Term):
    left: Term
    right: Term


@dataclass(eq=False)
class LetPair(Term):
    left: str
    right: str
    subject: Term
    body: Term


@dataclass(eq=False)
class LetRec(Term):
    fun: str
    var: str
    fbody: Term
    body: Term


@dataclass(eq=False)
class New(Term):
    pass


@dataclass(eq=False)
class Const(Term):
    label: OperationLabel


@dataclass(eq=False)
class If(Term):
    guard: Term
    then: Term
    els: Term


# ---------------------------------------------------------------------------
# Binding structure: the one table the term walkers read.  Terms are never
# mutated, so a rewritten term shares every subterm it leaves alone.
#
# For each node class: its subterms in evaluation order, each with the names
# that the node binds in it.  A binder node binds all of its names in its
# first scope that binds any, and its fields are those names followed by its
# subterms, so `type(t)(*names, *subterms)` builds a node like `t`.
SCOPES: dict[type, Callable[[Term], tuple[tuple[Term, tuple[str, ...]], ...]]] = {
    Var: lambda t: (),
    Lam: lambda t: ((t.body, (t.var,)),),
    App: lambda t: ((t.fun, ()), (t.arg, ())),
    Pair: lambda t: ((t.left, ()), (t.right, ())),
    LetPair: lambda t: ((t.subject, ()), (t.body, (t.left, t.right))),
    LetRec: lambda t: ((t.fbody, (t.fun, t.var)), (t.body, (t.fun,))),
    New: lambda t: (),
    Const: lambda t: (),
    If: lambda t: ((t.guard, ()), (t.then, ()), (t.els, ())),
}


def scopes(t: Term) -> tuple[tuple[Term, tuple[str, ...]], ...]:
    """The subterms of `t` in evaluation order, each with the names `t` binds in it."""
    return SCOPES[type(t)](t)


def walk(t: Term):
    """Yield (node, bound) for every node of `t` in evaluation pre-order,
    where `bound` lists the names bound around the node, innermost first.
    A bound variable's binder depth (de Bruijn level) is therefore
    `len(bound) - 1 - bound.index(name)`."""
    todo = [(t, ())]
    while todo:
        t, bound = todo.pop()
        yield t, bound
        for s, names in reversed(scopes(t)):
            todo.append((s, names[::-1] + bound if names else bound))


_FUN_PARENS = (Lam, If, LetPair, LetRec)
_ARG_PARENS = (App, Lam, If, LetPair, LetRec)


def term_str(t: Term) -> str:
    # Each node writes the text before its first subterm at once and stacks
    # the rest of its text and subterms, the next one to print last.
    out, todo = [], [t]
    write = out.append
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is str:
            write(t)
        elif cls is Var:
            write(t.name)
        elif cls is App:
            fp, ap = isinstance(t.fun, _FUN_PARENS), isinstance(t.arg, _ARG_PARENS)
            if ap:
                todo += (")", t.arg, ") (" if fp else " (", t.fun)
            else:
                todo += (t.arg, ") " if fp else " ", t.fun)
            if fp:
                write("(")
        elif cls is Pair:
            write("<")
            todo += (">", t.right, ", ", t.left)
        elif cls is Lam:
            write(f"\\{t.var}. ")
            todo.append(t.body)
        elif cls is LetPair:
            write(f"let <{t.left}, {t.right}> = ")
            todo += (t.body, " in ", t.subject)
        elif cls is LetRec:
            write(f"letrec {t.fun} {t.var} = ")
            todo += (t.body, " in ", t.fbody)
        elif cls is New:
            write("new")
        elif cls is Const:
            write(t.label.name)
        elif cls is If:
            write("if ")
            todo += (t.els, " else ", t.then, " then ", t.guard)
        else:
            raise TypeError(t)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing


class ParseError(Exception):
    pass


def tokenize(src: str) -> list[str]:
    tokens = []
    for line in src.splitlines():
        line = line.split("--")[0]
        i = 0
        while i < len(line):
            ch = line[i]
            if ch.isspace():
                i += 1
            elif ch in "\\.<>,()=":
                tokens.append(ch)
                i += 1
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(line[i:j])
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], ops: dict[str, OperationLabel]):
        self.tokens = tokens
        self.pos = 0
        self.ops = ops

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def ident(self) -> str:
        tok = self.next()
        if not tok[0].isalpha() or tok in KEYWORDS or tok in self.ops:
            raise ParseError(f"expected identifier, got {tok!r}")
        return tok

    def term(self) -> Term:
        tok = self.peek()
        if tok == "\\":
            self.next()
            var = self.ident()
            self.expect(".")
            return Lam(var, self.term())
        if tok == "let":
            self.next()
            self.expect("<")
            a = self.ident()
            self.expect(",")
            b = self.ident()
            self.expect(">")
            self.expect("=")
            subject = self.term()
            self.expect("in")
            return LetPair(a, b, subject, self.term())
        if tok == "letrec":
            self.next()
            f = self.ident()
            x = self.ident()
            self.expect("=")
            fbody = self.term()
            self.expect("in")
            return LetRec(f, x, fbody, self.term())
        if tok == "if":
            self.next()
            guard = self.term()
            self.expect("then")
            then = self.term()
            self.expect("else")
            return If(guard, then, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.atom()
        while self.peek() is not None and (
            self.peek() not in (")", ">", ",", "in", "then", "else")
        ):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.next()
        if tok == "new":
            return New()
        if tok == "(":
            t = self.term()
            self.expect(")")
            return t
        if tok == "<":
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            return Pair(a, b)
        if tok in self.ops:
            return Const(self.ops[tok])
        if tok[0].isalpha() and tok not in KEYWORDS:
            return Var(tok)
        raise ParseError(f"unexpected token {tok!r}")


def parse(src: str, ops: dict[str, OperationLabel]) -> Term:
    p = _Parser(tokenize(src), ops)
    t = p.term()
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.peek()!r}")
    return t


# ---------------------------------------------------------------------------
# Types and inference


class TypecheckError(Exception):
    pass


@dataclass(eq=False)
class TVar:
    ref: "Ty | None" = None


@dataclass(frozen=True)
class Ty:
    kind: str  # base | lolli | tensor | bang
    sub: tuple = ()

    def __repr__(self):
        if self.kind == "base":
            return "a"
        if self.kind == "lolli":
            return f"({self.sub[0]} -o {self.sub[1]})"
        if self.kind == "tensor":
            return f"({self.sub[0]} * {self.sub[1]})"
        return f"!{self.sub[0]}"


BASE = Ty("base")


def lolli(a, b):
    return Ty("lolli", (a, b))


def tensor_t(a, b):
    return Ty("tensor", (a, b))


def bang_t(a):
    return Ty("bang", (a,))


def resolve(t):
    """The end of `t`'s TVar chain; every variable on the chain is bound to
    it directly, so the next lookup takes one step."""
    end = t
    while isinstance(end, TVar) and end.ref is not None:
        end = end.ref
    while t is not end:
        t.ref, t = end, t.ref
    return end


def occurs(v: TVar, t) -> bool:
    t = resolve(t)
    if t is v:
        return True
    if isinstance(t, Ty):
        return any(occurs(v, s) for s in t.sub)
    return False


def unify(a, b) -> None:
    a, b = resolve(a), resolve(b)
    if a is b:
        return
    if isinstance(a, TVar):
        if occurs(a, b):
            raise TypecheckError("recursive type")
        a.ref = b
        return
    if isinstance(b, TVar):
        unify(b, a)
        return
    if a.kind != b.kind or len(a.sub) != len(b.sub):
        raise TypecheckError(f"type mismatch: {ground(a)} vs {ground(b)}")
    for x, y in zip(a.sub, b.sub):
        unify(x, y)


def ground(t) -> Ty:
    """Fully resolve, defaulting leftover variables to the base type."""
    t = resolve(t)
    if isinstance(t, TVar):
        t.ref = BASE
        return BASE
    return Ty(t.kind, tuple(ground(s) for s in t.sub))


def tuple_type(n: int) -> Ty:
    return BASE if n == 1 else tensor_t(BASE, tuple_type(n - 1))


def is_value(t: Term) -> bool:
    """A variable, a function, a constant, or a pair of values."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Pair):
            todo += (t.left, t.right)
        elif not isinstance(t, (Var, Lam, Const)):
            return False
    return True


def binder_uses(t: Term) -> dict[tuple[int, str], int]:
    """Map (id(s), name) to the number of free occurrences of `name` in `s`,
    for every scope `s` of `t` and every name bound in it, in one walk."""
    uses: dict[tuple[int, str], int] = {}
    inner: dict[str, list[int]] = {}  # name -> ids of the scopes binding it, innermost last
    # An entry (term, names) visits `term`, a scope binding `names`; with
    # term None, it leaves the scope that bound `names`.
    todo: list = [(t, ())]
    while todo:
        t, names = todo.pop()
        if t is None:
            for name in names:
                inner[name].pop()
            continue
        if names:
            for name in names:
                uses[id(t), name] = 0
                inner.setdefault(name, []).append(id(t))
            todo.append((None, names))
        if isinstance(t, Var):
            if inner.get(t.name):
                uses[inner[t.name][-1], t.name] += 1
        else:
            todo.extend(scopes(t))
    return uses


class Checker:
    """One pass of unification-based inference, promotion insertion and
    linearity checking.

    A binder whose variable occurs zero or several times in its scope is
    forced to a !(A -o B) type; a once-used binder is linear and gets a plain
    variable.  Unification can still resolve that variable to a !-type, for
    instance when the two branches of an `if` are functions whose binders
    are used once in one branch and not at all in the other; its one
    occurrence then stays a linear use.  `if` branches, recursive function
    bodies and promoted values are duplicable boundaries: a context entry is
    (type, depth), where depth counts the boundaries around a linear
    binder's scope (None for a !-binder), and a linear variable used at
    another depth crosses one.  `promotions` collects term nodes that are
    boxed by the translation; `use` records for each variable occurrence
    whether it is a linear use or a dereliction of a !-variable.
    """

    def __init__(self, term: Term):
        self.uses = binder_uses(term)
        self.depth = 0
        self.promotions: set[int] = set()
        self.use: dict[int, str] = {}
        self.binders: dict[int, tuple] = {}

    def bind(self, scope: Term, *names: str) -> list[tuple]:
        """Context entries for `names`, bound in `scope`: a once-used name is
        linear, with a type variable and the current depth; any other gets
        !(A -o B)."""
        return [
            (TVar(), self.depth) if self.uses[id(scope), v] == 1
            else (bang_t(lolli(TVar(), TVar())), None)
            for v in names
        ]

    def infer(self, ctx: dict, t: Term):
        if isinstance(t, Var):
            if t.name not in ctx:
                raise TypecheckError(f"unbound variable {t.name}")
            d, depth = ctx[t.name]
            if depth is not None and depth != self.depth:
                raise TypecheckError(f"linear variable {t.name} crosses a duplicable boundary")
            d = resolve(d)
            if isinstance(d, Ty) and d.kind == "bang":
                self.use[id(t)] = "bang"
                return d.sub[0]
            self.use[id(t)] = "linear"
            return d
        if isinstance(t, Lam):
            (x,) = self.bind(t.body, t.var)
            self.binders[id(t)] = (x[0],)
            return lolli(x[0], self.infer({**ctx, t.var: x}, t.body))
        if isinstance(t, App):
            tf = self.infer(ctx, t.fun)
            a, b = TVar(), TVar()
            unify(tf, lolli(a, b))
            self.check(ctx, t.arg, a)
            return b
        if isinstance(t, Pair):
            return tensor_t(self.infer(ctx, t.left), self.infer(ctx, t.right))
        if isinstance(t, LetPair):
            if t.left == t.right:
                raise TypecheckError("pair pattern variables must be distinct")
            x, y = self.bind(t.body, t.left, t.right)
            self.binders[id(t)] = (x[0], y[0])
            self.check(ctx, t.subject, tensor_t(x[0], y[0]))
            return self.infer({**ctx, t.left: x, t.right: y}, t.body)
        if isinstance(t, LetRec):
            a, b = TVar(), TVar()
            f = (bang_t(lolli(a, b)), None)
            self.depth += 1
            (x,) = self.bind(t.fbody, t.var)
            self.binders[id(t)] = (f[0], x[0])
            unify(a, x[0])
            # The argument shadows the function when they share a name.
            self.check({**ctx, t.fun: f, t.var: x}, t.fbody, b)
            self.depth -= 1
            return self.infer({**ctx, t.fun: f}, t.body)
        if isinstance(t, New):
            return BASE
        if isinstance(t, Const):
            n = t.label.arity
            return lolli(tuple_type(n), tuple_type(n))
        if isinstance(t, If):
            self.check(ctx, t.guard, BASE)
            self.depth += 1
            ty = self.infer(ctx, t.then)
            self.check(ctx, t.els, ty)
            self.depth -= 1
            return ty
        raise TypeError(t)

    def check(self, ctx: dict, t: Term, expected) -> None:
        e = resolve(expected)
        if isinstance(e, Ty) and e.kind == "bang":
            if not is_value(t):
                raise TypecheckError(f"only values can be promoted: {term_str(t)}")
            self.promotions.add(id(t))
            # A !-typed variable re-promotes through its dereliction.
            self.depth += 1
            self.check(ctx, t, e.sub[0])
            self.depth -= 1
            return
        unify(self.infer(ctx, t), expected)


@dataclass
class TypedProgram:
    term: Term
    type: Ty
    # binder node id -> the ground types of the names it binds, in field
    # order: (var,) for \, (left, right) for let <,>, (fun, var) for letrec
    binders: dict[int, tuple[Ty, ...]]
    use: dict[int, str]         # Var node id -> "linear" | "bang"
    promotions: set[int]        # node ids wrapped in a !-box


def typecheck(term: Term) -> TypedProgram:
    """Infer the type of the closed program `term` and check its linearity."""
    checker = Checker(term)
    result = ground(checker.infer({}, term))
    binders = {k: tuple(map(ground, ds)) for k, ds in checker.binders.items()}
    return TypedProgram(term, result, binders, checker.use, checker.promotions)


# ---------------------------------------------------------------------------
# Closures and the abstract machine


class Closure:
    """A machine state: a term, an address map from its free variables to
    memory addresses, and a memory.

    A closure keeps its head redex, `redex`, with the redex's context, and
    builds the whole `term` from them on first use.  Closures are never
    changed: a step builds its reduct in the redex's context, and shares
    the address map when the step leaves it alone.  `names` holds the
    names of the program a run started from, shared by every closure of
    the run.  A name drawn for `new` avoids them, and cannot equal a name
    drawn before it, whose counter value is smaller."""

    __slots__ = ("redex", "ind", "memory", "names", "_term", "_key", "_hash")

    def __init__(self, term: Term, ind: dict[str, int], memory):
        self.ind = dict(ind)
        if len(set(self.ind.values())) != len(self.ind):
            raise ValueError(f"address map not injective: {self.ind}")
        self.memory = memory
        self.names = frozenset(all_vars(term) | self.ind.keys())
        self.redex = find_redex(term)
        self._term = term
        self._key = None
        self._hash = None

    def reduct(self, t: Term, ctx: tuple | None, ind: dict[str, int], memory) -> "Closure":
        """The closure of term `t` in the hole of `ctx`, with this one's names;
        the search for its redex starts at `t`."""
        cl = Closure.__new__(Closure)
        cl.ind, cl.memory, cl.names = ind, memory, self.names
        cl.redex = find_redex(t, ctx)
        cl._term = None if cl.redex is not None else plug(t, ctx)
        cl._key = None
        cl._hash = None
        return cl

    @property
    def term(self) -> Term:
        if self._term is None:
            self._term = plug(self.redex.node, self.redex.ctx)
        return self._term

    def canonical_key(self):
        """(shape, renamed memory).  The shape lists the term's nodes in
        pre-order: a bound variable as its binder's depth, the n-th free
        variable by first use as ~n (its address's canonical number is n),
        a constant as its label and any other node as its class."""
        if self._key is None:
            shape, order = [], {}
            for t, bound in walk(self.term):
                if isinstance(t, Var):
                    if t.name in bound:
                        shape.append(len(bound) - 1 - bound.index(t.name))
                    elif t.name in self.ind:
                        shape.append(~order.setdefault(t.name, len(order)))
                    else:
                        raise ValueError(f"free variable {t.name} has no address")
                else:
                    shape.append(t.label if isinstance(t, Const) else type(t))
            addrs = [self.ind[v] for v in order] + sorted(self.ind.values())
            sigma = canonical_addresses(addrs, self.memory)
            self._key = (tuple(shape), self.memory.rename(sigma))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Closure) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self) -> str:
        return f"Closure({term_str(self.term)!r}, ind={self.ind}, memory={self.memory!r})"


def free_vars(t: Term) -> set[str]:
    return {s.name for s, bound in walk(t) if isinstance(s, Var) and s.name not in bound}


def all_vars(t: Term) -> set[str]:
    """Every variable name in `t`, bound or free."""
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            out.add(t.name)
        for s, names in scopes(t):
            out.update(names)
            todo.append(s)
    return out


_rename_counter = itertools.count()


def _fresh_name(avoid: set[str] | frozenset[str], base: str = "v") -> str:
    while True:
        name = f"{base}_{next(_rename_counter)}"
        if name not in avoid:
            return name


def subst(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for the free `name` in `t`.

    Subterms the substitution leaves alone are shared, not copied.  Where
    `name` is free, a binder that would capture a free variable of `value`
    is renamed, its fresh name drawn just before the walk enters its first
    scope."""
    fv = None  # free_vars(value), computed at the first binder that needs it
    done: list[Term] = []
    # An entry (term, env, bound, scope) visits `term` with `env` mapping
    # names to their replacements.  `term` is a subterm of the node of
    # `scope` = (node, its scopes, its renamings), which binds `bound` in
    # it.  With env None, the entry rebuilds the node from `done`.
    todo: list = [(t, {name: value}, (), None)]
    while todo:
        t, env, bound, scope = todo.pop()
        if env is None:
            _, kids, ren = scope
            new = done[len(done) - len(kids):]
            del done[len(done) - len(kids):]
            if ren or any(map(is_not, new, [s for s, _ in kids])):
                names = next((bs for _, bs in kids if bs), ())
                t = type(t)(*[ren[v].name if v in ren else v for v in names], *new)
            done.append(t)
            continue
        if bound:
            node, _, ren = scope
            if name in env:
                if fv is None:
                    fv = free_vars(value)
                for v in bound:
                    if v in fv and v not in ren:
                        ren[v] = Var(_fresh_name(fv | all_vars(node) | {name}))
            if ren or not env.keys().isdisjoint(bound):
                env = {k: r for k, r in env.items() if k not in bound}
                env.update((v, ren[v]) for v in bound if v in ren)
        if isinstance(t, Var):
            done.append(env.get(t.name, t))
        elif not env or isinstance(t, (New, Const)):
            done.append(t)
        else:
            scope = (t, scopes(t), {})
            todo.append((t, None, (), scope))
            for s, bs in reversed(scope[1]):
                todo.append((s, env, bs, scope))
    return done[0]


# Evaluation contexts.  A context is a persistent stack of frames, None when
# empty: a frame (kind, node, value, outer) is one node around the hole,
# with `outer` the frame around it.  The kind says where the hole is:
#   APP_FUN    App(hole, N)        APP_ARG     App(V, hole)
#   PAIR_LEFT  <hole, N>           PAIR_RIGHT  <V, hole>
#   LET        let <x,y> = hole in N          IF   if hole then M else N
# `node` is the node the frame was made from: N, M and the bound names are
# read from it, and filling the hole gives `node` itself while the hole and
# V still hold its own subterms.  In APP_ARG and PAIR_RIGHT frames, `value`
# is V, the finished left side, so a value is never walked twice; it is
# None in the others.
APP_FUN, APP_ARG, PAIR_LEFT, PAIR_RIGHT, LET, IF = range(6)


def frame(kind: int, node: Term, value: Term | None, outer: tuple | None) -> tuple:
    """A frame around `outer`.  Frames are plain tuples, and every push
    goes through here, so wrapping this function counts the pushes."""
    return kind, node, value, outer


def _fill(f: tuple, t: Term) -> Term:
    """The node of frame `f` with `t` in its hole."""
    kind, node, value, _ = f
    if kind == APP_FUN:
        return node if t is node.fun else App(t, node.arg)
    if kind == APP_ARG:
        return node if value is node.fun and t is node.arg else App(value, t)
    if kind == PAIR_LEFT:
        return node if t is node.left else Pair(t, node.right)
    if kind == PAIR_RIGHT:
        return node if value is node.left and t is node.right else Pair(value, t)
    if kind == LET:
        return node if t is node.subject else LetPair(node.left, node.right, t, node.body)
    return node if t is node.guard else If(t, node.then, node.els)


def plug(t: Term, ctx: tuple | None) -> Term:
    """The whole term: `t` in the hole of `ctx`."""
    while ctx is not None:
        t, ctx = _fill(ctx, t), ctx[3]
    return t


def _tuple_vars(t: Term) -> list[str] | None:
    """Variable names of a var-tuple <x1, <x2, ...>> (or a single var)."""
    names, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            names.append(t.name)
        elif isinstance(t, Pair):
            todo += (t.right, t.left)
        else:
            return None
    return names


class PcfRedex(NamedTuple):
    """A redex: its rule kind, its term node, and the evaluation context
    around the node."""

    kind: str
    node: Term
    ctx: tuple | None

    def __repr__(self) -> str:
        return f"{self.kind}: {term_str(self.node)}"


def find_redex(t: Term, ctx: tuple | None = None) -> PcfRedex | None:
    """The head redex of `t` in the hole of `ctx` (the empty context by
    default), or None when that term is a value or stuck.

    The search refocuses: it goes down the subterm each node evaluates
    first, pushing a frame per node, and when the focus is a value it pops
    a frame and goes down that node's next subterm, or, when the node has
    none left, looks for a redex at the node.  A step contracts the redex
    and searches again from its reduct in the same context, so it touches
    only the part of the term around the hole."""
    while True:
        cls = type(t)
        if cls is App:
            ctx, t = frame(APP_FUN, t, None, ctx), t.fun
        elif cls is Pair:
            ctx, t = frame(PAIR_LEFT, t, None, ctx), t.left
        elif cls is LetPair:
            ctx, t = frame(LET, t, None, ctx), t.subject
        elif cls is If:
            ctx, t = frame(IF, t, None, ctx), t.guard
        elif cls is New:
            return PcfRedex("link", t, ctx)
        elif cls is LetRec:
            return PcfRedex("letrec", t, ctx)
        else:  # a variable, function or constant: climb while nodes complete
            while True:
                if ctx is None:
                    return None
                kind, node, value, outer = ctx
                if kind == APP_FUN:
                    ctx, t = frame(APP_ARG, node, t, outer), node.arg
                    break
                if kind == PAIR_LEFT:
                    ctx, t = frame(PAIR_RIGHT, node, t, outer), node.right
                    break
                t = _fill(ctx, t)
                if kind == PAIR_RIGHT:
                    ctx = outer
                    continue
                if kind == APP_ARG:
                    if isinstance(value, Lam):
                        return PcfRedex("beta", t, outer)
                    if isinstance(value, Const) and _tuple_vars(t.arg) is not None:
                        return PcfRedex("update", t, outer)
                elif kind == LET:
                    if isinstance(t.subject, Pair):
                        return PcfRedex("letpair", t, outer)
                elif isinstance(t.guard, Var):
                    return PcfRedex("test", t, outer)
                return None


def _check_redex(ok: bool, kind: str, node) -> None:
    if not ok:
        raise ValueError(f"not a {kind} redex: {type(node).__name__} node")


def closure_step(cl: Closure, redex) -> list[tuple[Closure, float]]:
    """Fire a test redex: the reducts with their probabilities.  `cl` is
    left unchanged.  Any other redex raises `ValueError`:
    `closure_step_det` fires it."""
    kind, node, ctx = redex
    if kind != "test":
        raise ValueError(f"{kind} redex does not branch: use closure_step_det")
    _check_redex(isinstance(node, If) and isinstance(node.guard, Var), kind, node)
    i = cl.ind[node.guard.name]
    ind2 = {v: a for v, a in cl.ind.items() if v != node.guard.name}
    return [
        (cl.reduct(node.then if outcome else node.els, ctx, ind2, m2), p)
        for (outcome, m2), p in cl.memory.test(i)
    ]


def closure_step_det(cl: Closure, redex) -> Closure:
    """The reduct of a deterministic redex; `cl` is left unchanged."""
    kind, node, ctx = redex
    if kind == "link":
        _check_redex(isinstance(node, New), kind, node)
        used = set(cl.ind.values())
        i = fresh(cl.memory, used)
        if i in used:
            raise ValueError(f"address {i} is linked already")
        name = _fresh_name(cl.names, base="x")
        return cl.reduct(Var(name), ctx, {**cl.ind, name: i}, cl.memory)
    if kind == "letrec":
        _check_redex(isinstance(node, LetRec), kind, node)
        # An argument named like the function shadows it in the body.
        inner = node.fbody if node.fun == node.var else LetRec(node.fun, node.var, node.fbody, node.fbody)
        unrolled = Lam(node.var, inner)
        return cl.reduct(subst(node.body, node.fun, unrolled), ctx, cl.ind, cl.memory)
    if kind == "beta":
        _check_redex(isinstance(node, App) and isinstance(node.fun, Lam), kind, node)
        out = subst(node.fun.body, node.fun.var, node.arg)
        return cl.reduct(out, ctx, cl.ind, cl.memory)
    if kind == "update":
        _check_redex(isinstance(node, App) and isinstance(node.fun, Const), kind, node)
        names = _tuple_vars(node.arg)
        addrs = tuple(cl.ind[n] for n in names)
        m2 = cl.memory.update(addrs, node.fun.label)
        return cl.reduct(node.arg, ctx, cl.ind, m2)
    if kind == "letpair":
        _check_redex(isinstance(node, LetPair) and isinstance(node.subject, Pair), kind, node)
        out = subst(node.body, node.left, node.subject.left)
        out = subst(out, node.right, node.subject.right)
        return cl.reduct(out, ctx, cl.ind, cl.memory)
    raise ValueError(f"{kind} redex branches: use closure_step")


class PcfSystem:
    """PCF_AM closures as a probabilistic rewrite system.  A closure carries
    its head redex, so neither `enumerate_redexes` nor `next_det` searches."""

    def enumerate_redexes(self, cl: Closure):
        found = cl.redex
        return [found] if found is not None and found.kind == "test" else []

    def next_det(self, cl: Closure):
        found = cl.redex
        return found if found is not None and found.kind != "test" else None

    def apply(self, cl: Closure, r) -> list[tuple[Closure, float]]:
        return closure_step(cl, r)

    def own(self, cl: Closure) -> Closure:
        return cl

    def step_det(self, cl: Closure, r) -> Closure:
        return closure_step_det(cl, r)
