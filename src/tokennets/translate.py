"""Translation from typed terms to program nets.

Types map to formulas (base -> 1, A -o B -> A'^ %% B', A * B -> A' ** B',
!A -> !A'); a term with linear context Gamma and duplicable context Delta
becomes a net whose first conclusion carries the term's formula, with one
negated conclusion per linear variable and one ?-conclusion per duplicable
variable.  Abstractions become %%-nodes, applications a **-node cut against
the function, allocations inactive one nodes, constants a synchronization
gadget, conditionals a choice box whose left content is the false branch,
promotions !-boxes, and recursive definitions fixpoint boxes cut against the
body's ?-conclusion for the recursive name.
"""

from __future__ import annotations

from .memory import Backend
from .nets import BOT, Formula, InvalidNetError, Net, ONE, bang, neg, par, quest, tensor, validate
from .pcfll import (
    App,
    Const,
    If,
    Lam,
    LetPair,
    LetRec,
    New,
    Pair,
    Term,
    Ty,
    TypedProgram,
    Var,
)
from .prognets import ProgramNet


def type_formula(ty: Ty) -> Formula:
    if ty.kind == "base":
        return ONE
    if ty.kind == "lolli":
        return par(neg(type_formula(ty.sub[0])), type_formula(ty.sub[1]))
    if ty.kind == "tensor":
        return tensor(type_formula(ty.sub[0]), type_formula(ty.sub[1]))
    if ty.kind == "bang":
        return bang(type_formula(ty.sub[0]))
    raise ValueError(ty.kind)


def _qtype(d: Ty) -> Formula:
    if d.kind != "bang":
        raise InvalidNetError(f"duplicable variable of type {d}")
    return quest(neg(type_formula(d.sub[0])))


def _cut(net: Net, e1: int, e2: int) -> None:
    net.add_node("cut", [], [e1, e2])


def _merge_bang(a: dict, b: dict) -> dict:
    out = {k: list(v) for k, v in a.items()}
    for k, v in b.items():
        out.setdefault(k, []).extend(v)
    return out


def _merge_lin(a: dict, b: dict) -> dict:
    if set(a) & set(b):
        raise InvalidNetError(f"linear variables {sorted(set(a) & set(b))} used in both parts")
    return {**a, **b}


class _Translator:
    def __init__(self, tp: TypedProgram):
        self.tp = tp

    # -- helpers ----------------------------------------------------------

    def combine(self, net: Net, edges: list[int], qt: Formula) -> int:
        """Merge the ?-edges of one duplicable variable into a single edge
        (weakening if absent, a contraction tree otherwise)."""
        if not edges:
            return net.add_node("weak", [qt]).concl[0]
        edges = list(edges)
        while len(edges) > 1:
            c = net.add_node("contr", [qt], edges[:2])
            edges = [c.concl[0]] + edges[2:]
        return edges[0]

    def bind(self, net: Net, var: str, d: Ty, lin: dict, bng: dict) -> int:
        """Extract the context edge of a binder's variable: its linear edge
        if it was used linearly (a once-used binder can still get a !-type
        by unification), else its ?-edges merged into one."""
        if var in lin:
            return lin.pop(var)
        return self.combine(net, bng.pop(var, []), _qtype(d))

    def enclose(self, net: Net, kind: str, parts: list, head_types: list[Formula], env: dict):
        """Add a `kind` box over `parts`, each (content, head edges,
        ?-context).  Each content concludes its head edges, then one merged
        ?-edge per name of the contexts' union, in sorted order; the box
        concludes `head_types`, then the same ?-types.  Returns the box and
        its outer ?-context."""
        names = sorted(set().union(*(bng for _, _, bng in parts)))
        qts = [_qtype(env[v]) for v in names]
        for content, heads, bng in parts:
            content.conclusions = heads + [
                self.combine(content, bng.get(v, []), qt) for v, qt in zip(names, qts)
            ]
        box = net.add_node(kind, head_types + qts, contents=[c for c, _, _ in parts])
        return box, {v: [e] for v, e in zip(names, box.concl[len(head_types):])}

    # -- main recursion ---------------------------------------------------

    def go(self, net: Net, t: Term, env: dict[str, Ty]):
        if id(t) in self.tp.promotions:
            return self.boxed(net, t, env)
        return self.go_raw(net, t, env)

    def boxed(self, net: Net, t: Term, env: dict[str, Ty]):
        content = Net()
        e, lin, bng = self.go_raw(content, t, env)
        if lin:
            raise InvalidNetError(f"linear variables {sorted(lin)} inside a duplicable value")
        box, bng_out = self.enclose(net, "bangbox", [(content, [e], bng)],
                                    [bang(content.edges[e])], env)
        return box.concl[0], {}, bng_out

    def go_raw(self, net: Net, t: Term, env: dict[str, Ty]):
        if isinstance(t, Var):
            d = env[t.name]
            if self.tp.use[id(t)] == "bang":
                c = type_formula(d.sub[0])
                ax = net.add_node("ax", [neg(c), c])
                der = net.add_node("der", [quest(neg(c))], [ax.concl[0]])
                return ax.concl[1], {}, {t.name: [der.concl[0]]}
            a = type_formula(d)
            ax = net.add_node("ax", [neg(a), a])
            return ax.concl[1], {t.name: ax.concl[0]}, {}

        if isinstance(t, Lam):
            (d,) = self.tp.binders[id(t)]
            e, lin, bng = self.go(net, t.body, {**env, t.var: d})
            x_edge = self.bind(net, t.var, d, lin, bng)
            p = net.add_node("par", [par(net.edges[x_edge], net.edges[e])], [x_edge, e])
            return p.concl[0], lin, bng

        if isinstance(t, App):
            e_f, lin1, bng1 = self.go(net, t.fun, env)
            e_a, lin2, bng2 = self.go(net, t.arg, env)
            fty = net.edges[e_f]
            if fty.kind != "par":
                raise InvalidNetError(f"applied a term of formula {fty}")
            bty = fty.sub[1]
            ax = net.add_node("ax", [neg(bty), bty])
            tn = net.add_node("tensor", [tensor(net.edges[e_a], neg(bty))], [e_a, ax.concl[0]])
            _cut(net, e_f, tn.concl[0])
            return ax.concl[1], _merge_lin(lin1, lin2), _merge_bang(bng1, bng2)

        if isinstance(t, Pair):
            e_l, lin1, bng1 = self.go(net, t.left, env)
            e_r, lin2, bng2 = self.go(net, t.right, env)
            tn = net.add_node("tensor", [tensor(net.edges[e_l], net.edges[e_r])], [e_l, e_r])
            return tn.concl[0], _merge_lin(lin1, lin2), _merge_bang(bng1, bng2)

        if isinstance(t, LetPair):
            d_l, d_r = self.tp.binders[id(t)]
            e_s, lin0, bng0 = self.go(net, t.subject, env)
            e_b, lin, bng = self.go(net, t.body, {**env, t.left: d_l, t.right: d_r})
            x_edge = self.bind(net, t.left, d_l, lin, bng)
            y_edge = self.bind(net, t.right, d_r, lin, bng)
            p = net.add_node("par", [par(net.edges[x_edge], net.edges[y_edge])], [x_edge, y_edge])
            _cut(net, e_s, p.concl[0])
            return e_b, _merge_lin(lin0, lin), _merge_bang(bng0, bng)

        if isinstance(t, New):
            one = net.add_node("one", [ONE])
            return one.concl[0], {}, {}

        if isinstance(t, Const):
            return self.constant(net, t), {}, {}

        if isinstance(t, If):
            return self.conditional(net, t, env)

        if isinstance(t, LetRec):
            return self.recursion(net, t, env)

        raise TypeError(t)

    def constant(self, net: Net, t: Const) -> int:
        """c : 1^n -o 1^n as a %%-node over n axioms feeding a sync node."""
        n = t.label.arity
        axs = [net.add_node("ax", [BOT, ONE]) for _ in range(n)]
        sync = net.add_node("sync", [ONE] * n, [a.concl[1] for a in axs], label=t.label)

        def tuple_edge(edges: list[int]) -> int:
            if len(edges) == 1:
                return edges[0]
            rest = tuple_edge(edges[1:])
            typ = tensor(net.edges[edges[0]], net.edges[rest])
            return net.add_node("tensor", [typ], [edges[0], rest]).concl[0]

        def cotuple_edge(edges: list[int]) -> int:
            if len(edges) == 1:
                return edges[0]
            rest = cotuple_edge(edges[1:])
            typ = par(net.edges[edges[0]], net.edges[rest])
            return net.add_node("par", [typ], [edges[0], rest]).concl[0]

        arg = cotuple_edge([a.concl[0] for a in axs])
        out = tuple_edge(list(sync.concl))
        return net.add_node("par", [par(net.edges[arg], net.edges[out])], [arg, out]).concl[0]

    def conditional(self, net: Net, t: If, env: dict[str, Ty]):
        e_g, lin_g, bng_g = self.go(net, t.guard, env)
        parts = []
        for branch in (t.els, t.then):  # left content is the false branch
            c = Net()
            root = c.add_node("bot", [BOT])
            e_b, lin_b, bng_b = self.go(c, branch, env)
            if lin_b:
                raise InvalidNetError(f"linear variables {sorted(lin_b)} inside a conditional branch")
            parts.append((c, [root.concl[0], e_b], bng_b))
        box, bng_out = self.enclose(net, "botbox", parts, [BOT, c.edges[e_b]], env)
        _cut(net, box.concl[0], e_g)
        return box.concl[1], lin_g, _merge_bang(bng_g, bng_out)

    def recursion(self, net: Net, t: LetRec, env: dict[str, Ty]):
        d_f, d_x = self.tp.binders[id(t)]
        c_f = type_formula(d_f.sub[0])  # the unfolded A -o B formula

        content = Net()
        # The argument shadows the function when they share a name.
        e_m, lin_m, bng_m = self.go(content, t.fbody, {**env, t.fun: d_f, t.var: d_x})
        x_edge = self.bind(content, t.var, d_x, lin_m, bng_m)
        lam = content.add_node("par", [par(content.edges[x_edge], content.edges[e_m])],
                               [x_edge, e_m])
        if content.edges[lam.concl[0]] != c_f:
            raise InvalidNetError(f"recursive body of formula {content.edges[lam.concl[0]]}, not {c_f}")
        f_port = self.combine(content, bng_m.pop(t.fun, []), quest(neg(c_f)))
        if lin_m:
            raise InvalidNetError(f"linear variables {sorted(lin_m)} inside a recursive definition")
        box, bng_out = self.enclose(net, "ybox", [(content, [lam.concl[0], f_port], bng_m)],
                                    [bang(c_f)], env)

        e_n, lin, bng = self.go(net, t.body, {**env, t.fun: d_f})
        f_out = self.combine(net, bng.pop(t.fun, []), quest(neg(c_f)))
        _cut(net, box.concl[0], f_out)
        return e_n, lin, _merge_bang(bng, bng_out)


def translate(tp: TypedProgram, backend: Backend) -> ProgramNet:
    """Translate a typed program, which `typecheck` makes sure is closed,
    into an initial program net."""
    net = Net()
    tr = _Translator(tp)
    e, lin, bng = tr.go(net, tp.term, {})
    if lin or bng:
        raise InvalidNetError(f"free variables {sorted({*lin, *bng})} escaped translation")
    net.conclusions = [e]
    validate(net)
    return ProgramNet(net, {}, backend.initial())
