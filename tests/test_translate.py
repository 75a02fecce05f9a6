import pytest

from convergence import converge
from tokennets.memory import int_backend, prob_backend, quantum_backend
from tokennets.nets import check_correct, validate
from tokennets.pars import Distribution, FusedSystem, leftmost_policy, seeded_policy
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.prognets import PnSystem
from tokennets.translate import translate, type_formula
from tokennets.pcfll import Ty
from tokennets import nets
from unfused import Unfused


def make(src, backend):
    term = parse(src, backend.labels)
    tp = typecheck(term)
    return tp, translate(tp, backend)


def pcf_converge(src, backend, horizon=300):
    term = parse(src, backend.labels)
    typecheck(term)
    cl = Closure(term, {}, backend.initial())
    return converge(Distribution.dirac(cl), Unfused(PcfSystem()), leftmost_policy,
                    horizon=horizon)


def net_converge(pn, horizon=400, policy=leftmost_policy):
    return converge(Distribution.dirac(pn), Unfused(PnSystem()), policy, horizon=horizon)


def test_type_formula():
    assert type_formula(Ty("base")) == nets.ONE
    f = type_formula(Ty("lolli", (Ty("base"), Ty("base"))))
    assert f == nets.par(nets.BOT, nets.ONE)
    assert type_formula(Ty("bang", (f,)) if False else Ty("bang", (Ty("lolli", (Ty("base"), Ty("base"))),))) == nets.bang(nets.par(nets.BOT, nets.ONE))


PROGRAMS = [
    ("new", "int"),
    (r"(\x. x) new", "int"),
    ("S (S new)", "int"),
    ("let <a, b> = <S new, new> in <b, a>", "int"),
    (r"(\f. <f new, f new>) (\x. x)", "int"),
    ("letrec f x = if x then new else f new in f (S new)", "int"),
    ("if c new then new else new", "prob"),
    ("if c new then (if c new then new else new) else new", "prob"),
    ("let <p, q> = CNOT <new, H new> in <p, q>", "quantum"),
]

BACKENDS = {
    "int": int_backend,
    "prob": prob_backend,
    "quantum": quantum_backend,
}


@pytest.mark.parametrize("src,bk", PROGRAMS)
def test_translations_are_wellformed(src, bk):
    backend = BACKENDS[bk]()
    _, pn = make(src, backend)
    validate(pn.net)
    assert check_correct(pn.net) is None


@pytest.mark.parametrize("src,bk", PROGRAMS)
def test_net_agrees_with_machine(src, bk):
    backend = BACKENDS[bk]()
    _, pn = make(src, backend)
    p_net, hit_net = net_converge(pn)
    p_pcf, hit_pcf = pcf_converge(src, backend)
    assert not hit_net and not hit_pcf
    assert p_net == pytest.approx(p_pcf, abs=1e-9)
    assert p_net == pytest.approx(1.0, abs=1e-9)


def test_letrec_argument_named_like_the_function_used_twice():
    src = "letrec f f = f in <f new, f new>"
    backend = int_backend()
    _, pn = make(src, backend)
    validate(pn.net)
    assert check_correct(pn.net) is None
    # Fused: each unfolding leaves a ybox cut against a weakening that no
    # conclusion reaches, and the unfused engine would hash that net.
    fused = FusedSystem(PnSystem())
    p_net, hit_net = converge(Distribution.dirac(fused.prepare(pn)), fused, leftmost_policy, 40)
    p_pcf, hit_pcf = pcf_converge(src, backend)
    assert not hit_net and not hit_pcf
    assert p_net == p_pcf == pytest.approx(1.0, abs=1e-9)


def test_policy_independence_of_net_terminals():
    backend = prob_backend()
    _, pn = make("if c new then new else new", backend)
    p1, _ = net_converge(pn, policy=leftmost_policy)
    p2, _ = net_converge(pn, policy=seeded_policy(11))
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_diverging_program_has_zero_convergence():
    backend = int_backend()
    _, pn = make("letrec f x = f x in f new", backend)
    p, hit = net_converge(pn, horizon=60)
    assert p == 0.0
    p2, _ = pcf_converge("letrec f x = f x in f new", backend, horizon=60)
    assert p2 == 0.0
