"""End-to-end acceptance checks across all engines and backends.

Runs the shipped program corpus through term reduction, net rewriting, and
the multi-token machine, checking the numeric results they must agree on,
plus the memory-model commutation laws and the worked register examples.
"""

import math
import os
import time

import numpy as np
import pytest

from commutation import run_suite
from convergence import converge
from tokennets.memory import (
    IntRegisterMemory,
    OperationLabel,
    QuantumMemory,
    int_backend,
    prob_backend,
    quantum_backend,
)
from tokennets.msiam import MsSystem
from tokennets.pars import (
    Distribution,
    FusedSystem,
    PRUNE,
    leftmost_policy,
    lift_step,
    lifted_steps,
    seeded_policy,
    terminal_split,
)
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.prognets import PnSystem
from tokennets.translate import translate
from unfused import Unfused

TOL = 1e-9
CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

BACKENDS = {
    "int": int_backend,
    "prob": prob_backend,
    "quantum": quantum_backend,
}


def load_corpus():
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".pcf"):
            continue
        with open(os.path.join(CORPUS_DIR, name)) as fh:
            src = fh.read()
        first = src.splitlines()[0]
        assert first.startswith("-- backend:"), name
        out.append((name, first.split(":")[1].strip(), src))
    return out


CORPUS = load_corpus()


def engine_system(engine, src, backend):
    term = parse(src, backend.labels)
    tp = typecheck(term)
    if engine == "pcf":
        return FusedSystem(PcfSystem()), Closure(term, {}, backend.initial())
    pn = translate(tp, backend)
    if engine == "net":
        return FusedSystem(PnSystem()), pn
    sys_ = MsSystem(pn)
    return FusedSystem(sys_), sys_.initial_state()


def read_program(name):
    for n, bk, src in CORPUS:
        if n == name:
            return bk, src
    raise KeyError(name)


# -- 1. quantum coin-toss recursion ----------------------------------------


@pytest.mark.parametrize("engine", ["pcf", "net", "msiam"])
def test_quantum_coin_toss_geometric_convergence(engine):
    _, src = read_program("coin.pcf")
    backend = quantum_backend()
    t0 = time.monotonic()
    fused, start = engine_system(engine, src, backend)
    start = fused.prepare(start)
    trace = [t.mass() for _, t, _ in lifted_steps(Distribution.dirac(start), fused,
                                                   leftmost_policy, 40, PRUNE)]
    # probability after k recursive rounds is 1 - 2^-k; check k = 10
    assert any(abs(v - 0.9990234375) <= TOL for v in trace), trace
    for k in range(1, 13):
        assert any(abs(v - (1 - 0.5**k)) <= TOL for v in trace), (k, trace)
    p, truncated = converge(
        Distribution.dirac(start), fused, leftmost_policy, horizon=200, tol=TOL
    )
    assert p >= 1 - 1e-9
    assert not truncated
    assert time.monotonic() - t0 < 10.0


# -- 2. Bell experiment ----------------------------------------------------


def test_bell_intermediate_state_and_outcome_distribution():
    H = OperationLabel("H", 1)
    CNOT = OperationLabel("CNOT", 2)
    m = QuantumMemory()
    m = m.update((1,), H)
    m = m.update((0, 1), CNOT)  # first address is the target
    s = math.sqrt(2) / 2
    assert m.bound == (0, 1)
    assert np.allclose(m.amps, [s, 0, 0, s], atol=TOL)
    outcomes = {}
    for (b0, m1), p0 in m.test(0):
        for (b1, m2), p1 in m1.test(1):
            key = (b0, b1)
            outcomes[key] = outcomes.get(key, 0.0) + p0 * p1
    assert abs(outcomes.get((False, False), 0.0) - 0.5) <= TOL
    assert abs(outcomes.get((True, True), 0.0) - 0.5) <= TOL
    assert abs(sum(outcomes.values()) - 1.0) <= TOL


def test_bell_program_terminal_distribution():
    _, src = read_program("bell.pcf")
    backend = quantum_backend()
    fused, start = engine_system("pcf", src, backend)
    mu = Distribution.dirac(fused.prepare(start))
    for _ in range(10):
        if not any(fused.enumerate_redexes(a) for a in mu.support()):
            break
        mu = lift_step(mu, fused, leftmost_policy)
    terms = sorted(mu, key=lambda ap: -ap[1])
    assert len(terms) == 2
    for _, p in terms:
        assert abs(p - 0.5) <= TOL


# -- 3. memory commutation suite -------------------------------------------


def test_memory_commutation_randomized():
    t0 = time.monotonic()
    for backend in ("int", "prob", "quantum"):
        run_suite(backend, 1000, seed=2024)
    assert time.monotonic() - t0 < 30.0


# -- 4. diamond / uniqueness of normal forms --------------------------------


@pytest.mark.parametrize("engine", ["net", "msiam"])
@pytest.mark.parametrize("name,bk,src", CORPUS, ids=[c[0] for c in CORPUS])
def test_policy_independent_terminal_parts(engine, name, bk, src):
    backend = BACKENDS[bk]()
    fused, start = engine_system(engine, src, backend)
    fused.budget = 200
    start = fused.prepare(start)
    mu1 = mu2 = Distribution.dirac(start)
    rnd = seeded_policy(int(os.environ.get("MSIAM_SEED", "13")))
    for k in range(1, 26):
        mu1 = lift_step(mu1, fused, leftmost_policy)
        mu2 = lift_step(mu2, fused, rnd)
        t1, _ = terminal_split(mu1, fused)
        t2, _ = terminal_split(mu2, fused)
        assert t1.close_to(t2, TOL), f"{name}/{engine}: terminal parts differ at k={k}"


# -- 5. three-way adequacy ---------------------------------------------------

_ADEQUACY_T0 = time.monotonic()


@pytest.mark.parametrize("name,bk,src", CORPUS, ids=[c[0] for c in CORPUS])
def test_three_way_adequacy(name, bk, src):
    backend_f = BACKENDS[bk]
    horizon = 20 if name == "omega.pcf" else 60
    probs = {}
    for engine in ("pcf", "net", "msiam"):
        fused, start = engine_system(engine, src, backend_f())
        if name == "omega.pcf":
            fused.budget = 100
        start = fused.prepare(start)
        probs[engine], _ = converge(
            Distribution.dirac(start), fused, leftmost_policy, horizon=horizon, tol=TOL
        )
    assert abs(probs["pcf"] - probs["net"]) <= TOL, probs
    assert abs(probs["net"] - probs["msiam"]) <= TOL, probs


def test_adequacy_suite_runtime():
    # placed after the parametrized runs in file order; the whole family
    # must finish within the 2-minute budget
    assert time.monotonic() - _ADEQUACY_T0 < 120.0


# -- 6. deadlock-freeness ----------------------------------------------------


@pytest.mark.parametrize("name,bk,src", CORPUS, ids=[c[0] for c in CORPUS])
def test_terminal_machine_states_are_final(name, bk, src):
    backend = BACKENDS[bk]()
    term = parse(src, backend.labels)
    pn = translate(typecheck(term), backend)
    sys_ = MsSystem(pn)
    fused = FusedSystem(sys_, budget=200)
    mu = Distribution.dirac(fused.prepare(sys_.initial_state()))
    depth = 12 if name == "omega.pcf" else 20
    seen = set()
    for _ in range(depth):
        for a in mu.support():
            if a not in seen and not fused.enumerate_redexes(a):
                seen.add(a)
                assert not a.acts, name
        mu = lift_step(mu, fused, leftmost_policy)
    for a in mu.support():
        if not fused.enumerate_redexes(a):
            assert not a.acts, name


@pytest.mark.parametrize("name,bk,src", CORPUS, ids=[c[0] for c in CORPUS])
def test_reachable_nets_with_cuts_have_redexes(name, bk, src):
    from tokennets.nets import ONE

    backend = BACKENDS[bk]()
    term = parse(src, backend.labels)
    pn = translate(typecheck(term), backend)
    sys_ = Unfused(PnSystem())
    mu = Distribution.dirac(pn)
    depth = 30 if name == "omega.pcf" else 120
    for _ in range(depth):
        for a in mu.support():
            has_cut = any(n.kind == "cut" for n in a.net.nodes.values())
            concl_one = [a.net.edges[e] for e in a.net.conclusions] == [ONE]
            if has_cut and concl_one:
                assert sys_.enumerate_redexes(a), f"{name}: stuck net with cuts"
        if not any(sys_.enumerate_redexes(a) for a in mu.support()):
            break
        mu = lift_step(mu, sys_, leftmost_policy)


# -- 7. deterministic-register trace ----------------------------------------


def test_integer_register_example_trace():
    S = OperationLabel("S", 1)
    P = OperationLabel("P", 1)
    m0 = IntRegisterMemory({})
    m1 = m0.update((0,), S)
    assert m1.values == {0: 1}  # (1,0,0,...)
    m2 = m1.update((1,), S)
    assert m2.values == {0: 1, 1: 1}  # (1,1,0,...)
    m3 = m2.update((0,), P)
    assert m3.values == {1: 1}  # (0,1,0,...)
    ((outcome, m4), p) = list(m3.test(1))[0]
    assert p == 1.0 and outcome is False
    assert m4.values == m3.values
