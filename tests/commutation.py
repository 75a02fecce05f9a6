"""Commutation-equation checkers shared by the memory tests and acceptance.

The three equation families, for i != j, j not in kbar, and kbar disjoint
from kbar':

  * tests on i commute with tests on j (branch memories transpose, branch
    mass products agree);
  * tests on j commute with updates on kbar;
  * updates on disjoint tuples commute.
"""

import random

import numpy as np

from tokennets.memory import (
    BUILTIN_GATES,
    IntRegisterMemory,
    OperationLabel,
    ProbRegisterMemory,
    QuantumMemory,
)

TOL = 1e-9


def approx_eq(m1, m2, tol=TOL) -> bool:
    """Memories of one type within `tol`: quantum states on the same bound,
    amplitude by amplitude; registers value by value, a missing register
    reading as the backend's zero."""
    if type(m1) is not type(m2):
        return False
    if isinstance(m1, QuantumMemory):
        return (m1.bound == m2.bound and m1.amps.shape == m2.amps.shape
                and bool(np.all(np.abs(m1.amps - m2.amps) <= tol)))
    keys = set(m1.values) | set(m2.values)
    return all(abs(m1.get(i) - m2.get(i)) <= tol for i in keys)


def _branches(dist):
    """Map outcome -> (prob, memory) with missing outcomes at probability 0."""
    out = {}
    for (b, m), p in dist:
        out[b] = (p, m)
    return out


def check_test_test(m, i, j, tol=TOL):
    assert i != j
    first = _branches(m.test(i))
    second = _branches(m.test(j))
    for x in (False, True):
        for y in (False, True):
            px, mx = first.get(x, (0.0, None))
            pxy, mxy = (_branches(mx.test(j)).get(y, (0.0, None)) if mx else (0.0, None))
            qy, my = second.get(y, (0.0, None))
            qyx, myx = (_branches(my.test(i)).get(x, (0.0, None)) if my else (0.0, None))
            assert abs(px * pxy - qy * qyx) <= tol, (
                f"mass mismatch at ({x},{y}): {px * pxy} vs {qy * qyx}"
            )
            if px * pxy > tol:
                assert approx_eq(mxy, myx, tol), f"memory mismatch at ({x},{y})"


def check_test_update(m, i, kbar, label, tol=TOL):
    assert i not in kbar
    direct = _branches(m.update(kbar, label).test(i))
    routed = {
        b: (p, mb.update(kbar, label)) for b, (p, mb) in _branches(m.test(i)).items()
    }
    for b in (False, True):
        p1, m1 = direct.get(b, (0.0, None))
        p2, m2 = routed.get(b, (0.0, None))
        assert abs(p1 - p2) <= tol, f"mass mismatch on outcome {b}: {p1} vs {p2}"
        if p1 > tol:
            assert approx_eq(m1, m2, tol), f"memory mismatch on outcome {b}"


def check_update_update(m, kbar, label, kbar2, label2, tol=TOL):
    assert not set(kbar) & set(kbar2)
    m1 = m.update(kbar2, label2).update(kbar, label)
    m2 = m.update(kbar, label).update(kbar2, label2)
    assert approx_eq(m1, m2, tol), "updates on disjoint addresses do not commute"


# ---------------------------------------------------------------------------
# Randomized instances


def random_int_case(rng: random.Random):
    m = IntRegisterMemory({i: rng.randrange(4) for i in range(6) if rng.random() < 0.7})
    ops = [OperationLabel("S", 1), OperationLabel("P", 1), OperationLabel("max", 2)]
    label = rng.choice(ops)
    label2 = rng.choice(ops)
    addrs = rng.sample(range(6), 4)
    kbar = tuple(addrs[: label.arity])
    kbar2 = tuple(addrs[label.arity : label.arity + label2.arity])
    i, j = rng.sample([a for a in range(9) if a not in kbar], 2)
    return m, i, j, kbar, label, kbar2, label2


def random_prob_case(rng: random.Random):
    m = ProbRegisterMemory({i: rng.random() for i in range(6) if rng.random() < 0.7})
    label = label2 = OperationLabel("c", 1)
    addrs = rng.sample(range(6), 2)
    kbar, kbar2 = (addrs[0],), (addrs[1],)
    i, j = rng.sample([a for a in range(9) if a not in kbar], 2)
    return m, i, j, kbar, label, kbar2, label2


def random_quantum_case(rng: random.Random):
    m = QuantumMemory()
    names = list(BUILTIN_GATES)
    for _ in range(rng.randrange(2, 7)):
        name = rng.choice(names)
        arity, _ = BUILTIN_GATES[name]
        addrs = tuple(rng.sample(range(4), arity))
        m = m.update(addrs, OperationLabel(name, arity))
    name = rng.choice(names)
    arity, _ = BUILTIN_GATES[name]
    kbar = tuple(rng.sample(range(4), arity))
    name2 = rng.choice(names)
    arity2, _ = BUILTIN_GATES[name2]
    kbar2 = tuple(rng.sample(sorted(set(range(7)) - set(kbar)), arity2))
    label = OperationLabel(name, arity)
    label2 = OperationLabel(name2, arity2)
    i, j = rng.sample(sorted(set(range(7)) - set(kbar)), 2)
    return m, i, j, kbar, label, kbar2, label2


RANDOM_CASES = {
    "int": random_int_case,
    "prob": random_prob_case,
    "quantum": random_quantum_case,
}


def run_suite(backend: str, count: int, seed: int = 0):
    rng = random.Random(seed)
    make = RANDOM_CASES[backend]
    for _ in range(count):
        m, i, j, kbar, label, kbar2, label2 = make(rng)
        check_test_test(m, i, j)
        check_test_update(m, i, kbar, label)
        check_update_update(m, kbar, label, kbar2, label2)
