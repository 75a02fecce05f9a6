import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokennets.memory import (
    COIN,
    MAX,
    OperationLabel,
    P,
    S,
    IntRegisterMemory,
    ProbRegisterMemory,
    QuantumMemory,
    check_unitary,
    fresh,
    int_backend,
    load_gate_config,
    prob_backend,
    quantum_backend,
)
from tokennets.pars import Distribution

from commutation import run_suite

S2 = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# Integer registers


def test_int_register_trace():
    # Successor twice, predecessor once, then a zero-test on address 1.
    m0 = IntRegisterMemory()
    m1 = m0.update((0,), S)
    assert m1 == IntRegisterMemory({0: 1})
    m2 = m1.update((1,), S)
    assert m2 == IntRegisterMemory({0: 1, 1: 1})
    m3 = m2.update((0,), P)
    assert m3 == IntRegisterMemory({1: 1})
    assert m3.test(1) == Distribution.dirac((False, m3))


def test_int_test_polarity():
    m = IntRegisterMemory({0: 1})
    assert m.test(5) == Distribution.dirac((True, m))
    assert m.test(0) == Distribution.dirac((False, m))


def test_int_updates():
    m = IntRegisterMemory({0: 2, 1: 5})
    assert m.update((0, 1), MAX) == IntRegisterMemory({0: 5, 1: 5})
    assert m.update((0,), P).update((0,), P).update((0,), P) == IntRegisterMemory({1: 5})


def test_update_partiality():
    m = IntRegisterMemory()
    with pytest.raises(ValueError):
        m.update((0, 0), MAX)
    with pytest.raises(ValueError):
        m.update((0, 1), S)


def test_rename_int():
    m = IntRegisterMemory({0: 1})
    assert m.rename({}) == m
    assert m.rename({0: 1, 1: 0}) == IntRegisterMemory({1: 1})
    # Transposing two fresh addresses leaves the memory unchanged.
    assert m.rename({5: 6, 6: 5}) == m


def test_fresh():
    assert fresh(IntRegisterMemory()) == 0
    assert fresh(IntRegisterMemory({0: 1, 2: 1}), {1}) == 3
    assert fresh(ProbRegisterMemory({0: 0.5})) == 1


# ---------------------------------------------------------------------------
# Probabilistic registers


def test_prob_test():
    m1 = ProbRegisterMemory({0: 0.5})
    out = m1.test(0)
    assert out[(False, ProbRegisterMemory())] == pytest.approx(0.5)
    assert out[(True, ProbRegisterMemory({0: 1.0}))] == pytest.approx(0.5)
    assert out.mass() == pytest.approx(1.0)


def test_prob_test_degenerate():
    m = ProbRegisterMemory({0: 1.0})
    assert m.test(0) == Distribution.dirac((True, m))
    m = ProbRegisterMemory()
    assert m.test(3) == Distribution.dirac((False, m))


def test_prob_update():
    m = ProbRegisterMemory()
    m1 = m.update((0,), COIN)
    assert m1 == ProbRegisterMemory({0: 0.5})
    assert m1.update((0,), COIN) == m1


# ---------------------------------------------------------------------------
# Quantum memory


H1 = OperationLabel("H", 1)
X1 = OperationLabel("X", 1)
Z1 = OperationLabel("Z", 1)
CN = OperationLabel("CNOT", 2)


def test_h_on_fresh():
    m = QuantumMemory().update((0,), H1)
    assert m.bound == (0,)
    assert np.allclose(m.amps, [S2, S2])


def test_bell_state():
    # H on the control (address 1), then CNOT with target first: the
    # resulting state is (sqrt2/2)(|00> + |11>).
    m = QuantumMemory().update((1,), H1).update((0, 1), CN)
    assert m.bound == (0, 1)
    assert np.allclose(m.amps, [S2, 0, 0, S2])


def test_cnot_convention():
    # |x y> -> |x xor y>|y>: flipping only happens when the control (second
    # address) is 1.
    m = QuantumMemory().update((1,), X1).update((0, 1), CN)
    # control=1, target flips: |11>
    assert np.allclose(m.amps, [0, 0, 0, 1])
    m = QuantumMemory().update((0,), X1).update((0, 1), CN)
    # control=0: |10> unchanged
    assert np.allclose(m.amps, [0, 0, 1, 0])


def test_measure_bell():
    m = QuantumMemory().update((1,), H1).update((0, 1), CN)
    out = m.test(0)
    branches = {b: (p, mm) for (b, mm), p in out}
    p0, m0 = branches[False]
    p1, m1 = branches[True]
    assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)
    assert m0.bound == (1,) and np.allclose(m0.amps, [1, 0])
    assert m1.bound == (1,) and np.allclose(m1.amps, [0, 1])
    # Measure the remaining qubit: perfectly correlated outcomes.
    assert m0.test(1)[(False, QuantumMemory(gates=m0.gates))] == pytest.approx(1.0)
    assert m1.test(1)[(True, QuantumMemory(gates=m1.gates))] == pytest.approx(1.0)


def test_measure_h():
    m = QuantumMemory().update((0,), H1)
    out = m.test(0)
    empty = QuantumMemory(gates=m.gates)
    assert out[(False, empty)] == pytest.approx(0.5)
    assert out[(True, empty)] == pytest.approx(0.5)


def test_measure_fresh():
    m = QuantumMemory().update((0,), H1)
    assert m.test(7) == Distribution.dirac((False, m))


def test_identity_gate_from_z_twice():
    m = QuantumMemory().update((0,), H1)
    assert m.update((0,), Z1).update((0,), Z1).approx_eq(m)


def test_quantum_rename():
    m = QuantumMemory().update((1,), H1).update((0, 1), CN)
    swapped = m.rename({0: 1, 1: 0})
    # The Bell state is symmetric under qubit exchange.
    assert swapped.approx_eq(m)
    m2 = QuantumMemory().update((0,), X1)  # |1> at address 0
    r = m2.rename({0: 3})
    assert r.bound == (3,) and np.allclose(r.amps, [0, 1])


def test_quantum_norm_invariant():
    m = QuantumMemory()
    for ops in [((0,), H1), ((1,), X1), ((2, 0), CN), ((1,), Z1), ((2,), H1)]:
        m = m.update(*ops)
        assert np.sum(np.abs(m.amps) ** 2) == pytest.approx(1.0)


def test_gate_config(tmp_path):
    cfg = tmp_path / "gates.cfg"
    cfg.write_text(
        "# a phase gate and a custom root-of-X\n"
        "T, 1, 1+0i, 0+0i, 0+0i, 0.7071067811865476+0.7071067811865476i\n"
    )
    gates = load_gate_config(str(cfg))
    assert "T" in gates and gates["T"][0] == 1
    backend = quantum_backend(str(cfg))
    assert "T" in backend.labels and "H" in backend.labels
    m = backend.initial().update((0,), H1).update((0,), OperationLabel("T", 1))
    assert np.allclose(m.amps, [S2, S2 * complex(S2, S2)])


def test_gate_config_rejects_non_unitary(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("B, 1, 1+0i, 1+0i, 0+0i, 1+0i\n")
    with pytest.raises(ValueError):
        load_gate_config(str(cfg))


def test_check_unitary():
    check_unitary(np.eye(2))
    with pytest.raises(ValueError):
        check_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


# ---------------------------------------------------------------------------
# Interface properties


@pytest.mark.parametrize("backend", ["int", "prob", "quantum"])
def test_commutation_smoke(backend):
    run_suite(backend, 25, seed=42)


@pytest.mark.parametrize(
    "make",
    [int_backend, prob_backend, quantum_backend],
    ids=["int", "prob", "quantum"],
)
def test_properness(make):
    backend = make() if make is not quantum_backend else make(None)
    m = backend.initial()
    for name, label in backend.labels.items():
        addrs = tuple(range(label.arity))
        m = m.update(addrs, label)
    for i in range(4):
        assert m.test(i).mass() == pytest.approx(1.0)


@given(st.integers(0, 5), st.integers(0, 5))
def test_equivariance_int(a, b):
    m = IntRegisterMemory({0: 2, 1: 1, 3: 4})
    sigma = {a: b, b: a}
    left = m.update((2,), S).rename(sigma)
    right = m.rename(sigma).update((sigma.get(2, 2),), S)
    assert left == right
    (ok, mm), = (pair for pair, _ in m.test(a))
    (ok2, mm2), = (pair for pair, _ in m.rename(sigma).test(b))
    assert ok == ok2 and mm.rename(sigma) == mm2


@given(st.sampled_from([(0, 1), (0, 2), (1, 3), (2, 3)]))
def test_equivariance_quantum(pair):
    a, b = pair
    sigma = {a: b, b: a}
    m = QuantumMemory().update((1,), H1).update((0, 1), CN).update((2,), H1)
    left = m.update((3,), X1).rename(sigma)
    right = m.rename(sigma).update((sigma.get(3, 3),), X1)
    assert left.approx_eq(right)


def test_quantum_equal_states_hash_alike():
    # Two states 1e-12 apart on either side of a 6-decimal rounding boundary.
    a1, a2 = 0.6000005 - 1e-12, 0.6000005 + 1e-12
    m1 = QuantumMemory((0,), [a1, math.sqrt(1 - a1 * a1)])
    m2 = QuantumMemory((0,), [a2, math.sqrt(1 - a2 * a2)])
    assert m1.approx_eq(m2)
    assert m1 != m2 or hash(m1) == hash(m2)


def test_quantum_states_equal_when_rounded_hash_alike():
    # Raw amplitudes 1e-9 apart, equal once rounded to 6 decimals; each
    # comparison and hash is asked twice, so a kept rounding is read too.
    a1, a2 = 0.6, 0.6 + 1e-9
    m1 = QuantumMemory((0,), [a1, math.sqrt(1 - a1 * a1)])
    m2 = QuantumMemory((0,), [a2, math.sqrt(1 - a2 * a2)])
    assert not np.array_equal(m1.amps, m2.amps)
    for _ in range(2):
        assert m1 == m2 and hash(m1) == hash(m2)
    # The same holds for states the backend builds itself.
    n1, n2 = m1.update((1,), H1).rename({0: 2}), m2.update((1,), H1).rename({0: 2})
    assert not np.array_equal(n1.amps, n2.amps)
    for _ in range(2):
        assert n1 == n2 and hash(n1) == hash(n2)
    assert n1 != m1


def test_quantum_constructor_still_checks_its_arguments():
    with pytest.raises(ValueError):
        QuantumMemory((1, 0), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        QuantumMemory((0,), [1, 1])
    with pytest.raises(ValueError):
        QuantumMemory((0,), [1, 0, 0, 0])
