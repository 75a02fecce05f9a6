import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tokennets.memory import (
    BUILTIN_GATES,
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
from tokennets.pars import PRUNE, Distribution

from commutation import approx_eq, run_suite

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
    assert approx_eq(m.update((0,), Z1).update((0,), Z1), m)


def test_quantum_rename():
    m = QuantumMemory().update((1,), H1).update((0, 1), CN)
    swapped = m.rename({0: 1, 1: 0})
    # The Bell state is symmetric under qubit exchange.
    assert approx_eq(swapped, m)
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
    for line, message in [
        ("B, 1, 1+0i, 1+0i, 0+0i, 1+0i", "gate B is not unitary"),
        ("V, 1, 1, 0, 0, nan", "gate V has an entry that is not finite"),
        ("V, 1, nan, 0, 0, 1", "gate V has an entry that is not finite"),
        # Only a trailing `i` is the imaginary unit: `inf` is not `jnf`.
        ("V, 1, 1, 0, 0, inf", "gate V has an entry that is not finite"),
        ("V, 1, inf, 0, 0, 1 + infi", "gate V has an entry that is not finite"),
        ("V, 1, 1, 0, 0, 1 + 1ii", "gate V has a malformed entry"),
        ("W, 0, 1", "gate W has arity 0, not 1 or more"),
        ("W, -1", "gate W has arity -1, not 1 or more"),
    ]:
        cfg.write_text(line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:1: {message}$"):
            load_gate_config(str(cfg))
    with pytest.raises(ValueError, match="not finite"):
        check_unitary(np.array([[1, 0], [0, np.inf]], dtype=complex))


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
    assert approx_eq(left, right)


def test_quantum_equal_states_hash_alike():
    # Two states 1e-12 apart on either side of a 6-decimal rounding boundary.
    a1, a2 = 0.6000005 - 1e-12, 0.6000005 + 1e-12
    m1 = QuantumMemory((0,), [a1, math.sqrt(1 - a1 * a1)])
    m2 = QuantumMemory((0,), [a2, math.sqrt(1 - a2 * a2)])
    assert approx_eq(m1, m2)
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


# ---------------------------------------------------------------------------
# Quantum kernels against a dense reference


KET = (np.array([[1], [0]], dtype=complex), np.array([[0], [1]], dtype=complex))


def kron(*factors):
    return reduce(np.kron, factors, np.eye(1))


def random_state(rng, n, gates=None, addresses=range(12)):
    bound = sorted(int(a) for a in rng.choice(list(addresses), n, replace=False))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumMemory(bound, amps / np.linalg.norm(amps), gates)


def dense_gate(mat, slots, n):
    """The gate on `slots` of n qubits as one 2^n x 2^n matrix: the sum over
    its entries (r, c) of |r><c| on the addressed qubits, most significant
    first, tensored with the identity on the others."""
    k = len(slots)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for r in range(2**k):
        for c in range(2**k):
            factors = [np.eye(2)] * n
            for t, s in enumerate(slots):
                shift = k - 1 - t
                factors[s] = KET[r >> shift & 1] @ KET[c >> shift & 1].T
            full += mat[r, c] * kron(*factors)
    return full


def assert_close(got, want):
    assert np.abs(np.asarray(got) - np.asarray(want)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_one_qubit_gates_match_the_dense_reference(n):
    rng = np.random.default_rng(100 + n)
    m = random_state(rng, n)
    for label in (H1, X1, Z1):
        for s in range(n):
            out = m.update((m.bound[s],), label)
            assert out.bound == m.bound
            assert_close(out.amps, dense_gate(m.gates[label.name][1], [s], n) @ m.amps)


def random_two_qubit_gates(rng, tmp_path):
    """The builtin gates and a random 2-qubit unitary `U` (the Q of a QR
    decomposition), loaded from a gate configuration file."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    entries = ", ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in q.reshape(-1))
    cfg = tmp_path / "u.cfg"
    cfg.write_text(f"U, 2, {entries}\n")
    gates = dict(BUILTIN_GATES)
    gates.update(load_gate_config(str(cfg)))
    assert_close(gates["U"][1], q)
    return gates


@pytest.mark.parametrize("n", range(2, 7))
def test_two_qubit_gates_match_the_dense_reference_on_every_ordered_pair(n, tmp_path):
    # Adjacent, non-adjacent and reversed pairs of slots alike.
    rng = np.random.default_rng(200 + n)
    gates = random_two_qubit_gates(rng, tmp_path)
    m = random_state(rng, n, gates)
    for name in ("CNOT", "U"):
        for a in range(n):
            for b in range(n):
                if a != b:
                    out = m.update((m.bound[a], m.bound[b]), OperationLabel(name, 2))
                    assert out.bound == m.bound
                    assert_close(out.amps, dense_gate(gates[name][1], [a, b], n) @ m.amps)


@pytest.mark.parametrize("n", range(1, 6))
def test_fresh_addresses_bind_below_between_and_above(n, tmp_path):
    rng = np.random.default_rng(300 + n)
    gates = random_two_qubit_gates(rng, tmp_path)
    m = random_state(rng, n, gates, addresses=range(1, 40, 3))
    # Bound addresses are 1 mod 3, so each of these is fresh.
    fresh_addrs = [m.bound[0] - 1, m.bound[-1] + 1] + [b + 1 for b in m.bound[:-1]]
    for f in fresh_addrs:
        pos = sum(1 for b in m.bound if b < f)
        bound = m.bound[:pos] + (f,) + m.bound[pos:]
        bound_amps = kron(np.eye(2**pos), KET[0], np.eye(2 ** (n - pos))) @ m.amps
        out = m.update((f,), H1)
        assert out.bound == bound
        assert_close(out.amps, dense_gate(m.gates["H"][1], [pos], n + 1) @ bound_amps)
        for other in range(n + 1):
            if other != pos:
                out = m.update((f, bound[other]), OperationLabel("U", 2))
                assert out.bound == bound
                want = dense_gate(gates["U"][1], [pos, other], n + 1) @ bound_amps
                assert_close(out.amps, want)
                out = m.update((bound[other], f), CN)
                want = dense_gate(gates["CNOT"][1], [other, pos], n + 1) @ bound_amps
                assert_close(out.amps, want)
    # Two fresh addresses at once, one on either side of the bound ones.
    lo, hi = m.bound[0] - 1, m.bound[-1] + 1
    out = m.update((hi, lo), CN)
    assert out.bound == (lo,) + m.bound + (hi,)
    bound_amps = kron(KET[0], np.eye(2**n), KET[0]) @ m.amps
    assert_close(out.amps, dense_gate(gates["CNOT"][1], [n + 1, 0], n + 2) @ bound_amps)


@pytest.mark.parametrize("n", range(1, 7))
def test_test_matches_the_dense_projection_at_every_slot(n):
    rng = np.random.default_rng(400 + n)
    m = random_state(rng, n)
    for s in range(n):
        branches = {b: (p, mm) for (b, mm), p in m.test(m.bound[s])}
        assert set(branches) == {False, True}
        for k in (0, 1):
            sub = kron(np.eye(2**s), KET[k].T, np.eye(2 ** (n - s - 1))) @ m.amps
            p = float(np.vdot(sub, sub).real)
            got_p, got = branches[bool(k)]
            assert abs(got_p - p) <= 1e-12
            assert got.bound == m.bound[:s] + m.bound[s + 1:]
            assert_close(got.amps, sub / math.sqrt(p))


@pytest.mark.parametrize("n", range(1, 7))
def test_rename_matches_the_index_permutation(n):
    rng = np.random.default_rng(500 + n)
    m = random_state(rng, n)
    targets = [rng.permutation(12)[:n] for _ in range(8)] + [sorted(rng.permutation(12)[:n])]
    for target in targets:
        sigma = {b: int(t) for b, t in zip(m.bound, target)}
        new_bound = tuple(sorted(sigma.values()))
        want = np.zeros_like(m.amps)
        for x in range(2**n):
            y = 0
            for j, b in enumerate(m.bound):
                if x >> (n - 1 - j) & 1:
                    y |= 1 << (n - 1 - new_bound.index(sigma[b]))
            want[y] = m.amps[x]
        out = m.rename(sigma)
        assert out.bound == new_bound and np.array_equal(out.amps, want)
    # An order-keeping renaming shares the amplitude vector.
    assert m.rename({b: b + 20 for b in m.bound}).amps is m.amps
    assert m.rename({}).amps is m.amps


def test_rounded_classes_match_numpy_round():
    # Values on and either side of the 0.5e-6 rounding boundaries, and both
    # zeros; each state pads its first qubit to unit norm.
    edges = [0.0, -0.0, 0.5e-6, -0.5e-6, 1.5e-6, 2.5e-6, 1e-7, -1e-7, 0.3, 0.6000005]
    values = sorted({v + d for v in edges for d in (0.0, 1e-13, -1e-13)})
    values += [np.nextafter(0.5e-6, 1.0), np.nextafter(0.5e-6, 0.0), -0.0]
    states = [QuantumMemory((0, 1), [complex(a, b), 0.0, math.sqrt(1 - a * a - b * b), 0.0])
              for a in values for b in values[::5]]
    for m1 in states:
        for m2 in states[::3]:
            same = np.array_equal(np.round(m1.amps, 6), np.round(m2.amps, 6))
            assert (m1._rounded() == m2._rounded()) == same
            assert (m1 == m2) == (same or np.array_equal(m1.amps, m2.amps))
            assert not same or hash(m1) == hash(m2)


def test_a_strided_amplitude_vector_is_stored_contiguous():
    spread = np.zeros(8, dtype=complex)
    spread[::2] = [S2, 0, 0, S2]
    m = QuantumMemory((0, 1), spread[::2])
    assert m.amps.flags.c_contiguous
    bell = QuantumMemory((0, 1), [S2, 0, 0, S2])
    assert m == bell and hash(m) == hash(bell)


def reference_repr(m):
    """`QuantumMemory.__repr__` as a loop over every amplitude."""
    terms = []
    for idx, a in enumerate(m.amps):
        if abs(a) > PRUNE:
            ket = format(idx, f"0{len(m.bound)}b") if m.bound else ""
            terms.append(f"{a:.4g}|{ket}>")
    return f"QuantumMemory(bound={m.bound}, {' + '.join(terms) or '1|>'})"


@pytest.mark.parametrize("n", range(7))
def test_repr_prints_the_kept_amplitudes_in_index_order(n):
    # Amplitudes on and either side of PRUNE, zeros of both signs, and
    # ordinary ones, each in a real or an imaginary part.
    rng = np.random.default_rng(300 + n)
    small = [PRUNE, np.nextafter(PRUNE, 1.0), np.nextafter(PRUNE, 0.0), -PRUNE, 0.0, -0.0, 1e-16]
    for _ in range(20):
        m = random_state(rng, n)
        amps = m.amps.copy()
        for idx in rng.choice(2**n, rng.integers(0, 2**n + 1), replace=True):
            v = small[rng.integers(len(small))]
            amps[idx] = complex(v, 0.0) if rng.random() < 0.5 else complex(0.0, v)
        m = QuantumMemory.__new__(QuantumMemory)
        m.bound, m.amps = random_state(rng, n).bound, amps
        assert repr(m) == reference_repr(m)
    assert repr(QuantumMemory()) == "QuantumMemory(bound=(), 1+0j|>)"
    empty = QuantumMemory.__new__(QuantumMemory)
    empty.bound, empty.amps = (), np.zeros(1, dtype=complex)
    assert repr(empty) == reference_repr(empty) == "QuantumMemory(bound=(), 1|>)"
