"""Parametric memory structures: addresses, labeled updates, boolean tests.

A memory structure provides `test(i)` returning a proper distribution over
(outcome, next-memory) pairs, a partial `update(addrs, label)` defined on
pairwise-distinct address tuples of the label's arity, a finite `support`,
renaming along address permutations, and fresh-address allocation.  Three
instances are provided: natural-number registers (deterministic test for
zero), probabilistic boolean registers (biased-coin test), and a quantum
state vector with dynamically bound qubit addresses (destructive
measurement).  Tests and updates on disjoint addresses commute; the test
suite checks those equations on randomized instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .pars import Distribution, PRUNE, TOL

Address = int


@dataclass(frozen=True)
class OperationLabel:
    name: str
    arity: int


def fresh(m, used: set[Address] = frozenset()) -> Address:
    """Smallest natural number outside support(m) and `used`."""
    taken = set(m.support()) | set(used)
    i = 0
    while i in taken:
        i += 1
    return i


def canonical_addresses(order: list[Address], m) -> dict[Address, Address]:
    """Canonical address permutation for an element with memory `m`: the
    addresses of `order` numbered from 0 in order of first appearance, then
    any addresses live only in the memory, ordered by their stored value
    (equal-valued registers are interchangeable)."""
    sigma: dict[Address, Address] = {}
    for a in order:
        sigma.setdefault(a, len(sigma))
    get = getattr(m, "get", None)
    orphans = set(m.support()) - set(sigma)
    for a in sorted(orphans, key=lambda a: (repr(get(a)) if get else "", a)):
        sigma[a] = len(sigma)
    return sigma


def _check_update_args(addrs: tuple[Address, ...], label: OperationLabel) -> None:
    if len(addrs) != label.arity:
        raise ValueError(f"{label.name} expects {label.arity} addresses, got {len(addrs)}")
    if len(set(addrs)) != len(addrs):
        raise ValueError(f"duplicate addresses in update {label.name}{addrs}")


# ---------------------------------------------------------------------------
# Registers


class _Registers:
    """Persistent map from addresses to register values; absent entries,
    and only they, read as zero.

    The constructor checks and filters what a caller passes in; a map the
    backend builds from a valid one (`_with`) skips both, so `test`,
    `update` and `rename` copy the map once.  `update`, `test`, `rename`
    and `__hash__` are bound in each subclass body, where per-class
    wrappers (`perfbench/layers.py`) find them."""

    __slots__ = ("values",)
    ZERO = 0

    def __init__(self, values: dict[Address, float] = ()):  # type: ignore[assignment]
        self.values = {i: v for i, v in dict(values).items() if v != 0}

    def _with(self, values: dict[Address, float]):
        m = type(self).__new__(type(self))
        m.values = values
        return m

    def _set(self, i: Address, v):
        vals = dict(self.values)
        if v:
            vals[i] = v
        else:
            vals.pop(i, None)
        return self._with(vals)

    def get(self, i: Address):
        return self.values.get(i, self.ZERO)

    def support(self) -> set[Address]:
        return set(self.values)

    def rename(self, sigma: dict[Address, Address]):
        return self._with({sigma.get(i, i): v for i, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.values == other.values

    def __hash__(self) -> int:
        return hash(frozenset(self.values.items()))

    def approx_eq(self, other, tol: float = TOL) -> bool:
        if type(other) is not type(self):
            return False
        keys = set(self.values) | set(other.values)
        return all(abs(self.get(i) - other.get(i)) <= tol for i in keys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.values})"


S = OperationLabel("S", 1)
P = OperationLabel("P", 1)
MAX = OperationLabel("max", 2)


class IntRegisterMemory(_Registers):
    """Registers holding naturals.

    The test is deterministic: true iff the value at the address is zero, and
    the memory is left unchanged.
    """

    __slots__ = ()
    labels = {l.name: l for l in (S, P, MAX)}
    rename, __hash__ = _Registers.rename, _Registers.__hash__

    def test(self, i: Address) -> Distribution:
        return Distribution.dirac((self.get(i) == 0, self))

    def update(self, addrs: tuple[Address, ...], label: OperationLabel) -> "IntRegisterMemory":
        _check_update_args(addrs, label)
        if label == S:
            v = self.get(addrs[0]) + 1
        elif label == P:
            v = max(self.get(addrs[0]) - 1, 0)
        elif label == MAX:
            v = max(self.get(addrs[0]), self.get(addrs[1]))
        else:
            raise ValueError(f"unknown integer-register operation {label.name}")
        return self._set(addrs[0], v)


COIN = OperationLabel("c", 1)


class ProbRegisterMemory(_Registers):
    """Registers holding probabilities in [0, 1].

    Testing address i yields true (setting the register to 1) with
    probability m(i) and false (setting it to 0) otherwise.  The only update
    places a fair coin: m(i) := 1/2.
    """

    __slots__ = ()
    ZERO = 0.0
    labels = {COIN.name: COIN}
    rename, __hash__ = _Registers.rename, _Registers.__hash__

    def __init__(self, values: dict[Address, float] = ()):  # type: ignore[assignment]
        super().__init__(values)
        for v in self.values.values():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"register value {v} outside [0, 1]")

    def test(self, i: Address) -> Distribution:
        p = self.get(i)
        return Distribution(
            [((True, self._set(i, 1.0)), p), ((False, self._set(i, 0.0)), 1.0 - p)]
        )

    def update(self, addrs: tuple[Address, ...], label: OperationLabel) -> "ProbRegisterMemory":
        _check_update_args(addrs, label)
        if label != COIN:
            raise ValueError(f"unknown probabilistic-register operation {label.name}")
        return self._set(addrs[0], 0.5)


# ---------------------------------------------------------------------------
# Quantum state vector


_S2 = sqrt(0.5)

BUILTIN_GATES: dict[str, tuple[int, np.ndarray]] = {
    "H": (1, np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)),
    "X": (1, np.array([[0, 1], [1, 0]], dtype=complex)),
    "Z": (1, np.array([[1, 0], [0, -1]], dtype=complex)),
    # |x y> -> |x XOR y> |y>: the first address of the tuple is the target.
    "CNOT": (2, np.array(
        [[1, 0, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0],
         [0, 1, 0, 0]], dtype=complex)),
}


def check_unitary(mat: np.ndarray, name: str = "gate") -> None:
    n = mat.shape[0]
    if mat.shape != (n, n) or np.abs(mat.conj().T @ mat - np.eye(n)).max() > TOL:
        raise ValueError(f"{name} is not unitary")


def load_gate_config(path: str) -> dict[str, tuple[int, np.ndarray]]:
    """Parse a gate configuration file.

    Each non-empty, non-comment line reads `name, arity, e_1, ..., e_{4^n}`
    with the matrix entries row-major complex literals like `0.5+0.5i`.
    """
    gates: dict[str, tuple[int, np.ndarray]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: malformed gate line")
            try:
                name, arity = parts[0], int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: gate arity {parts[1]!r} is not an integer") from None
            dim = 2**arity
            entries = parts[2:]
            if len(entries) != dim * dim:
                raise ValueError(
                    f"{path}:{lineno}: gate {name} needs {dim * dim} entries, got {len(entries)}"
                )
            try:
                vals = [complex(e.replace(" ", "").replace("i", "j")) for e in entries]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: gate {name} has a malformed entry") from None
            mat = np.array(vals, dtype=complex).reshape(dim, dim)
            check_unitary(mat, name)
            gates[name] = (arity, mat)
    return gates


class QuantumMemory:
    """State vector over dynamically bound qubit addresses.

    `bound` is kept sorted ascending; amplitude index bit j (most significant
    first) corresponds to bound[j].  Unbound addresses are implicitly |0> and
    are bound on first use.  Measurement is destructive: the outcome qubit is
    projected, the state renormalized, and the address removed from `bound`.

    The constructor checks what a caller passes in; a state the backend
    builds from a valid one (`_with`) skips those checks.  A state never
    changes, so its rounded form, which equality and hashing read, is kept
    once computed.
    """

    __slots__ = ("bound", "amps", "gates", "_round")

    def __init__(self, bound=(), amps=None, gates=None):
        self.bound = tuple(bound)
        if sorted(set(self.bound)) != list(self.bound):
            raise ValueError(f"bound addresses must be sorted and distinct: {bound}")
        if amps is None:
            amps = np.zeros(2 ** len(self.bound), dtype=complex)
            amps[0] = 1.0
        self.amps = np.asarray(amps, dtype=complex)
        if self.amps.shape != (2 ** len(self.bound),):
            raise ValueError("amplitude vector length does not match bound addresses")
        if abs(np.sum(np.abs(self.amps) ** 2) - 1.0) > TOL:
            raise ValueError("state vector is not normalized")
        self.gates = dict(BUILTIN_GATES) if gates is None else gates
        self._round = None

    def support(self) -> set[Address]:
        return set(self.bound)

    def _with(self, bound: tuple, amps) -> "QuantumMemory":
        """A state made by a unitary, a projection then renormalization, or
        a renaming of this one: sorted `bound`, matching normalized `amps`."""
        m = QuantumMemory.__new__(QuantumMemory)
        m.bound, m.amps = bound, np.asarray(amps, dtype=complex)
        m.gates, m._round = self.gates, None
        return m

    def _bind(self, addrs: tuple[Address, ...]) -> "QuantumMemory":
        """Bind any unbound addresses as |0> (keeping `bound` sorted)."""
        m = self
        for i in sorted(set(addrs) - set(m.bound)):
            pos = sum(1 for b in m.bound if b < i)
            tensor = m.amps.reshape([2] * len(m.bound) or [1])
            expanded = np.stack([tensor, np.zeros_like(tensor)], axis=pos)
            bound = m.bound[:pos] + (i,) + m.bound[pos:]
            m = m._with(bound, expanded.reshape(-1))
        return m

    def update(self, addrs: tuple[Address, ...], label: OperationLabel) -> "QuantumMemory":
        _check_update_args(addrs, label)
        if label.name not in self.gates:
            raise ValueError(f"unknown gate {label.name}")
        arity, mat = self.gates[label.name]
        if arity != label.arity:
            raise ValueError(f"gate {label.name} has arity {arity}, label says {label.arity}")
        m = self._bind(addrs)
        n = len(m.bound)
        slots = [m.bound.index(i) for i in addrs]
        tensor = m.amps.reshape([2] * n)
        gate = mat.reshape([2] * (2 * arity))
        # Contract gate input axes against the addressed qubit axes; the gate
        # output axes land first, followed by the untouched axes in order.
        tensor = np.tensordot(gate, tensor, axes=(list(range(arity, 2 * arity)), slots))
        rest = [ax for ax in range(n) if ax not in slots]
        tensor = np.moveaxis(tensor, list(range(n)), slots + rest)
        return m._with(m.bound, tensor.reshape(-1))

    def test(self, i: Address) -> Distribution:
        if i not in self.bound:
            # A fresh qubit is |0>, so measuring it deterministically yields
            # false and leaves the state untouched.
            return Distribution.dirac((False, self))
        n = len(self.bound)
        slot = self.bound.index(i)
        tensor = self.amps.reshape([2] * n)
        new_bound = tuple(b for b in self.bound if b != i)
        branches = []
        for outcome in (False, True):
            sub = np.take(tensor, 1 if outcome else 0, axis=slot).reshape(-1)
            p = float(np.sum(np.abs(sub) ** 2))
            if p >= PRUNE:
                branches.append(((outcome, self._with(new_bound, sub / sqrt(p))), p))
        return Distribution(branches)

    def rename(self, sigma: dict[Address, Address]) -> "QuantumMemory":
        renamed = [sigma.get(b, b) for b in self.bound]
        order = np.argsort(renamed, kind="stable")
        tensor = self.amps.reshape([2] * len(self.bound) or [1])
        tensor = np.transpose(tensor, axes=list(order)) if self.bound else tensor
        return self._with(tuple(sorted(renamed)), tensor.reshape(-1))

    def _rounded(self):
        if self._round is None:
            # Adding 0.0 maps any -0.0 component to +0.0.
            self._round = self.bound, (np.round(self.amps, 6) + 0.0).tobytes()
        return self._round

    def __eq__(self, other) -> bool:
        # Equal when the amplitudes rounded to 6 decimals are, as the hash sees
        # them; equal arrays skip the rounding.  Tolerance is left to approx_eq.
        if not isinstance(other, QuantumMemory) or self.bound != other.bound:
            return False
        return np.array_equal(self.amps, other.amps) or self._rounded() == other._rounded()

    def __hash__(self) -> int:
        return hash(self._rounded())

    def approx_eq(self, other, tol: float = TOL) -> bool:
        return (
            isinstance(other, QuantumMemory)
            and self.bound == other.bound
            and self.amps.shape == other.amps.shape
            and bool(np.all(np.abs(self.amps - other.amps) <= tol))
        )

    def __repr__(self) -> str:
        terms = []
        for idx, a in enumerate(self.amps):
            if abs(a) > PRUNE:
                ket = format(idx, f"0{len(self.bound)}b") if self.bound else ""
                terms.append(f"{a:.4g}|{ket}>")
        return f"QuantumMemory(bound={self.bound}, {' + '.join(terms) or '1|>'})"


# ---------------------------------------------------------------------------
# Backends


class Backend:
    """Bundle of an initial memory constructor and its operation labels."""

    def __init__(self, labels: dict[str, OperationLabel], make_initial):
        self.labels = labels
        self.make_initial = make_initial

    def initial(self):
        return self.make_initial()


def int_backend() -> Backend:
    return Backend(dict(IntRegisterMemory.labels), IntRegisterMemory)


def prob_backend() -> Backend:
    return Backend(dict(ProbRegisterMemory.labels), ProbRegisterMemory)


def quantum_backend(gate_config: str | None = None) -> Backend:
    gates = dict(BUILTIN_GATES)
    if gate_config:
        gates.update(load_gate_config(gate_config))
    labels = {name: OperationLabel(name, arity) for name, (arity, _) in gates.items()}
    return Backend(labels, lambda: QuantumMemory(gates=gates))
