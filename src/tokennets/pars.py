"""Probabilistic abstract rewrite systems over finite-support distributions.

A rewrite system maps elements to redexes, and firing a redex yields a
finite-support sub-probability distribution over elements.  The lifted step
reduces every non-terminal element of a distribution at once, under a policy
that picks one redex per element.  On systems with the diamond property the
terminal mass reached at each step count is independent of the policy, which
is what the bundled diamond checker verifies.

The generator `lifted_steps` is the one driver of the lifted step: the
lift-step, split and diamond functions below, and the CLI, read the
terminal and reducible parts it yields after each step.  It is
also the one place that merges equal reducts and decides termination: a
system's `apply` returns a plain list of (reduct, probability) pairs, and
an element is terminal exactly when it offers no redex.

`FusedSystem` runs an engine.  The engine lists only its choices, the
redexes that branch (a memory test), in its order; its other redexes are
deterministic (Dirac) and commute, so their order is unobservable, and the
closure fires them one at a time: each micro-step asks for `next_det`'s
redex and fires it through `step_det`, which returns the bare reduct.  No
redex list is built, no `Distribution` either, and no intermediate element
is hashed.  The closure owns its element: a branch reduct from `apply` is
private to it already, and any other element it starts from is copied once
through `own`; `step_det` may then rewrite it in place.  An element the
closure has exposed (returned, or put in a distribution) is never changed
afterwards, so every element a caller holds stays immutable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Protocol

TOL = 1e-9
PRUNE = 1e-15

Element = Hashable
Redex = Any


class RewriteSystem(Protocol):
    """`lifted_steps` reads `enumerate_redexes` and `apply`; `FusedSystem`
    reads all five of the engine it runs."""

    def enumerate_redexes(self, a: Element) -> list[Redex]:
        """The redexes `a` offers the policy, in the system's order; `a` is
        terminal when it offers none.  The driver calls it once per element
        it holds.  An engine offers its choices only."""

    def apply(self, a: Element, r: Redex) -> list[tuple[Element, float]]:
        """Fire an offered redex: its reducts with their probabilities,
        unmerged.  `a` is left unchanged, and each reduct is private to the
        caller, who may hand it to `step_det`."""

    def next_det(self, a: Element) -> Redex | None:
        """The first deterministic redex of `a` in the engine's order, or
        None."""

    def own(self, a: Element) -> Element:
        """An element equal to `a` that no one else holds, for `step_det`
        to rewrite (`a` itself where `step_det` never changes its input)."""

    def step_det(self, a: Element, r: Redex) -> Element:
        """The reduct of a deterministic redex, as a bare element.  May
        rewrite `a` in place, so `a` must come from `own` or an earlier
        `step_det` and is not to be used afterwards."""


Policy = Callable[[Element, list[Redex]], Redex]


def leftmost_policy(a: Element, redexes: list[Redex]) -> Redex:
    return redexes[0]


def seeded_policy(seed: int) -> Policy:
    rng = random.Random(seed)

    def pick(a: Element, redexes: list[Redex]) -> Redex:
        return redexes[rng.randrange(len(redexes))]

    return pick


class Distribution:
    """Finite-support sub-probability distribution.

    Entries are strictly positive and sum to at most 1 (within tolerance);
    entries below the pruning threshold are dropped on construction.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: dict[Element, float] | Iterable[tuple[Element, float]] = ()):
        items = entries.items() if isinstance(entries, dict) else entries
        acc: dict[Element, float] = {}
        for a, p in items:
            if p < 0:
                raise ValueError(f"negative probability {p}")
            acc[a] = acc.get(a, 0.0) + p
        self.entries = {a: p for a, p in acc.items() if p >= PRUNE}
        total = sum(self.entries.values())
        if total > 1 + TOL:
            raise ValueError(f"distribution mass {total} exceeds 1")

    @classmethod
    def dirac(cls, a: Element) -> "Distribution":
        return cls({a: 1.0})

    def __getitem__(self, a: Element) -> float:
        return self.entries.get(a, 0.0)

    def __iter__(self):
        return iter(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and self.entries == other.entries

    def __repr__(self) -> str:
        body = ", ".join(f"{a!r}: {p:.6g}" for a, p in self.entries.items())
        return "{" + body + "}"

    def support(self) -> list[Element]:
        return list(self.entries)

    def mass(self) -> float:
        return sum(self.entries.values())

    def close_to(self, other: "Distribution", tol: float = TOL) -> bool:
        keys = set(self.entries) | set(other.entries)
        return all(abs(self[a] - other[a]) <= tol for a in keys)


def lifted_steps(
    mu: Distribution, sys: RewriteSystem, policy: Policy, horizon: int, tol: float
) -> Iterator[tuple[Distribution, Distribution, Distribution]]:
    """Yield (mu, terminal part, reducible part) after 0, 1, 2, ... lifted
    steps, up to `horizon` steps or the first step count whose reducible
    mass is below `tol` (with `tol` 0, exactly `horizon` steps).

    Each element is enumerated once, when it appears, and is terminal
    exactly when it has no redex; one terminal at the previous step is not
    enumerated again.  A step hands each reducible element's redex list to
    the policy, once per reducible element, in support order, and builds
    the next distribution from one list of reducts in that order: that
    `Distribution` is where equal reducts merge.  The lift to step k, and
    the enumeration of its new elements, run inside the `next()` that
    yields step k.
    """
    term: dict[Element, float] = {}
    for k in range(horizon + 1):
        carried = term
        rows = [(a, p, [] if a in carried else sys.enumerate_redexes(a)) for a, p in mu]
        term = {a: p for a, p, redexes in rows if not redexes}
        reducible = Distribution({a: p for a, p, redexes in rows if redexes})
        yield mu, Distribution(term), reducible
        if k == horizon or reducible.mass() < tol:
            return
        out: list[tuple[Element, float]] = []
        for a, p, redexes in rows:
            if redexes:
                out.extend((b, p * q) for b, q in sys.apply(a, policy(a, redexes)))
            else:
                out.append((a, p))
        mu = Distribution(out)


def terminal_split(mu: Distribution, sys: RewriteSystem) -> tuple[Distribution, Distribution]:
    """Split mu into its terminal and reducible parts (pointwise sum is mu)."""
    return next(lifted_steps(mu, sys, leftmost_policy, 0, 0.0))[1:]


def lift_step(mu: Distribution, sys: RewriteSystem, policy: Policy) -> Distribution:
    """One parallel step: every non-terminal support element is reduced once."""
    for mu, _, _ in lifted_steps(mu, sys, policy, 1, 0.0):
        pass
    return mu


@dataclass
class DiamondReport:
    passed: bool
    failures: list[str] = field(default_factory=list)


def check_diamond(
    sys: RewriteSystem,
    seeds: list[Element],
    depth: int,
    policies: tuple[Policy, Policy],
    tol: float = TOL,
) -> DiamondReport:
    """Bounded diamond-property check.

    For each seed element, runs the lifted step `depth` times under both
    policies and requires equal terminal parts at every step count; for each
    genuine one-step divergence it additionally requires the two reducts to be
    joinable with one more step.
    """
    p1, p2 = policies
    failures: list[str] = []
    for seed in seeds:
        mu = Distribution.dirac(seed)
        runs = zip(lifted_steps(mu, sys, p1, depth, 0.0), lifted_steps(mu, sys, p2, depth, 0.0))
        for k, ((_, term1, _), (_, term2, _)) in enumerate(runs):
            if not term1.close_to(term2, tol):
                failures.append(
                    f"seed {seed!r}: terminal parts differ at step {k}: {term1!r} vs {term2!r}"
                )
                break
        # A terminal seed lifts to itself under both policies.
        nu = lift_step(mu, sys, p1)
        xi = lift_step(mu, sys, p2)
        if nu != xi:
            nu2 = lift_step(nu, sys, p2)
            xi2 = lift_step(xi, sys, p1)
            if not (nu2.close_to(xi2, tol) or nu.close_to(xi, tol)):
                failures.append(
                    f"seed {seed!r}: one-step divergence not joinable in one step: "
                    f"{nu2!r} vs {xi2!r}"
                )
    return DiamondReport(not failures, failures)


CONTINUE = "continue"


class FusedSystem:
    """An engine as a rewrite system whose steps are its choices.

    Elements are kept closure-normal: the closure fires the engine's
    deterministic redexes (see the module docstring) until none is left,
    or the step budget runs out, before it exposes an element.  A fused
    step then fires one of the engine's choices and closes every branch
    again, so one step of this system is one observable choice point.  On
    diamond systems this leaves terminal parts unchanged while collapsing
    long deterministic runs.

    An element offers the engine's choices if it has any; else, when the
    budget cut its closure short (a diverging deterministic spine), a
    single `CONTINUE` that resumes the closure, so it stays non-terminal.
    """

    def __init__(self, sys: RewriteSystem, budget: int = 500):
        self.sys = sys
        self.budget = budget

    def _closure(self, a: Element, owned: bool = False) -> Element:
        """Fire deterministic redexes from `a` until none is left or the
        budget runs out.  With `owned` false, `a` is copied through `own`
        before the first step rewrites it; a branch reduct is owned."""
        sys = self.sys
        for _ in range(self.budget):
            r = sys.next_det(a)
            if r is None:
                return a
            if not owned:
                a, owned = sys.own(a), True
            a = sys.step_det(a, r)
        return a

    def prepare(self, a: Element) -> Element:
        return self._closure(a)

    def enumerate_redexes(self, a: Element) -> list[Redex]:
        choices = self.sys.enumerate_redexes(a)
        if choices:
            return choices
        return [CONTINUE] if self.sys.next_det(a) is not None else []

    def apply(self, a: Element, r: Redex) -> list[tuple[Element, float]]:
        if r == CONTINUE:
            return [(self._closure(a), 1.0)]
        return [(self._closure(b, owned=True), p) for b, p in self.sys.apply(a, r)]
