"""`converge`: the terminal mass and truncation flag that `pars.lifted_steps` reaches."""

from tokennets.pars import TOL, Distribution, Policy, RewriteSystem, lifted_steps


def converge(
    mu: Distribution,
    sys: RewriteSystem,
    policy: Policy,
    horizon: int,
    tol: float = TOL,
) -> tuple[float, bool]:
    """Iterate the lifted step up to `horizon`, tracking the terminal mass.

    Stops early only once the remaining reducible mass falls below `tol`
    (from that point the terminal degree can no longer change by >= tol), and
    reports whether the horizon cut the run short.  A stall in the terminal
    degree is not a stopping criterion: a looping system keeps mass reducible
    forever and must report hitting the horizon.
    """
    for _, term, red in lifted_steps(mu, sys, policy, horizon, tol):
        pass
    return term.mass(), red.mass() >= tol
