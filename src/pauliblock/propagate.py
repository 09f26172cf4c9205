"""Split-operator time evolution under the time-dependent trap.

Second-order Strang stepping

    psi <- exp(-i*V*dt/2) . IFFT . exp(-i*k^2*dt/2) . FFT . exp(-i*V*dt/2) . psi

with the potential evaluated at the midpoint of each step.  The kinetic
factor is exact on the momentum lattice, so the scheme is unconditionally
stable and unitary up to rounding.  The trailing half-kick of one step
and the leading half-kick of the next are applied as one phase,
exp(-i*(V_n + V_(n+1))*dt/2), so a step costs one potential multiply and
two in-place transforms; a step is closed (its trailing half-kick applied
alone) wherever the state is looked at: at each health check and at the
end.  Many states propagate together as the rows of one array; each row
evolves independently, so batched and one-at-a-time results agree.

In a trap symmetric about x = 0 on a grid symmetric about 0, the lattice
reflection R (x -> -x, :meth:`~pauliblock.grid.Grid.reflect`) commutes
with both Strang factors, so the propagator U maps even states to even
ones and odd to odd.  Being linear, it evolves the sum a + b of an even
state a and an odd state b as U a + U b, and (1 + R)/2 and (1 - R)/2
take the two apart again.  :func:`propagate_basis` therefore packs each
even eigenstate with an odd one into a single row and evolves about half
as many rows; the states are unpacked before every containment and
resolution check and at the end, so the checks, their ``state`` index
and the orthonormality check see the states one by one.  A state whose
parity is not pure to ``PARITY_TOL`` keeps a row of its own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ContainmentError,
    ConvergenceError,
    InstabilityError,
    ResolutionError,
)
from .spectral import check_containment, check_resolution, parity_masks

# Steps between containment / resolution / finite-amplitude checks.
CHECK_INTERVAL = 1000


@dataclass(frozen=True)
class PropagationSettings:
    """Time-stepping knobs.

    ``dt`` is the requested step (adjusted to divide T exactly);
    ``tolerance`` is the overlap-convergence target used by the automatic
    step-halving check of the scenario runners.
    """

    dt: float = 1e-3
    tolerance: float = 1e-4

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")

    def steps_for(self, T):
        """Step count and the adjusted dt that divides T exactly."""
        steps = max(1, int(round(T / self.dt)))
        return steps, T / steps


def _unpacked(psi):
    return psi


def _evolve(rows, schedule, grid, settings, unpack=_unpacked):
    """Evolve ``rows``, a 2-D array, from t=0 to t=T; return the states.

    ``unpack`` maps the rows to the states they carry (see :func:`_pack`);
    the health checks and the returned array see its output.  The
    trailing half-kick of a step is fused with the leading one of the next
    (see the module docstring); the step is closed wherever the state is
    looked at.
    """
    steps, dt = settings.steps_for(schedule.T)
    psi = np.array(rows, dtype=np.complex128, copy=True)

    profile = schedule.time_profile(grid)
    kinetic = np.exp(-0.5j * dt * grid.k_values**2)
    both = np.empty(grid.n_points)
    angle = np.empty(grid.n_points)
    factor = np.empty(grid.n_points, dtype=np.complex128)

    def kick(potential):
        # psi *= exp(-i * potential * dt/2), the factor built as cos + i sin.
        np.multiply(potential, -0.5 * dt, out=angle)
        np.cos(angle, out=factor.real)
        np.sin(angle, out=factor.imag)
        np.multiply(psi, factor, out=psi)

    v = profile(0.5 * dt)
    kick(v)
    for step in range(1, steps + 1):
        np.fft.fft(psi, axis=1, out=psi)
        psi *= kinetic
        np.fft.ifft(psi, axis=1, out=psi)
        checked = step % CHECK_INTERVAL == 0
        v_next = profile((step + 0.5) * dt) if step < steps else None
        if checked or v_next is None:
            kick(v)
            if checked:
                _check_health(unpack(psi), grid, step)
            if v_next is not None:
                kick(v_next)
        else:
            np.add(v, v_next, out=both)
            kick(both)
        v = v_next
    psi = unpack(psi)
    _check_health(psi, grid, steps)
    return psi


def _check_health(psi, grid, step):
    if not np.all(np.isfinite(psi)):
        raise InstabilityError(step)
    # A leak through the periodic boundary also puts weight at the momentum
    # edge, and aliased momentum smears amplitude onto the boundary: when
    # both checks fail, the one exceeding its tolerance more names the cause.
    failures = []
    for check in (check_containment, check_resolution):
        try:
            check(psi, grid)
        except (ContainmentError, ResolutionError) as exc:
            failures.append(exc)
    if failures:
        worst = max(failures, key=lambda exc: exc.excess)
        raise type(worst)(
            f"{worst} (at step {step})", worst.state, worst.ratio, worst.tol, step
        ) from None


def _pack(states, schedule, grid):
    """Rows that carry ``states``, and the map from evolved rows to states.

    On a symmetric trap and grid, the k-th even state shares a row with the
    k-th odd one; the rest keep rows of their own, after the pairs.  With
    no pair to make, the rows are ``states`` itself.
    """
    if not (schedule.is_symmetric and grid.is_symmetric):
        return states, _unpacked
    even, odd, _ = parity_masks(states, grid)
    even, odd = np.flatnonzero(even), np.flatnonzero(odd)
    n_pairs = min(even.size, odd.size)
    if n_pairs == 0:
        return states, _unpacked
    even, odd = even[:n_pairs], odd[:n_pairs]
    single = np.ones(len(states), dtype=bool)  # states left without a partner
    single[even] = single[odd] = False
    rows = np.concatenate((states[even] + states[odd], states[single]))

    def unpack(psi):
        pairs = psi[:n_pairs]
        mirrored = grid.reflect(pairs)
        out = np.empty((len(states), psi.shape[1]), dtype=psi.dtype)
        out[even] = 0.5 * (pairs + mirrored)
        out[odd] = 0.5 * (pairs - mirrored)
        out[single] = psi[n_pairs:]
        return out

    return rows, unpack


def propagate_basis(basis, n_states, schedule, settings=PropagationSettings()):
    """Evolve the ``n_states`` lowest eigenstates of ``basis`` to t = T.

    Returns the final amplitudes as an array of shape (n_states, n_points).
    On a symmetric trap and grid, states of opposite parity share rows
    (see the module docstring).  Unitarity is verified: the Gram matrix of
    the outputs must match the identity to 1e-6.
    """
    if n_states < 1 or n_states > basis.size:
        raise ConfigError(
            f"requested {n_states} states from a basis of {basis.size}"
        )
    rows, unpack = _pack(basis.states[:n_states], schedule, basis.grid)
    final = _evolve(rows, schedule, basis.grid, settings, unpack=unpack)
    gram = np.conj(final) @ final.T * basis.grid.dx
    defect = np.max(np.abs(gram - np.eye(n_states)))
    if defect >= 1e-6:
        raise ConvergenceError(
            f"propagated states lost orthonormality (Gram defect {defect:.2e})"
        )
    return final
