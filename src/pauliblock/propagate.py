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

Several runs on one grid, each with its own rows, dt, duration and trap,
evolve in lockstep as one array (:func:`_evolve`; ``propagate_basis``
with ``also``).  On a few hundred points a step's cost is numpy's fixed
cost per call, not its arithmetic, so one transform of several rows
costs little more than one of a single row.  Each run's control value
at the middle of each of its steps is taken once, as one column, when the
run starts.  The kick phases are built once per block of steps, from one
evaluation of each run's trap on the block's slice of that column, and
each phase exp(i*phi) from one tangent, t = tan(phi/2), as
((1 - t^2) + 2it) / (1 + t^2): numpy's SIMD ``tan`` costs a fraction of a
``cos`` and ``sin`` pair.  The inverse transform is unscaled and the
kinetic factor carries its 1/n, which leaves four calls per step: the
transform, the kinetic factor, the inverse transform and the phase.
Every operation acts on each row alone, so a run's states hold the bits
of its run evolved by itself.  A health check raises
:class:`~pauliblock.errors.InstabilityError` on a non-finite amplitude,
then applies the eigensolve's grid check
(:func:`~pauliblock.spectral.check_grid`): when the position and the
momentum edge both trip, the one exceeding its tolerance by the larger
factor names the cause, and the error ends in "(at step N)".  A run that
fails a health check leaves the array with its error, and the others
carry on.

In a trap symmetric about x = 0 on a grid symmetric about 0, the lattice
reflection R (x -> -x, :meth:`~pauliblock.grid.Grid.reflect`) commutes
with both Strang factors, so the propagator U maps even states to even
ones and odd to odd.  Being linear, it evolves the sum a + b of an even
state a and an odd state b as U a + U b, and (1 + R)/2 and (1 - R)/2
take the two apart again.  The levels of such a trap alternate in
parity (:class:`~pauliblock.spectral.EigenBasis` records it), so
:func:`propagate_basis` packs level 2k with level 2k + 1 into a single row
and evolves about half as many rows; the states are unpacked before every
grid check and at the end, so the checks, their
``state`` index and the orthonormality check see the states one by one.
The kick phases of such a run are even in x too: they are built on the
n/2 + 1 points at x <= 0, the points whose potential the eigensolve's
blocks read (:func:`~pauliblock.spectral.solve`), and mirrored onto the
other n/2 - 1, so the eigensolve and the propagator see the same
potential to the bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, InstabilityError, SimulationError
from .spectral import check_grid

# Steps between grid and finite-amplitude checks.
CHECK_INTERVAL = 1000
# Most steps whose kick phases are built at once (see :func:`_evolve`).
KICK_BLOCK = 32
# A stack step's fixed cost, in steps of one packed row (see
# :func:`stack_cost`).
STACK_STEP_COST = 2
# Largest entry of |G - 1| allowed for the Gram matrix G of the evolved
# states (:func:`propagate_basis`).
GRAM_TOL = 1e-6


@dataclass(frozen=True)
class PropagationSettings:
    """Time stepping: ``dt`` is the requested step, adjusted to divide T
    exactly (:meth:`steps_for`)."""

    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")

    def steps_for(self, T):
        """Step count and the adjusted dt that divides T exactly."""
        steps = max(1, int(round(T / self.dt)))
        return steps, T / steps


def _unpacked(psi):
    return psi


def _tangent_phase(half, out):
    """Write exp(2i * ``half``) to the complex array ``out`` from one
    tangent, t = tan(half), as ((1 - t^2) + 2it) / (1 + t^2); ``half`` is
    overwritten.

    On numpy's AVX-512 target ``tan`` is a SIMD loop, several times faster
    than ``cos`` and ``sin``; on its baseline loops the three cost about
    the same.  t is finite, since no float is an odd multiple of pi/2,
    and a relative error e in t moves the phase by 2|t| e / (1 + t^2) <= e,
    so the phase is within a few eps of exp(2i * half) for any t.
    """
    re, im = out.real, out.imag
    np.tan(half, out=half)
    np.add(half, half, out=im)
    np.multiply(half, half, out=half)
    np.subtract(1.0, half, out=re)
    np.add(half, 1.0, out=half)
    np.divide(re, half, out=re)
    np.divide(im, half, out=im)


def _evolve(runs, grid):
    """Evolve ``runs`` on ``grid`` from t = 0 to their own T, in lockstep
    as the rows of one array; return each run's states, or the error of its
    health check, in order.

    A run is ``(rows, schedule, settings, unpack)``: a 2-D array of rows,
    the schedule and time step they evolve under, and the map from the
    evolved rows to the states they carry (see :func:`_pack`), which the
    health checks and the returned states see.  The rows of the runs still
    evolving are the leading rows of the array, longest run first.  Every
    run is closed and checked at each multiple of ``CHECK_INTERVAL`` and at
    its last step.  A run leaves the array at its last step, or when it
    fails a check, with the error as its result; the rows of the runs after
    it then move up into its place.

    Each run's control values at the middle of all its steps are one
    column, taken at the start.  The kick phases are built once per block
    of at most ``KICK_BLOCK`` steps, which also ends at a check step and at
    a run's last step: each run's trap is evaluated on the block's slice of
    its column, and one add and one tangent of half the angle give its
    phases by the rational map of :func:`_tangent_phase`, spread over its
    rows.  On a symmetric grid and schedule the trap, the add and the map
    run on the n/2 + 1 points at x <= 0 alone, and the phases are mirrored
    onto the other n/2 - 1; other runs use every point.  A step is then
    four calls on the running rows: the transform, the kinetic factor, the
    inverse transform, unscaled since the kinetic factor carries its 1/n,
    and the phase.

    The last bits of the phases follow the target numpy dispatches ``tan``
    to (its SIMD and baseline loops differ by an ulp on some angles), as
    the fidelities' last bits follow OpenBLAS's thread count.
    """
    lasts, dts = zip(
        *(settings.steps_for(schedule.T) for _, schedule, settings, _ in runs)
    )
    order = sorted(range(len(runs)), key=lambda r: -lasts[r])
    bounds = np.cumsum([0] + [len(runs[r][0]) for r in order])
    stack = [(r, bounds[i], bounds[i + 1]) for i, r in enumerate(order)]
    psi = np.concatenate([runs[r][0] for r in order]).astype(np.complex128)
    # The kinetic factor carries the inverse transform's 1/n.
    n = grid.n_points
    kinetic = np.empty_like(psi)
    for r, lo, hi in stack:
        kinetic[lo:hi] = np.exp(-0.5j * dts[r] * grid.k_values**2) / n
    # Each run's control values at the middle of its steps, and its trap on
    # the points its kicks are built on (x <= 0 when it is symmetric).
    controls, traps = [], []
    for r, (_, schedule, _, _) in enumerate(runs):
        controls.append(schedule.control_value((np.arange(lasts[r]) + 0.5) * dts[r]))
        m = n // 2 + 1 if grid.is_symmetric and schedule.is_symmetric else n
        traps.append(schedule.trap(grid.x[:m]))
    # Row 0 holds the leading half-kick of a block after a closed step, row
    # j the phase after the block's j-th step.
    phases = np.empty((KICK_BLOCK + 1,) + psi.shape, dtype=np.complex128)
    angle = np.empty((KICK_BLOCK + 1, n))

    finals = [None] * len(runs)
    step = 0
    while stack:
        end = min(
            step + KICK_BLOCK,
            (step // CHECK_INTERVAL + 1) * CHECK_INTERVAL,
            lasts[stack[-1][0]],
        )
        n_steps = end - step
        opened = step % CHECK_INTERVAL == 0  # the step before was closed
        built = slice(0 if opened else 1, n_steps + 1)
        for r, lo, hi in stack:
            # V_j at the middle of the block's j-th step, for j = 1..n_steps
            # and, unless the run closes its step at the end of the block,
            # n_steps + 1.
            closes = end % CHECK_INTERVAL == 0 or end == lasts[r]
            v = traps[r](controls[r][step:end + (not closes), None])
            m = v.shape[1]
            # Step j's phase fuses its trailing half-kick with the leading
            # one of the next, V_j + V_(j+1); a closing step's is V_j alone.
            np.add(v[:-1], v[1:], out=angle[1:len(v), :m])
            if closes:
                angle[n_steps, :m] = v[-1]
            if opened:
                angle[0, :m] = v[0]
            kick = angle[built, :m]
            np.multiply(kick, -0.25 * dts[r], out=kick)  # half the angle
            own = phases[built, lo:hi]
            _tangent_phase(kick, own[:, 0, :m])
            own[:, 0, m:] = own[:, 0, n - m:0:-1]  # point n - j mirrors j
            own[:, 1:] = own[:, :1]

        rows = stack[-1][2]
        view, kinetic_rows = psi[:rows], kinetic[:rows]
        if opened:
            view *= phases[0, :rows]
        for phase in phases[1:n_steps + 1, :rows]:
            np.fft.fft(view, axis=1, out=view)
            view *= kinetic_rows
            np.fft.ifft(view, axis=1, out=view, norm="forward")  # unscaled
            view *= phase
        step = end

        staying, top = [], 0
        for r, lo, hi in stack:
            if step % CHECK_INTERVAL == 0 or step == lasts[r]:
                finals[r] = runs[r][3](psi[lo:hi])
                try:
                    if not np.all(np.isfinite(finals[r])):
                        raise InstabilityError(step)
                    check_grid(finals[r], grid, step)
                except SimulationError as exc:
                    finals[r] = exc
                    continue
            if step < lasts[r]:
                # Rows move up over those of runs that tripped.  The runs
                # that ended are the shortest, after every run still here,
                # so the rows their results may view stay as they are.
                if lo != top:
                    psi[top:top + hi - lo] = psi[lo:hi]
                    kinetic[top:top + hi - lo] = kinetic[lo:hi]
                staying.append((r, top, top + hi - lo))
                top += hi - lo
        stack = staying
    return finals


def _pack(basis, n_states, schedule):
    """Rows that carry the ``n_states`` lowest states of ``basis``, and the
    map from evolved rows to states.

    On a symmetric trap and a basis whose levels alternate in parity, row k
    carries level 2k, which is even, plus level 2k + 1, which is odd, if
    there is one.  Otherwise the rows are the states themselves.
    """
    states = basis.states[:n_states]
    if not (basis.alternating and schedule.is_symmetric):
        return states, _unpacked
    rows = states[0::2].copy()
    rows[:n_states // 2] += states[1::2]

    def unpack(psi):
        mirrored = basis.grid.reflect(psi)
        out = np.empty((n_states, psi.shape[1]), dtype=psi.dtype)
        out[0::2] = 0.5 * (psi + mirrored)
        out[1::2] = 0.5 * (psi - mirrored)[:n_states // 2]
        return out

    return rows, unpack


def stack_cost(runs):
    """What evolving ``runs``, ``(basis, n_states, schedule, settings)``
    tuples, costs as one stack per grid (``propagate_basis`` with
    ``also``), in steps of one packed row: per stack, ``STACK_STEP_COST``
    for every step of its longest run, plus each run's steps times its
    packed rows (:func:`_pack`).

    A stack step is four numpy calls on the running rows, whose fixed cost
    per call does not depend on the rows, and each run adds its rows'
    arithmetic and its kick phases.  A stack of k equal one-row runs took
    8.1, 10.9, 16.0 and 24.2 µs a step for k = 1, 2, 4 and 7 on the
    expansion sweep's 320 points (2-vCPU AMD EPYC, numpy 2.4.6): a fit of
    5.5 µs fixed and 2.7 µs per run, a ratio of 2.05, which sets
    ``STACK_STEP_COST``.  The ratio falls with the points: the same fit
    gave 4.3 on 90 points and 1.0 on 800.
    """
    stacks = {}
    for basis, n_states, schedule, settings in runs:
        steps, _ = settings.steps_for(schedule.T)
        rows = len(_pack(basis, n_states, schedule)[0])
        longest, row_steps = stacks.get(basis.grid, (0, 0))
        stacks[basis.grid] = (max(longest, steps), row_steps + steps * rows)
    return sum(
        STACK_STEP_COST * longest + row_steps for longest, row_steps in stacks.values()
    )


def propagate_basis(
    basis, n_states, schedule, settings=PropagationSettings(), also=None
):
    """Evolve the ``n_states`` lowest eigenstates of ``basis`` to t = T.

    Returns the final amplitudes as an array of shape (n_states, n_points).
    On a symmetric trap and grid, states of opposite parity share rows
    (see the module docstring).  Unitarity is verified: the Gram matrix of
    the outputs must match the identity to ``GRAM_TOL``, else the run's
    :class:`ConvergenceError` names the ``defect`` and the ``tolerance``.

    ``also`` holds more ``(basis, n_states, schedule, settings)`` runs on
    the same grid, evolved in the same array (:func:`_evolve`); each run's
    states hold the bits of its run alone.  With it, the result is the
    list of every run's final amplitudes, this one's first, or in place of
    a run's the :class:`SimulationError` it tripped, the same as its lone
    call would raise.  Without it, the error is raised.
    """
    runs = [(basis, n_states, schedule, settings), *(also or ())]
    grid = basis.grid
    packed = []
    for run_basis, run_states, run_schedule, run_settings in runs:
        if run_states < 1 or run_states > run_basis.size:
            raise ConfigError(
                f"requested {run_states} states from a basis of {run_basis.size}"
            )
        if run_basis.grid != grid:
            raise ConfigError(
                f"cannot evolve runs on {run_basis.grid} and {grid} together"
            )
        rows, unpack = _pack(run_basis, run_states, run_schedule)
        packed.append((rows, run_schedule, run_settings, unpack))
    finals = _evolve(packed, grid)
    for index, final in enumerate(finals):
        if isinstance(final, SimulationError):
            continue
        gram = np.conj(final) @ final.T * grid.dx
        defect = np.max(np.abs(gram - np.eye(len(final))))
        if defect >= GRAM_TOL:
            finals[index] = ConvergenceError(
                f"propagated states lost orthonormality (Gram defect {defect:.2e})",
                defect=float(defect), tolerance=GRAM_TOL,
            )
    if also is None and isinstance(finals[0], SimulationError):
        raise finals[0]
    return finals if also is not None else finals[0]
