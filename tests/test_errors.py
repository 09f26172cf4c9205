import pickle

import numpy as np
import pytest

from pauliblock import (
    Grid,
    OverlapMatrix,
    PotentialSchedule,
    PropagationSettings,
    errors,
    pipeline,
    propagate,
    propagate_basis,
    solve,
    spectral,
)
from pauliblock.fidelity import COLUMN_NORM_TOL, RANGE_TOL, check_range
from pauliblock.pipeline import Engine
from pauliblock.thermal import projected_fidelity

FIELDS = (
    "state", "ratio", "tol", "step", "required", "available", "dt", "change",
    "tolerance", "defect", "energy", "cap", "residual", "bound", "value",
    "index", "tau", "n_points",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _example(cls):
    """An instance of ``cls`` with every structured field it takes set."""
    if issubclass(cls, errors.InstabilityError):
        return cls(5)
    if issubclass(cls, errors.NeedsMoreLevelsError):
        return cls(20, 12)
    if issubclass(cls, errors.TimeStepError):
        return cls(1e-3, 2.5e-4, 1e-4)
    if issubclass(cls, errors.EdgeAmplitudeError):
        return cls("edge weight", state=3, ratio=2e-5, tol=1e-6, step=400)
    return cls("went wrong", value=1.5, index=(0, 1), tolerance=1e-10)


class TestPickling:
    def test_every_error_survives_a_round_trip(self):
        # Errors raised in a worker process reach the caller pickled.
        classes = [errors.SimulationError, *_subclasses(errors.SimulationError)]
        assert errors.NeedsMoreLevelsError in classes
        for cls in classes:
            error = _example(cls)
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is cls
            assert str(copy) == str(error)
            for name in FIELDS:
                assert getattr(copy, name, None) == getattr(error, name, None)

    def test_reported_examples(self):
        copy = pickle.loads(pickle.dumps(errors.InstabilityError(5)))
        assert str(copy) == "non-finite amplitude at step 5"
        assert copy.step == 5
        copy = pickle.loads(pickle.dumps(errors.NeedsMoreLevelsError(20, 12)))
        assert (copy.required, copy.available) == (20, 12)


class TestTimeStepError:
    def test_fields_survive_a_lane(self, cpus):
        # T = 2 at dt = 100 runs out of rungs (test_cli's equal-step case).
        # The error of the check, run in this process and then in a forked
        # lane, which sends it back pickled, carries the same fields.  The
        # lane runs alone: two concurrent eigensolves contend for the BLAS
        # threads.
        schedule = PotentialSchedule.splitting(2.0, h_f=20.0)
        settings = PropagationSettings(dt=100.0)
        cpus(1)

        def check():
            try:
                Engine().validated_settings([schedule], 2, 2, 0.0, settings, True)
            except errors.TimeStepError as exc:
                return exc

        here = check()
        _, there = pipeline._in_lanes([lambda: None, check])
        assert type(there) is errors.TimeStepError
        assert str(there).startswith("time step did not converge")
        assert str(there) == str(here)
        assert (there.dt, there.change, there.tolerance) == (
            here.dt, here.change, here.tolerance
        )
        assert there.dt == 100.0 / 2**11
        assert there.tolerance == pipeline.DT_TOLERANCE
        assert there.change >= 4 * there.tolerance


class TestErrorsNameTheirGrid:
    # A grid check names the lattice it failed on, also in a worker.

    def test_propagation_trip(self):
        # The leaking case of test_propagate's containment test.
        grid = Grid(-8.0, 8.0, 128)
        schedule = PotentialSchedule.expansion(3.0, omega_f=0.05, lam=0.0)
        basis = solve(schedule.evaluate(grid, 0.0), grid, 6)
        with pytest.raises(errors.ContainmentError) as raised:
            propagate_basis(basis, 6, schedule, PropagationSettings(dt=5e-3))
        assert raised.value.step == 600
        assert raised.value.grid == grid
        assert pickle.loads(pickle.dumps(raised.value)).grid == grid

    def test_eigensolve_trip(self):
        # The ground state of the unit trap is about 1 wide: a box of +-2
        # cuts it off.
        grid = Grid(-2.0, 2.0, 64)
        schedule = PotentialSchedule.expansion(1.0, omega_f=0.5, lam=0.0)
        with pytest.raises(errors.ContainmentError) as raised:
            solve(schedule.evaluate(grid, 0.0), grid, 2)
        assert raised.value.step is None
        assert raised.value.grid == grid
        assert pickle.loads(pickle.dumps(raised.value)).grid == grid


class TestStructuredFields:
    # Each planted failure raises with its fields, and they survive the
    # pickle round trip that brings an error back from a forked lane.

    @staticmethod
    def fields(raised, names):
        error = raised.value
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        here = {name: getattr(error, name) for name in names}
        assert {name: getattr(copy, name) for name in names} == here
        return here

    def test_gram_defect(self, monkeypatch):
        # The evolved states come back 0.1% long: the Gram matrix's
        # diagonal reads 1.002001.
        evolve = propagate._evolve
        monkeypatch.setattr(
            propagate, "_evolve",
            lambda packed, grid: [1.001 * f for f in evolve(packed, grid)],
        )
        grid = Grid(-8.0, 8.0, 64)
        schedule = PotentialSchedule.expansion(0.1, omega_f=0.5, lam=0.0)
        basis = solve(schedule.evaluate(grid, 0.0), grid, 2)
        with pytest.raises(errors.ConvergenceError, match="Gram defect") as raised:
            propagate_basis(basis, 2, schedule, PropagationSettings(dt=0.01))
        found = self.fields(raised, ("defect", "tolerance"))
        assert found["defect"] == pytest.approx(1.001**2 - 1, rel=1e-6)
        assert found["tolerance"] == propagate.GRAM_TOL

    def test_potential_cap(self):
        # A trap floor at 2e4 puts every level above 1e-2 of the cap.
        grid = Grid(-8.0, 8.0, 64)
        with pytest.raises(errors.ConvergenceError, match="potential cap") as raised:
            solve(2e4 + 0.5 * grid.x**2, grid, 2)
        found = self.fields(raised, ("energy", "cap"))
        assert found["energy"] == pytest.approx(2e4 + 1.5, rel=1e-9)
        assert found["cap"] == spectral.POTENTIAL_CLIP

    def test_residual(self):
        # Level 2's energy planted 1e-3 off.
        grid = Grid(-8.0, 8.0, 64)
        potential = 0.5 * grid.x**2
        basis = solve(potential, grid, 3)
        energies = basis.energies + np.array([0.0, 1e-3, 0.0])
        with pytest.raises(errors.ConvergenceError, match="residual") as raised:
            spectral.residual_check(potential, grid, energies, basis.states)
        found = self.fields(raised, ("state", "residual", "bound"))
        assert found["state"] == 2
        assert found["residual"] == pytest.approx(1e-3, rel=1e-6)
        assert found["bound"] == spectral.RESIDUAL_TOL * energies[1]

    def test_range(self):
        with pytest.raises(errors.NumericalConsistencyError) as raised:
            check_range(np.array([0.5, 1.5]), "F")
        assert self.fields(raised, ("value", "index", "tolerance")) == {
            "value": 1.5, "index": 1, "tolerance": RANGE_TOL,
        }
        with pytest.raises(errors.NumericalConsistencyError) as raised:
            check_range(-0.5, "F")
        assert self.fields(raised, ("value", "index", "tolerance")) == {
            "value": -0.5, "index": None, "tolerance": RANGE_TOL,
        }

    def test_overlap_matrix(self):
        names = ("value", "index", "tolerance")
        with pytest.raises(errors.NumericalConsistencyError) as raised:
            OverlapMatrix([[0.5, 0.0], [0.0, 1.25], [0.0, 0.0]])
        assert self.fields(raised, names) == {
            "value": 1.25, "index": 1, "tolerance": COLUMN_NORM_TOL,
        }
        # Columns of norm 0.9 that point the same way: singular value 1.27.
        with pytest.raises(errors.NumericalConsistencyError) as raised:
            OverlapMatrix([[0.9, 0.9], [0.0, 0.0]])
        found = self.fields(raised, names)
        assert found["value"] == pytest.approx(0.9 * np.sqrt(2), rel=1e-12)
        assert (found["index"], found["tolerance"]) == (0, COLUMN_NORM_TOL)
        with pytest.raises(errors.NumericalConsistencyError) as raised:
            OverlapMatrix([[0.5, 0.0], [0.0, np.nan]])
        found = self.fields(raised, ("index", "tolerance"))
        assert found == {"index": (1, 1), "tolerance": None}
        assert np.isnan(raised.value.value)

    def test_projection(self):
        # No overlap at all, claimed to give a ground fidelity of 1: the
        # projected numerator falls short of the ground term.
        energies = np.arange(30) + 0.5
        with pytest.raises(
            errors.NumericalConsistencyError, match="fidelity weight"
        ) as raised:
            projected_fidelity(energies, np.zeros((30, 2)), 4, 0.3, 1.0)
        found = self.fields(raised, ("tau", "value", "bound"))
        assert found["tau"] == 0.3
        assert found["value"] < found["bound"]

    def test_grid_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_SOLVE_POINTS", 64)
        grid = Grid(-8.0, 8.0, 128)
        with pytest.raises(errors.ConfigError, match="at most 64 points") as raised:
            solve(0.5 * grid.x**2, grid, 2)
        assert self.fields(raised, ("n_points", "cap")) == {
            "n_points": 128, "cap": 64,
        }
