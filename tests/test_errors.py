import pickle

import pytest

from pauliblock import (
    Grid,
    PotentialSchedule,
    PropagationSettings,
    errors,
    pipeline,
    propagate_basis,
    solve,
)
from pauliblock.pipeline import Engine

FIELDS = (
    "state", "ratio", "tol", "step", "required", "available", "dt", "change",
    "tolerance",
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
    return cls("went wrong")


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
