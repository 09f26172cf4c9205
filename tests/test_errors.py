import pickle

from pauliblock import errors

FIELDS = ("state", "ratio", "tol", "step", "required", "available")


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
