import inspect

from hapbeam import errors
from hapbeam.errors import exit_code_for

EXPECTED = {
    "HapbeamError": 1,
    "ConfigError": 2,
    "DataError": 3,
    "ParseError": 3,
    "DegenerateAttitudeError": 3,
    "AmbiguousAxisError": 3,
    "UncoveredSlotError": 3,
    "OutOfModelError": 3,
    "InvariantError": 4,
}


def test_every_error_class_has_its_exit_code():
    classes = {
        name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert set(classes) == set(EXPECTED)
    for name, cls in classes.items():
        exc = cls("boom", 0.0) if cls is errors.AmbiguousAxisError else cls("boom")
        assert exit_code_for(exc) == EXPECTED[name], name
    assert exit_code_for(ValueError("not ours")) == 1
