"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_derive_from_repro_error():
    for name in (
        "SimulationError",
        "GraphError",
        "PlacementError",
        "StreamClosedError",
        "EngineError",
        "DataError",
        "ConfigurationError",
    ):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_single_catch_point():
    with pytest.raises(errors.ReproError):
        raise errors.DataError("boom")
