"""The claim staleness bound: the one fault-handling setting left."""

import pytest

from repro.experiments.runner import ExperimentRunner


def test_default_bound_is_ten_minutes():
    assert ExperimentRunner().lock_stale_s == 600.0


def test_validation():
    with pytest.raises(ValueError):
        ExperimentRunner(lock_stale_s=0.0)
    with pytest.raises(ValueError):
        ExperimentRunner(lock_stale_s=-1.0)

