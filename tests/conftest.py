"""Checks that hold for every test."""

import pytest

from cubefold.sampling import SpecValidationError

# longest spec error message: a cut field and three cut values in the
# longest template stay below this, whatever the spec file holds
MAX_SPEC_ERROR = 250


@pytest.fixture(autouse=True)
def spec_errors_stay_short(monkeypatch):
    """Every SpecValidationError a test raises has a bounded message."""
    real = SpecValidationError.__init__

    def checked(self, *args):
        real(self, *args)
        assert len(str(self)) <= MAX_SPEC_ERROR, f"{len(str(self))}-character message"

    monkeypatch.setattr(SpecValidationError, "__init__", checked)
