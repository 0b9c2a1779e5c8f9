"""Fixtures shared by the test modules."""

import pytest

import nwfree.exactpoly
import nwfree.irreducible
import nwfree.modfam


@pytest.fixture
def small_ranges(monkeypatch):
    """Make every range built in modfam, exactpoly or irreducible fail above 10^4 entries."""

    def bounded_range(*args):
        r = range(*args)
        assert len(r) <= 10 ** 4, f"range of {len(r)} entries"
        return r

    for module in (nwfree.modfam, nwfree.exactpoly, nwfree.irreducible):
        monkeypatch.setattr(module, "range", bounded_range, raising=False)
