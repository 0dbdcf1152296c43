"""Every claim of the paper within its bound: one case per row id.

The rows, their runs and their bounds live in :data:`repro.paper.CLAIMS`;
``python -m repro.cli paper`` prints the same table.
"""

import pytest

from repro.paper import CLAIMS


def test_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(claim):
    value = claim.measure()
    assert claim.holds(value), (
        f"{claim.id} ({claim.source}): measured {value!r}, bound "
        f"{claim.bound[0]} {claim.bound[1]!r}: {claim.statement}")
