import math

import pytest

from gogrow import solver


@pytest.fixture
def poison(monkeypatch):
    """poison(chi, t_from): after every emit at t >= t_from, write NaN at
    node 40 of the row of the batch member whose config has this chi, so
    that member's next step fails its guard.  Observers see a read-only
    row, so the write happens in the batch; a forked sweep worker
    inherits the patch."""

    def arm(chi: float, t_from: float) -> None:
        emit = solver._Batch.emit

        def poisoned(self, t):
            emit(self, t)
            if t >= t_from:
                for j, i in enumerate(self.live):
                    if self.cfgs[i].chi_params.chi == chi:
                        self.row(j)[40] = math.nan

        monkeypatch.setattr(solver._Batch, "emit", poisoned)

    return arm
