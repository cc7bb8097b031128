"""The answer ledger `tests/answers.json` (written by `tests/answer_ledger.py`):
every row is reproduced exactly, and the rows whose answer disagrees with the
theory do not grow in number."""

from pathlib import Path

import pytest

import answer_ledger
from efdyn.model import SystemParams

# the ledger's rows that disagree with predict_existence, or report a
# Dirichlet solution whose two zero radii differ; a fix lowers it, nothing
# raises it
KNOWN_DISAGREEMENTS = 19


def test_every_row_is_reproduced():
    stored = answer_ledger.load()
    fresh = answer_ledger.rows()
    assert [r["id"] for r in fresh] == [r["id"] for r in stored]
    assert [f["id"] for f, s in zip(fresh, stored) if f != s] == []


def test_disagreements_do_not_grow():
    rows = answer_ledger.load()
    assert sum(r["agrees"] is False for r in rows) <= KNOWN_DISAGREEMENTS
    # every disagreement names the ROADMAP item that owns it, and only those
    assert [r["id"] for r in rows if (r["owner"] is None) != (r["agrees"] is not False)] == []


@pytest.mark.parametrize("seed", range(1, 11))
def test_ledger_draws_are_perfbench_draws(seed):
    # the ledger repeats perfbench's draws on the standard library alone
    # (perfbench/workloads.py imports numpy): the family grid of family-sweep
    # and the points and u0 of bisect-dirichlet, as perfbench builds them
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
    cfg = workloads.family_sweep_inputs(seed)
    P, sw = SystemParams.from_dict(cfg["params"]), cfg["sweep"]
    assert sw["parameter"] == "delta=mu"
    want = [(P.replace(delta=v, mu=v).to_dict(), "ground-state", None)
            for v in workloads.family_grid(sw["start"], sw["stop"], sw["step"])]
    got = [(Q.to_dict(), search, u0)
           for _, Q, search, u0 in answer_ledger._family_sweep_points(seed)]
    assert len(got) == 19 and got == want
    want = [(workloads.point_params(pt).to_dict(), "dirichlet", pt["u0"])
            for pt in workloads.bisect_dirichlet_inputs(seed)]
    got = [(Q.to_dict(), search, u0)
           for _, Q, search, u0 in answer_ledger._bisect_dirichlet_points(seed)]
    assert len(got) == 7 and got == want
