"""The answer ledger `tests/answers.json` (written by `tests/answer_ledger.py`):
every row is reproduced exactly, and the rows whose answer disagrees with the
theory do not grow in number."""

import answer_ledger

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
