"""Replay the golden corpus (see regen.py): every case's exit code and output
sha256 must match reports.json."""

import json

import pytest

import regen


@pytest.fixture(scope="module")
def results():
    return regen.run_all()


def test_golden_reports_match(results):
    pins = regen.load_pins()
    got = regen.pins_of(results)
    assert set(got) == set(pins), sorted(set(got) ^ set(pins))
    bad = {cid: (pins[cid], got[cid]) for cid in pins if pins[cid] != got[cid]}
    assert not bad, bad


@pytest.mark.parametrize("budget", sorted(regen.BUDGETS))
def test_check_theorem_matches_analyze(results, budget):
    """`check-theorem --paper-ref TAG FILE` gives the verdict of the TAG entry
    of `analyze FILE --all` under the same budgets, on every corpus table."""
    mismatches = []
    for table in regen.TABLES:
        _, data = results[f"{table} analyze --all [{budget}]"]
        by_tag = {c["tag"]: c for c in json.loads(data)["checks"]}
        assert tuple(by_tag) == regen.FILE_TAGS
        for tag in regen.FILE_TAGS:
            verdict = json.loads(results[f"{table} check-theorem {tag} [{budget}]"][1])
            if verdict != by_tag[tag]:
                mismatches.append((table, tag, verdict["reason"], by_tag[tag]["reason"]))
    assert not mismatches, mismatches
