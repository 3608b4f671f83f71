"""Every kind of report stays as pinned in fingerprint.json, at any worker
count.  After an intended change of reported values, rewrite the pin with
`python tests/fingerprint.py --write` and review its diff."""

import fingerprint


def test_reports_match_the_pin():
    records, split = fingerprint.fingerprint()
    assert not split, f"reports differ between workers {fingerprint.WORKERS}: {split}"
    moved = fingerprint.changes(fingerprint.load_pin(), records)
    assert not moved, "reports moved from the pin:\n" + "\n".join(moved)


def test_pin_covers_every_kind_of_report():
    pin = fingerprint.load_pin()
    verdicts = {r["verdict"] for r in pin}
    assert {"HoldsOnSamples", "Violated", "PremiseFailed", "DomainError"} <= verdicts
    assert len({r["label"] for r in pin}) == len(pin) == len(fingerprint.entries())


def test_reports_do_not_depend_on_chunk_size(monkeypatch):
    from geoconvex import checker

    # chunks of a few rows put chunk boundaries before and after every
    # domain error, and give every worker several chunks
    monkeypatch.setattr(checker, "MAX_CHUNK", 64)
    pin = {r["label"]: r for r in fingerprint.load_pin()}
    moved = [
        f"{label} at workers {w}"
        for label, cfg, run in fingerprint.entries()
        for w in (1, 3)
        if fingerprint._record(label, run(cfg.replace(workers=w))) != pin[label]
    ]
    assert not moved, f"reports moved from the pin with MAX_CHUNK = 64: {moved}"
