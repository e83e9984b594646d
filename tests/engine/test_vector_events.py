"""The vector backend's event entry point against the reference codec.

``VectorValidator.validate_events`` packs a sealed epoch's update events
straight into the slot arrays (``_pack_events``); the reference is the
fold into a snapshot (``EventFolder``) followed by ``_pack``.  The
property below holds the two to identical collect-stage state -- slot
arrays, exceptional-entity objects, findings in order, reuse counters --
and to the same exception type, over epochs full of the junk a router
can send.  The explicit tests pin each whole-epoch fallback trigger from
both sides, the two entry points sharing one engine, recovery after a
raised epoch, and the path index's memory bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ValidationEngine, compare_reports
from repro.stream.events import UpdateEvent, updates_by_router
from repro.stream.fold import EventFolder
from repro.telemetry.paths import PathError, SignalKind, SignalPath

from tests.engine.conftest import random_epoch

TOPOLOGY, SNAPSHOT, INPUTS = random_epoch(6, 11)
TS = SNAPSHOT.timestamp
_RATE_KINDS = (SignalKind.RX_RATE, SignalKind.TX_RATE)

ARRAYS = (
    "_cnt_rx", "_cnt_tx", "_cnt_ts", "_cnt_present", "_st_oper", "_st_present",
    "_pr", "_nd_bit", "_nd_reason", "_ld_code", "_dp",
)  # fmt: skip


def base_rows(snapshot=SNAPSHOT):
    """The snapshot as ``[router, path, value, meta]`` rows in seal order."""
    return [
        [router, path, value, meta]
        for router, rows in sorted(updates_by_router(snapshot).items())
        for path, value, meta in rows
    ]


def seal(rows, timestamp=TS):
    """Rows -> events with per-router ascending uids, in seal order."""
    events, uids = [], {}
    for router, path, value, meta in rows:
        uids[router] = uids.get(router, 0) + 1
        events.append(UpdateEvent(router, path, timestamp, timestamp, uids[router], value, meta))
    return tuple(sorted(events, key=lambda e: (e.router, e.uid)))


def vector_validator():
    engine = ValidationEngine(TOPOLOGY, backend="vector")
    return engine, engine._validator_for(*engine._components_for(TOPOLOGY))


def collect_state(engine, validator):
    stats = engine.stats
    return {
        **{name: getattr(validator, name) for name in ARRAYS},
        "counter_objs": sorted(map(repr, validator._counter_objs.items())),
        "extra_statuses": sorted(map(repr, validator._extra_statuses.items())),
        "extra_probes": sorted(map(repr, validator._extra_probes.items())),
        "serial_links": validator._serial_links,
        "findings": list(map(repr, validator._collected_findings)),
        "recomputed": stats.entities_recomputed.get("collect", 0),
        "reused": stats.entities_reused.get("collect", 0),
    }


def assert_same_state(reference, candidate):
    for name, expected in reference.items():
        got = candidate[name]
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected, err_msg=name)
        else:
            assert got == expected, name


def run_pack(pack):
    """``(exception type or None)`` of one pack call."""
    try:
        pack()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def expect_fast_path(events):
    """Re-derive, from the events alone, whether the epoch has a shape
    the event packer must hand to the fold."""
    seen, last_rate_meta = set(), {}
    for event in events:
        if event.path in seen:
            return False
        seen.add(event.path)
        try:
            parsed = SignalPath.parse(event.path)
        except PathError:
            return False
        if parsed.kind in _RATE_KINDS:
            last_rate_meta[(parsed.node, parsed.peer)] = event.meta
    return all(
        tuple(name for name, _ in meta) == ("sequence", "timestamp", "window_s")
        for meta in last_rate_meta.values()
    )


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------

JUNK = st.sampled_from(
    [None, True, False, 0, 1, 7, -3, -2.5, 0.0, 12.5, float("inf"), float("-inf"),
     float("nan"), "", "1.5", " 42 ", "up", "down", "drained", "junk", "maintenance",
     2**70, 10**400, (1, 2)]
)  # fmt: skip
STAMPS = st.sampled_from(
    [TS, TS - 1.0, TS - 1000.0, int(TS), int(TS) - 5, 2**52, 2**52 + 1, -(2**60),
     float("nan"), float("inf"), "10", None, True]
)  # fmt: skip
OUTSIDE_NODE = "zz-unknown"


def rarely(one_in):
    """Mostly ``False`` (hypothesis favours a range's ends, so an
    ``integers(...) == 0`` coin is nothing like one in n)."""
    return st.sampled_from([False] * (one_in - 1) + [True])


def _outside_path(kind):
    peer = None if kind in (SignalKind.DRAIN, SignalKind.DRAIN_REASON, SignalKind.NODE_DROPS) else "b"
    return SignalPath(kind, OUTSIDE_NODE, peer).render()


@st.composite
def epochs(draw):
    rows = base_rows()
    n = len(rows)
    # Dropped halves (and whole entities).
    for index in sorted(draw(st.sets(st.integers(0, n - 1), max_size=12)), reverse=True):
        del rows[index]
    # Junk values anywhere.
    for index in draw(st.sets(st.integers(0, len(rows) - 1), max_size=10)):
        rows[index][2] = draw(JUNK)
    # Rate metas: odd timestamps, a missing triple.
    rate_rows = [row for row in rows if row[3]]
    for row in draw(st.lists(st.sampled_from(rate_rows), max_size=6, unique_by=id)):
        if draw(rarely(10)):
            row[3] = draw(st.sampled_from([(), (("timestamp", TS),), row[3][::-1]]))
        else:
            meta = dict(row[3])
            meta["timestamp"] = draw(STAMPS)
            row[3] = tuple(meta.items())
    # Keys outside the universe, on the first router's feed.
    router = rows[0][0]
    for kind in draw(st.sets(st.sampled_from(list(SignalKind)), max_size=5)):
        meta = rate_rows[0][3] if kind in _RATE_KINDS else ()
        if kind in _RATE_KINDS and draw(st.booleans()):
            meta = (("sequence", 1), ("timestamp", draw(STAMPS)), ("window_s", 5.0))
        rows.append([router, _outside_path(kind), draw(JUNK), meta])
    # Whole-epoch fallback shapes: a repeated path, an unparseable one.
    if draw(rarely(8)):
        again = list(draw(st.sampled_from(rows)))
        again[2] = draw(JUNK)
        rows.append(again)
    if draw(rarely(12)):
        rows.insert(draw(st.integers(0, len(rows))), [router, "/no/such/path", 1.0, ()])
    return seal(rows)


@given(events=epochs())
@settings(max_examples=120, deadline=None)
def test_pack_events_matches_fold_then_pack(events):
    ref_engine, reference = vector_validator()
    got_engine, candidate = vector_validator()

    ref_exc = run_pack(lambda: reference._pack(EventFolder().fold(events, TS)))
    fast = []
    got_exc = run_pack(lambda: fast.append(candidate._pack_events(events, TS)))
    if fast == [False]:
        assert not expect_fast_path(events)
        got_exc = run_pack(lambda: candidate._pack(EventFolder().fold(events, TS)))
    elif fast:
        assert expect_fast_path(events)
    assert got_exc is ref_exc
    if ref_exc is not None:
        return
    assert_same_state(collect_state(ref_engine, reference), collect_state(got_engine, candidate))

    if fast == [True]:
        # Again on the warm path index: same state, counters doubled.
        assert candidate._pack_events(events, TS)
        reference._pack(EventFolder().fold(events, TS))
        assert_same_state(
            collect_state(ref_engine, reference), collect_state(got_engine, candidate)
        )


# ----------------------------------------------------------------------
# Whole-epoch fallback: each trigger, both sides of the choice
# ----------------------------------------------------------------------


def _reports(events, timestamp=TS):
    """(python-backend report, vector-backend report, took the fast path)."""
    oracle = ValidationEngine(TOPOLOGY, backend="python")
    expected = oracle.validate_events(events, timestamp, INPUTS)
    engine, validator = vector_validator()
    fast = validator._pack_events(events, timestamp)
    got = engine.validate_events(events, timestamp, INPUTS)
    return expected, got, fast


def _first_rate_pair(rows):
    """Indices of one counter's rx row and tx row (rx sealed first)."""
    for index, row in enumerate(rows):
        if "in-rate" in row[1] and "out-rate" in rows[index + 1][1]:
            return index, index + 1
    raise AssertionError("fixture has no counter")


def assert_identical(expected, got):
    assert not compare_reports(expected, got)
    assert {k: v.to_dict() for k, v in expected.provenance.items()} == {
        k: v.to_dict() for k, v in got.provenance.items()
    }


def test_plain_epoch_takes_the_fast_path():
    expected, got, fast = _reports(seal(base_rows()))
    assert fast
    assert_identical(expected, got)


def test_repeated_path_falls_back():
    rows = base_rows()
    rx, _tx = _first_rate_pair(rows)
    newer = list(rows[rx])
    newer[2] = rows[rx][2] * 2.0 + 1.0
    newer[3] = (("sequence", 9), ("timestamp", TS - 0.5), ("window_s", 5.0))
    expected, got, fast = _reports(seal(rows + [newer]))
    assert not fast
    assert_identical(expected, got)


def test_non_canonical_meta_falls_back_only_on_a_counters_latest_event():
    rows = base_rows()
    rx, tx = _first_rate_pair(rows)
    rows[rx][3] = ()  # the tx half, sealed later, still carries the triple
    expected, got, fast = _reports(seal(rows))
    assert fast
    assert_identical(expected, got)

    rows[tx][3] = (("timestamp", TS - 1000.0),)  # stale, and not the triple
    expected, got, fast = _reports(seal(rows))
    assert not fast
    assert_identical(expected, got)
    assert any(f.code == "STALE_READING" for f in got.hardened.findings)


def test_unparseable_path_falls_back_and_raises_like_the_fold():
    events = seal(base_rows() + [["r", "/not/a/signal", 1.0, ()]])
    engine, validator = vector_validator()
    assert not validator._pack_events(events, TS)
    for backend in ("python", "vector"):
        engine = ValidationEngine(TOPOLOGY, backend=backend)
        with pytest.raises(PathError):
            engine.validate_events(events, TS, INPUTS)


# ----------------------------------------------------------------------
# One engine, both entry points; recovery after a raised epoch
# ----------------------------------------------------------------------


def _corrupted_rows():
    rows = base_rows()
    rx, tx = _first_rate_pair(rows)
    rows[rx][2] = "garbage"
    rows[tx][2] = rows[tx][2] * 3.0 + 17.0
    return rows


def test_interleaved_entry_points_do_not_leak_replay_identity():
    other = seal(_corrupted_rows(), timestamp=TS + 10.0)
    folded = EventFolder().fold(other, TS + 10.0)
    oracle = ValidationEngine(TOPOLOGY, backend="python")
    engine = ValidationEngine(
        TOPOLOGY, backend="vector"
    )
    for step in range(2):
        # Snapshot, a different epoch from events, the same snapshot
        # *object* again: the third must not replay the second.
        assert_identical(oracle.validate(SNAPSHOT, INPUTS), engine.validate(SNAPSHOT, INPUTS))
        assert_identical(
            oracle.validate(folded, INPUTS),
            engine.validate_events(other, TS + 10.0, INPUTS),
        )
        recomputed = engine.stats.entities_recomputed.get("collect", 0)
        assert_identical(oracle.validate(SNAPSHOT, INPUTS), engine.validate(SNAPSHOT, INPUTS))
        assert engine.stats.entities_recomputed["collect"] > recomputed, step


def test_reset_after_a_raised_epoch():
    rows = base_rows()
    _rx, tx = _first_rate_pair(rows)
    rows[tx][3] = (("sequence", 1), ("timestamp", "not a number"), ("window_s", 5.0))
    poisoned = seal(rows)
    clean = seal(base_rows())
    oracle = ValidationEngine(TOPOLOGY, backend="python")
    engine = ValidationEngine(
        TOPOLOGY, backend="vector"
    )
    expected = oracle.validate_events(clean, TS, INPUTS)
    assert_identical(expected, engine.validate_events(clean, TS, INPUTS))
    with pytest.raises(TypeError):
        oracle.validate_events(poisoned, TS, INPUTS)
    with pytest.raises(TypeError):
        engine.validate_events(poisoned, TS, INPUTS)
    validator = next(iter(engine._validators.values()))
    assert not validator._primed
    reused = engine.stats.total_entities_reused
    assert_identical(expected, engine.validate_events(clean, TS, INPUTS))
    # Primed from scratch: only the collect stage's cleared rows count
    # as reused on a priming epoch.
    assert engine.stats.total_entities_reused - reused == (
        validator._pack_total - validator._pack_recomputed
    )


def test_which_crash_surfaces_follows_seal_order_not_slot_order():
    """Two counters that each crash their serial unit, differently: the
    fold's snapshot meets them in seal order, so must the event packer,
    whose rows are in slot order."""
    rows = base_rows()
    _engine, validator = vector_validator()
    slot_of = validator._model.counter_slot

    def slot(index):
        parsed = SignalPath.parse(rows[index][1])
        return slot_of[(parsed.node, parsed.peer)]

    tx_rows = [i for i, row in enumerate(rows) if "out-rate" in row[1]]
    early, late = next(
        (a, b) for a in tx_rows for b in tx_rows if a < b and slot(a) > slot(b)
    )
    rows[early][3] = (("sequence", 1), ("timestamp", "soon"), ("window_s", 5.0))  # TypeError
    rows[late][2] = 10**400  # OverflowError
    events = seal(rows)
    assert run_pack(lambda: validator._pack(EventFolder().fold(events, TS))) is TypeError
    assert run_pack(lambda: validator._pack_events(events, TS)) is TypeError


# ----------------------------------------------------------------------
# Memory set by the topology, not by what a router sends
# ----------------------------------------------------------------------


def test_path_index_is_bounded_under_a_flood_of_junk_paths():
    engine, validator = vector_validator()
    index = validator._model.path_index
    bound = (1 + index.OUTSIDE_FACTOR) * index.size
    clean = base_rows()
    router = clean[0][0]
    oracle = ValidationEngine(TOPOLOGY, backend="python")
    expected = engine.validate_events(seal(clean), TS, INPUTS)
    sent = 0
    for epoch in range(10):
        junk = [
            [router, SignalPath(SignalKind.DRAIN, f"ghost-{epoch}-{i}").render(), False, ()]
            for i in range(index.size)
        ]
        sent += len(junk)
        events = seal(clean + junk)
        got = engine.validate_events(events, TS, INPUTS)
        assert len(index) <= bound
        assert_identical(expected, got)
        if epoch in (0, 9):  # before and after the index stops remembering
            assert_identical(oracle.validate_events(events, TS, INPUTS), got)
    assert sent == 10 * index.size
    assert len(index._outside) == index.OUTSIDE_FACTOR * index.size  # quota full
    # Paths past the bound are decoded each time, not dropped.
    assert validator._pack_events(events, TS)
    assert validator._pack_total == len(clean_entities()) + index.size


def clean_entities():
    """Entity keys the clean epoch reports, probes aside."""
    snapshot = SNAPSHOT
    return (
        list(snapshot.counters) + list(snapshot.link_status) + list(snapshot.drains)
        + list(snapshot.drain_reasons) + list(snapshot.link_drains) + list(snapshot.drops)
    )  # fmt: skip
