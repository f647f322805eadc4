import math
import tracemalloc

import pytest

from ripm.report import R2_RECORD, TR_RECORD, IterLog


def _tr_row(j, **fields):
    """A `TR_RECORD` row as a dict: each field from ``fields``, or else False for
    accepted, None for exit and j + 0.5 for a float."""
    row = {key: fields.get(key, j + 0.5) for key, _ in TR_RECORD}
    row.update(j=j, accepted=fields.get("accepted", False), exit=fields.get("exit"))
    return row


def test_every_field_kind_comes_back_exactly():
    rows = [_tr_row(0, rho=math.nan, obj_after=-math.inf, s_inf=-0.0, exit="tol"),
            _tr_row(7, rho=math.inf, accepted=True, mu=5e-324, cap_inf=1.0 / 3.0),
            _tr_row(2**40, delta_after=-1e308)]
    log = IterLog(TR_RECORD)
    for row in rows:
        log.append(*row.values())
    assert len(log) == 3 and log.keys == tuple(rows[0])
    # by iteration, by index and by negative index
    views = [*log, log[0], log[1], log[2], log[-3], log[-2], log[-1]]
    for got, want in zip(views, rows * 3, strict=True):
        assert list(got) == list(want)
        for key, value in want.items():
            assert type(got[key]) is type(value), key
            if isinstance(value, float):
                # the bits: NaN is itself, and -0.0 keeps its sign
                assert math.isnan(got[key]) if math.isnan(value) else got[key] == value
                assert math.copysign(1.0, got[key]) == math.copysign(1.0, value)
            else:
                assert got[key] == value
    assert log[0]["exit"] == "tol" and log[1]["exit"] is None
    assert log[1]["accepted"] is True and log[0]["accepted"] is False
    with pytest.raises(IndexError):
        log[3]


def test_rows_are_appended_whole():
    log = IterLog(R2_RECORD)
    assert len(log) == 0 and not log and list(log) == []
    log.append(1.0, 0.5, 2.0, True)
    with pytest.raises(ValueError):
        log.append(1.0, 0.5, 2.0)
    assert log and list(log) == [{"sigma": 1.0, "rho": 0.5, "xi": 2.0, "accepted": True}]


def test_a_tr_row_costs_at_most_200_bytes():
    # a dict per row took about 800 bytes
    rows = 10_000
    row = tuple(_tr_row(0, exit="tol").values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = IterLog(TR_RECORD)
        for _ in range(rows):
            log.append(*row)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == rows
    assert held / rows <= 200


def test_a_failed_append_changes_nothing():
    log = IterLog(TR_RECORD)
    good = _tr_row(0, exit="tol")
    log.append(*good.values())
    with pytest.raises(ValueError):  # a flag value that is not in the schema
        log.append(*_tr_row(1, exit="bad").values())
    assert len(log) == len(list(log)) == 1 and log[-1] == good
    with pytest.raises(TypeError):  # a str in a float field
        log.append(*_tr_row(2, rho="0.5").values())
    assert len(log) == len(list(log)) == 1 and log[-1] == good
