"""The part runner of ``convert``, ``reflect`` and ``simulate``: how work is
cut into parts, and how each forked part's one message reaches the
process that forked it."""

import os
import time

import pytest
from hypothesis import given, strategies as st

import helpers
from suascal.errors import SuascalError
from suascal.parts import part_runs, run_parts


@given(workers=st.integers(0, 12), units=st.integers(0, 200),
       fork=st.booleans())
def test_part_runs_cut_the_units_evenly_in_order(workers, units, fork):
    with pytest.MonkeyPatch.context() as patch:
        if not fork:
            patch.delattr(os, "fork")
        runs = part_runs(workers, units)
    assert len(runs) == (max(min(workers, units), 1) if fork else 1)
    assert [i for run in runs for i in run] == list(range(units))
    assert all(run.step == 1 for run in runs)
    lengths = [len(run) for run in runs]
    assert lengths == sorted(lengths)
    assert lengths[-1] - lengths[0] <= 1


def squares(run):
    """A part's work: the squares of its run, and the process it ran in."""
    return [i * i for i in run], os.getpid()


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_results_reach_take_in_part_order(parts):
    runs = part_runs(parts, 10)
    taken = []
    run_parts("test part", runs, squares, taken.append)
    assert [result for result, _ in taken] == [squares(run)[0]
                                                for run in runs]
    pids = [pid for _, pid in taken]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == parts
    helpers.no_child_left()


def test_one_part_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    taken = []
    run_parts("test part", [range(3)], squares, taken.append)
    assert taken == [squares(range(3))]


@pytest.mark.parametrize("parts", [3, 4])
def test_first_error_in_part_order_is_raised(parts):
    runs = part_runs(parts, 12)

    def work(run):
        part = runs.index(run) + 1
        if part in (2, 3):
            if part == 2:
                # Part 3's error is sent first.
                time.sleep(0.2)
            raise ValueError(f"part {part}")
        return part

    taken = []
    with pytest.raises(ValueError, match="^part 2$"):
        run_parts("test part", runs, work, taken.append)
    assert taken == [1]
    helpers.no_child_left()


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_child_gone_without_its_result(parts):
    runs = part_runs(parts, 12)

    def work(run):
        if run is not runs[0]:
            os._exit(0)
        return "first"

    taken = []
    with pytest.raises(SuascalError) as raised:
        run_parts("test part", runs, work, taken.append)
    assert str(raised.value) == (f"test part 2 of {parts} ended without "
                                 "sending its result")
    assert taken == ["first"]
    helpers.no_child_left()


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_interrupt_in_part_one_kills_every_child(parts):
    runs = part_runs(parts, 12)

    def work(run):
        if run is runs[0]:
            raise KeyboardInterrupt
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_parts("test part", runs, work, pytest.fail)
    assert time.monotonic() - started < 30
    helpers.no_child_left()
