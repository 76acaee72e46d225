"""Oracle hardening: mutated schedules must be *rejected* by the verifier.

``verify_schedule`` is the independent checker every driver and test
trusts; these tests make sure it actually catches corrupted schedules —
a verifier that accepts everything would silently green-light both
drivers.  Each mutation targets one check and asserts the specific
:class:`VerificationError` message.
"""

import dataclasses

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.core.errors import VerificationError
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine


@pytest.fixture(scope="module")
def good():
    """A verified schedule of the §2 motivating loop (T=4).

    The mutations below target the specific feasible point HiGHS
    returns; name the backend and disable the heuristic warm start so
    the fixture stays pinned to that solution rather than the SAT
    backend's or the modulo scheduler's.
    """
    result = schedule_loop(
        motivating_example(), motivating_machine(), backend="highs",
        warmstart=False,
    )
    assert result.schedule is not None
    verify_schedule(result.schedule)
    return result.schedule


def _with(schedule, **changes):
    return dataclasses.replace(schedule, **changes)


class TestStartMutations:
    def test_shift_start_breaks_capacity(self, good):
        starts = list(good.starts)
        starts[0] += 1  # load now collides with the other load's slot
        with pytest.raises(VerificationError, match="FU type 'MEM'"):
            verify_schedule(_with(good, starts=starts))

    def test_shift_start_breaks_mapping(self, good):
        starts = list(good.starts)
        starts[3] += 1  # fadd lands on a slot its own FP copy already uses
        with pytest.raises(
            VerificationError, match="structural hazard on FP#0"
        ):
            verify_schedule(_with(good, starts=starts))

    def test_shift_start_breaks_dependence(self, good):
        starts = list(good.starts)
        starts[5] = 0  # the store now precedes the fadd chain feeding it
        with pytest.raises(
            VerificationError, match=r"dependence i4->i5 .* violated"
        ):
            verify_schedule(_with(good, starts=starts))

    def test_negative_start_rejected(self, good):
        starts = list(good.starts)
        starts[2] = -1
        with pytest.raises(
            VerificationError, match="invalid start time"
        ):
            verify_schedule(_with(good, starts=starts))

    def test_wrong_start_count_rejected(self, good):
        with pytest.raises(
            VerificationError, match="start times for"
        ):
            verify_schedule(_with(good, starts=list(good.starts[:-1])))


class TestColorMutations:
    def test_swap_two_colors_rejected(self, good):
        # i2 (FP#0) and i4 (FP#1) overlap third parties once exchanged.
        colors = dict(good.colors)
        colors[2], colors[4] = colors[4], colors[2]
        with pytest.raises(
            VerificationError, match="structural hazard on FP#"
        ):
            verify_schedule(_with(good, colors=colors))

    def test_out_of_range_color_rejected(self, good):
        colors = dict(good.colors)
        colors[2] = 99
        with pytest.raises(
            VerificationError, match=r"mapped to FP#99 but only"
        ):
            verify_schedule(_with(good, colors=colors))

    def test_missing_color_rejected(self, good):
        colors = dict(good.colors)
        del colors[2]
        with pytest.raises(
            VerificationError, match="no FU assignment for: i2"
        ):
            verify_schedule(_with(good, colors=colors))

    def test_missing_color_ok_when_mapping_unchecked(self, good):
        colors = dict(good.colors)
        del colors[2]
        verify_schedule(_with(good, colors=colors), check_mapping=False)


class TestPeriodMutations:
    def test_shrunk_period_rejected(self, good):
        # T=3 was proven infeasible by the driver; relabeling the same
        # starts with T=3 must therefore fail verification.  Which FP
        # check trips first (type capacity vs per-copy hazard) depends
        # on the particular feasible point the solver returned.
        with pytest.raises(VerificationError, match="FP"):
            verify_schedule(_with(good, t_period=good.t_period - 1))

    def test_grown_period_can_break_dependences(self, good):
        # Growing T stretches carried-dependence slack the other way;
        # the motivating loop's recurrence keeps this schedule valid at
        # T+1, so assert the verifier (not an exception) decides.
        mutated = _with(good, t_period=good.t_period + 1)
        try:
            verify_schedule(mutated)
        except VerificationError as exc:
            assert "violated" in str(exc) or "needs" in str(exc)
