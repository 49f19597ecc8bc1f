"""The fork helper both two-core stages share, on toy shares."""

import os

import pytest

from edhi import _fork
from helpers import no_child_left


def test_shares_come_back_in_order(forks):
    assert _fork.run_split(lambda: [1], lambda: {"two": 2}) == ([1], {"two": 2})
    no_child_left()
    assert len(forks) == 1


def test_failed_child_share_runs_again_here(forks):
    parent = os.getpid()

    def second():
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return "here"

    assert _fork.run_split(lambda: "first", second) == ("first", "here")
    no_child_left()
    assert len(forks) == 1


def test_fault_reading_a_sound_child_is_raised(forks):
    # the child exited 0, so the fault is this process's and not hidden by a
    # second run of the share
    def receive(pipe, first):
        raise ValueError(f"cannot read after {first}")

    with pytest.raises(ValueError, match="cannot read after 1"):
        _fork.run_split(lambda: 1, lambda: 2, receive=receive)
    no_child_left()
    assert len(forks) == 1
