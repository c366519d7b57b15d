import pytest

from lfme_lab import train


@pytest.fixture(autouse=True)
def empty_expert_memo():
    """Each test starts with no recorded expert trajectory, so a test that counts
    forwards, backwards or optimizer steps sees the same runs in any order."""
    train._expert_memo.clear()
    yield
    train._expert_memo.clear()
