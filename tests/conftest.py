import pytest

from lfme_lab import models as mm
from lfme_lab import train


@pytest.fixture(autouse=True)
def empty_expert_memo():
    """Each test starts with no recorded expert trajectory, so a test that counts
    forwards, backwards or optimizer steps sees the same runs in any order."""
    train._expert_memo.clear()
    yield
    train._expert_memo.clear()


@pytest.fixture
def expert_builds(monkeypatch):
    """How many runs so far trained their experts live."""
    calls, stack_models = [], mm.stack_models

    def counting_stack_models(models):
        calls.append(len(models))
        return stack_models(models)

    monkeypatch.setattr(mm, "stack_models", counting_stack_models)
    return calls
