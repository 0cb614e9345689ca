import pytest

from lrpath import trainer


@pytest.fixture(autouse=True)
def empty_phase_store():
    """Each test starts with an empty phase store, so that no test reuses a
    phase that an earlier test trained and its outcome does not depend on
    the order in which tests run."""
    trainer._phase_store.clear()
