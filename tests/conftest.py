import gc
import os

import pytest

from kbread.kb import load_kb_dir

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def kb_dir():
    return os.path.join(FIXTURES, "kb")


@pytest.fixture(scope="session")
def kb(kb_dir):
    return load_kb_dir(kb_dir)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fails a test that returns with the cyclic garbage collector off, and
    turns it back on, so no test runs the rest of the session without it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector off")
