"""Suite-wide test setup.

Each test starts with the cyclic garbage collector freshly run. Without this,
when a full collection fires inside a test depends on how many objects the
collected modules and the earlier tests allocated, so a timing test can gain
or lose a 15-30 ms pause as unrelated test files grow. After a collection the
collector's generation counts start from zero, and a test's pauses depend
only on what the test itself allocates.
"""

import gc

import pytest


@pytest.fixture(autouse=True)
def _fresh_collector():
    gc.collect()
    yield
