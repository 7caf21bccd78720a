"""Pytest fixtures (re-exported from tests.helpers)."""

from tests.helpers import (  # noqa: F401
    bonsai_config,
    bonsai_controller,
    bonsai_layout,
    keys,
    sgx_config,
    sgx_controller,
    sgx_layout,
)

from hypothesis import settings

#: A larger, randomized budget for the batch window fuzz test
#: (``tests/test_batch_fuzz.py``); load it with
#: ``--hypothesis-profile window-fuzz``.
settings.register_profile(
    "window-fuzz", max_examples=3000, deadline=None, database=None
)
