"""Suite-wide fixtures for ``tests`` and ``perfbench/tests``.

Every ``ZSIG_*`` variable of the calling shell is removed for the session, so
an exported knob (``ZSIG_FORMAT=json``) or a misspelt one (which makes every
command exit 2) cannot change what a test sees, in process or in a child
process.  A test that sets a knob does so itself, with ``monkeypatch.setenv``
or an explicit ``env=``.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _no_caller_zsig_environment():
    saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("ZSIG_")}
    yield
    os.environ.update(saved)
