import os
from pathlib import Path

import pytest

import dlfvault
from dlfvault.field import gen_params

# the directory holding the dlfvault these tests import: src in a checkout,
# site-packages once installed
PACKAGE_ROOT = str(Path(dlfvault.__file__).resolve().parent.parent)


@pytest.fixture(scope="session", autouse=True)
def child_interpreters_import_this_dlfvault():
    """Tests that start `python -m dlfvault.cli` run the dlfvault this
    interpreter imported: pyproject's pythonpath reaches this interpreter's
    sys.path only, and an installed copy must not lose to src."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def params64():
    return gen_params(64, seed=1001)


@pytest.fixture(scope="session")
def params128():
    return gen_params(128, seed=1002)


@pytest.fixture(scope="session")
def params256():
    return gen_params(256, seed=1003)


@pytest.fixture(scope="session")
def params32():
    return gen_params(32, seed=1004)
