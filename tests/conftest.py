import os
from pathlib import Path

import pytest

from dlfvault.field import gen_params

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def child_interpreters_import_src():
    """pyproject's pythonpath puts src on this interpreter's sys.path only;
    tests that start `python -m dlfvault.cli` need it in PYTHONPATH too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
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
