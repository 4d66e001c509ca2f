"""The README's python examples run as written, against the public API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_the_quickstart_and_identity_examples():
    assert len(BLOCKS) == 2
    assert "lock(" in BLOCKS[0] and "identity_vault_roundtrip(" in BLOCKS[1]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(block):
    exec(compile(block, str(README), "exec"), {})
