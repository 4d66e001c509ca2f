"""Every proper prefix of every file format is rejected as MalformedFile."""

import random

import pytest

from helpers import spaced_set
from dlfvault.dlog_codec import KeyFile
from dlfvault.errors import MalformedFile
from dlfvault.field import params_from_file, params_to_file
from dlfvault.identity import encode_identity, identity_from_bytes, identity_to_bytes
from dlfvault.vault import Scheme, Vault, lock


@pytest.fixture(scope="module")
def files(params256):
    """name -> (file bytes, loader) for each format, every scheme and every key kind."""
    out = {"DLFP": (params_to_file(params256), params_from_file)}
    for scheme in Scheme:
        rng = random.Random(300 + scheme)
        A = spaced_set(rng, params256.p, 6, delta=1)
        vault, key_file = lock(b"cut", A, scheme, params256, chaff_count=2, delta=1,
                               seed=310 + scheme, seg_bits=64)
        out[f"DLFV-{scheme.name}"] = (vault.to_bytes(), Vault.from_bytes)
        # kinds none, single, single with a frame length, and parity
        out[f"DLFK-{scheme.name}"] = (key_file.to_bytes(), KeyFile.from_bytes)
    out["DLFI"] = (identity_to_bytes(encode_identity(0x1234, 0x99)), identity_from_bytes)
    return out


@pytest.mark.parametrize("name", [
    "DLFP",
    "DLFV-CLASSICAL", "DLFV-PER_SEGMENT", "DLFV-WHOLE_MESSAGE", "DLFV-PARITY",
    "DLFK-CLASSICAL", "DLFK-PER_SEGMENT", "DLFK-WHOLE_MESSAGE", "DLFK-PARITY",
    "DLFI",
])
def test_every_proper_prefix_is_malformed(files, name):
    blob, load = files[name]
    load(blob)
    for cut in range(len(blob)):
        with pytest.raises(MalformedFile):
            load(blob[:cut])
