"""Every proper prefix of every file format is rejected as MalformedFile,
and every mutated file is read, and a read vault or key opened, or
refused with a FuzzyVaultError."""

import random

import pytest

from helpers import spaced_set
from dlfvault.dlog_codec import KeyFile
from dlfvault.errors import FuzzyVaultError, MalformedFile
from dlfvault.field import params_from_file, params_to_file
from dlfvault.identity import (
    decode_identity,
    encode_identity,
    identity_from_bytes,
    identity_to_bytes,
)
from dlfvault.vault import Scheme, Vault, lock, unlock


@pytest.fixture(scope="module")
def locked(params256):
    """scheme -> (locking set, vault, key file)."""
    out = {}
    for scheme in Scheme:
        A = spaced_set(random.Random(300 + scheme), params256.p, 6, delta=1)
        out[scheme] = (A, *lock(b"cut", A, scheme, params256, chaff_count=2, delta=1,
                                seed=310 + scheme, seg_bits=64))
    return out


@pytest.fixture(scope="module")
def files(params256, locked):
    """name -> (file bytes, loader) for each format, every scheme and every key kind."""
    out = {"DLFP": (params_to_file(params256), params_from_file)}
    for scheme, (_, vault, key_file) in locked.items():
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


def mutate(rng, blob):
    """blob with 1-3 bytes overwritten, deleted or inserted at one offset."""
    at, size = rng.randrange(len(blob)), rng.randint(1, 3)
    how = rng.choice(["overwrite", "delete", "insert"])
    new = rng.randbytes(size) if how != "delete" else b""
    return blob[:at] + new + blob[at + size * (how != "insert"):], f"{how} {size} at {at}"


def test_mutated_files_are_read_and_opened_or_refused(files, locked):
    """Each mutated file is read or raises a FuzzyVaultError. A vault that
    is read is opened with its locking set and key, a key that is read
    opens its vault, each with a small budget, and either returns or
    raises a FuzzyVaultError."""
    rng = random.Random(330)
    for name, (blob, load) in files.items():
        kind, _, scheme = name.partition("-")
        if scheme:
            A, vault, key_file = locked[Scheme[scheme]]
        for _ in range(400):
            data, how = mutate(rng, blob)
            try:
                read = load(data)
                if kind == "DLFV":
                    unlock(read, A, key_file, max_subsets=4)
                elif kind == "DLFK":
                    unlock(vault, A, read, max_subsets=4)
                elif kind == "DLFI":
                    decode_identity(read[0])
            except FuzzyVaultError:
                pass
            except Exception as exc:
                pytest.fail(f"{name}, {how}: {exc!r}")
