import random

import pytest

from dlfvault import cli
from dlfvault._wire import pack_lpint
from dlfvault.field import gen_params, params_from_file
from dlfvault.vault import Scheme, lock
from helpers import keys_gen_key_never_draws, spaced_set, with_framed_len


def write_set(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


@pytest.fixture()
def field16(tmp_path):
    """A 16-bit parameters file plus its parsed form."""
    out = tmp_path / "field.dlfp"
    rc = cli.main(["params", "--bits", "16", "--seed", "900", "--out", str(out)])
    assert rc == 0
    return out, params_from_file(out.read_bytes())


def test_params_output_and_reproducibility(tmp_path, capsys):
    out1 = tmp_path / "a.dlfp"
    out2 = tmp_path / "b.dlfp"
    assert cli.main(["params", "--bits", "20", "--seed", "77", "--out", str(out1)]) == 0
    printed = capsys.readouterr().out
    assert "seed=77" in printed
    assert "bits=20" in printed
    assert cli.main(["params", "--bits", "20", "--seed", "77", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    field = params_from_file(out1.read_bytes())
    assert field.p_bits == 20


def test_params_rejects_small_bits(tmp_path):
    rc = cli.main(["params", "--bits", "7", "--seed", "1",
                   "--out", str(tmp_path / "x.dlfp")])
    assert rc == cli.EXIT_USAGE


def test_params_bits_above_the_bound_is_a_usage_error(tmp_path):
    rc = cli.main(["params", "--bits", "4097", "--seed", "1",
                   "--out", str(tmp_path / "x.dlfp")])
    assert rc == cli.EXIT_USAGE
    assert not (tmp_path / "x.dlfp").exists()


def test_lock_unlock_pipeline(tmp_path, capsys, field16):
    params_path, field = field16
    rng = random.Random(901)
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"pipeline message")
    n = (8 + 16 + 16)  # framed bytes at seg 8 -> one coeff per byte
    A = spaced_set(rng, field.p, n + 4, delta=2, jitter=10)
    write_set(tmp_path / "set.txt", A)
    vault_path = tmp_path / "v.dlfv"
    key_path = tmp_path / "k.dlfk"
    rc = cli.main(["lock", "--scheme", "per-segment", "--params", str(params_path),
                   "--message", str(msg), "--set", str(tmp_path / "set.txt"),
                   "--chaff", "30", "--delta", "2", "--seg-bits", "8",
                   "--seed", "902", "--vault-out", str(vault_path),
                   "--key-out", str(key_path)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "seed=902" in printed
    assert f"coeffs={n}" in printed

    write_set(tmp_path / "probe.txt", [a + rng.randint(-2, 2) for a in A])
    out = tmp_path / "out.bin"
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set",
                   str(tmp_path / "probe.txt"), "--key", str(key_path),
                   "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == b"pipeline message"


def test_lock_deterministic_files(tmp_path, field16):
    params_path, field = field16
    rng = random.Random(903)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"fixed")
    A = spaced_set(rng, field.p, 32, delta=0, jitter=10)
    write_set(tmp_path / "set.txt", A)
    blobs = []
    for tag in ("1", "2"):
        vp = tmp_path / f"v{tag}.dlfv"
        kp = tmp_path / f"k{tag}.dlfk"
        rc = cli.main(["lock", "--scheme", "parity", "--params", str(params_path),
                       "--message", str(msg), "--set", str(tmp_path / "set.txt"),
                       "--chaff", "12", "--seg-bits", "8", "--seed", "904",
                       "--vault-out", str(vp), "--key-out", str(kp)])
        assert rc == 0
        blobs.append((vp.read_bytes(), kp.read_bytes()))
    assert blobs[0] == blobs[1]


def test_unlock_classical_without_key(tmp_path, field16):
    params_path, field = field16
    rng = random.Random(905)
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"")
    A = spaced_set(rng, field.p, 24, delta=0, jitter=10)
    write_set(tmp_path / "set.txt", A)
    rc = cli.main(["lock", "--scheme", "classical", "--params", str(params_path),
                   "--message", str(msg), "--set", str(tmp_path / "set.txt"),
                   "--chaff", "6", "--seg-bits", "8", "--seed", "906",
                   "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == 0
    rc = cli.main(["unlock", "--vault", str(tmp_path / "v.dlfv"),
                   "--set", str(tmp_path / "set.txt"),
                   "--out", str(tmp_path / "out.bin")])
    assert rc == 0
    assert (tmp_path / "out.bin").read_bytes() == b""


def test_exit_code_locking_set_too_small(tmp_path, field16):
    params_path, _ = field16
    (tmp_path / "m.bin").write_bytes(b"hello")
    write_set(tmp_path / "set.txt", [100, 200, 300])
    rc = cli.main(["lock", "--scheme", "classical", "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--seed", "1", "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == cli.EXIT_LOCKING_SET


def test_exit_code_message_too_large(tmp_path, field16):
    params_path, field = field16
    rng = random.Random(907)
    (tmp_path / "m.bin").write_bytes(b"anything")
    write_set(tmp_path / "set.txt", spaced_set(rng, field.p, 40, 0, jitter=10))
    rc = cli.main(["lock", "--scheme", "whole-message", "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--seed", "1", "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == cli.EXIT_TOO_LARGE


def test_exit_code_chaff_exhausted(tmp_path, field16):
    params_path, field = field16
    rng = random.Random(908)
    (tmp_path / "m.bin").write_bytes(b"")
    write_set(tmp_path / "set.txt", spaced_set(rng, field.p, 24, 3, jitter=8))
    rc = cli.main(["lock", "--scheme", "classical", "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--delta", "3", "--chaff", str(field.p), "--seed", "1",
                   "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == cli.EXIT_CHAFF


def _locked_vault(tmp_path, field16, seed, scheme="per-segment"):
    params_path, field = field16
    rng = random.Random(seed + 5000)
    (tmp_path / "m.bin").write_bytes(b"")
    A = spaced_set(rng, field.p, 24, delta=0, jitter=10)
    write_set(tmp_path / "set.txt", A)
    rc = cli.main(["lock", "--scheme", scheme, "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--seed", str(seed), "--vault-out", str(tmp_path / f"v{seed}.dlfv"),
                   "--key-out", str(tmp_path / f"k{seed}.dlfk")])
    assert rc == 0
    return A, tmp_path / f"v{seed}.dlfv", tmp_path / f"k{seed}.dlfk"


def test_exit_code_not_enough_matches(tmp_path, field16):
    _, field = field16
    A, vault_path, key_path = _locked_vault(tmp_path, field16, 910)
    write_set(tmp_path / "far.txt", [a + 40 for a in A])
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set",
                   str(tmp_path / "far.txt"), "--key", str(key_path),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_NO_MATCHES


def test_exit_code_decode_failed(tmp_path, field16):
    A, vault_path, _ = _locked_vault(tmp_path, field16, 911)
    _, _, other_key = _locked_vault(tmp_path, field16, 912)
    write_set(tmp_path / "probe.txt", A)
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set",
                   str(tmp_path / "probe.txt"), "--key", str(other_key),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_DECODE


def test_exit_code_key_kind_mismatch(tmp_path, field16):
    A, vault_path, _ = _locked_vault(tmp_path, field16, 913, scheme="parity")
    _, _, single_key = _locked_vault(tmp_path, field16, 914, scheme="per-segment")
    write_set(tmp_path / "probe.txt", A)
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set",
                   str(tmp_path / "probe.txt"), "--key", str(single_key),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_USAGE


def test_exit_code_io_error(tmp_path):
    rc = cli.main(["unlock", "--vault", str(tmp_path / "absent.dlfv"),
                   "--set", str(tmp_path / "absent.txt"),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_IO


def test_exit_code_malformed_vault(tmp_path):
    bad = tmp_path / "bad.dlfv"
    bad.write_bytes(b"this is not a vault")
    write_set(tmp_path / "set.txt", [1, 2, 3])
    rc = cli.main(["unlock", "--vault", str(bad), "--set", str(tmp_path / "set.txt"),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_USAGE


def test_exit_code_bad_set_file(tmp_path, field16):
    params_path, _ = field16
    (tmp_path / "m.bin").write_bytes(b"")
    (tmp_path / "set.txt").write_text("12\nnot-a-number\n")
    rc = cli.main(["lock", "--scheme", "classical", "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--seed", "1", "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == cli.EXIT_USAGE


def test_exit_code_params_file_not_a_safe_prime(tmp_path, capsys):
    # 1021 is prime but (1021 - 1) / 2 = 510 is not, so it is no safe
    # prime; the field is otherwise wide enough for this lock to succeed
    params_path = tmp_path / "unsafe.dlfp"
    params_path.write_bytes(b"DLFP\x01" + pack_lpint(1021) + pack_lpint(10))
    (tmp_path / "m.bin").write_bytes(b"")
    write_set(tmp_path / "set.txt", range(1, 1000, 20))
    rc = cli.main(["lock", "--scheme", "classical", "--params", str(params_path),
                   "--message", str(tmp_path / "m.bin"),
                   "--set", str(tmp_path / "set.txt"), "--seg-bits", "8",
                   "--seed", "1", "--vault-out", str(tmp_path / "v.dlfv"),
                   "--key-out", str(tmp_path / "k.dlfk")])
    assert rc == cli.EXIT_USAGE
    assert "safe prime" in capsys.readouterr().err
    assert not (tmp_path / "v.dlfv").exists()


def test_set_file_accepts_hex_and_comments(tmp_path):
    f = tmp_path / "set.txt"
    f.write_text("# heading\n0x10\n32  # trailing note\n\n48\n")
    assert cli._read_set(str(f)) == [16, 32, 48]


def test_usage_errors(tmp_path):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["lock", "--scheme", "bogus"]) == cli.EXIT_USAGE
    assert cli.main(["attack"]) == cli.EXIT_USAGE
    rc = cli.main(["attack", "--vault", "x.dlfv", "--r", "10"])
    assert rc == cli.EXIT_USAGE


def test_identity_encode_decode_roundtrip(tmp_path, capsys):
    out = tmp_path / "id.dlfi"
    rc = cli.main(["identity", "encode", "--kappa", "0x1234", "--id", "0x99",
                   "--out", str(out)])
    assert rc == 0
    rc = cli.main(["identity", "decode", "--in", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Accept kappa=0x1234 id=0x99" in printed


def test_identity_decode_rejects_corruption(tmp_path, capsys):
    out = tmp_path / "id.dlfi"
    assert cli.main(["identity", "encode", "--kappa", "5", "--id", "6",
                     "--out", str(out)]) == 0
    data = bytearray(out.read_bytes())
    data[9] ^= 0x01  # inside the checksum coefficient
    out.write_bytes(bytes(data))
    rc = cli.main(["identity", "decode", "--in", str(out)])
    assert rc == cli.EXIT_REJECT
    assert "Reject" in capsys.readouterr().out


def test_identity_decode_rejects_a_foreign_reduction(tmp_path):
    out = tmp_path / "id.dlfi"
    assert cli.main(["identity", "encode", "--kappa", "5", "--id", "6",
                     "--out", str(out)]) == 0
    data = out.read_bytes()
    out.write_bytes(data[:5] + (0xFFFFFFFF).to_bytes(4, "big") + data[9:])
    assert cli.main(["identity", "decode", "--in", str(out)]) == cli.EXIT_USAGE


def test_identity_encode_range_error(tmp_path):
    rc = cli.main(["identity", "encode", "--kappa", "5", "--id",
                   str(1 << 64), "--out", str(tmp_path / "id.dlfi")])
    assert rc == cli.EXIT_USAGE


def test_attack_synthetic_single(capsys):
    rc = cli.main(["attack", "--r", "10", "--t", "5", "--n", "3",
                   "--trials", "2000", "--seed", "1"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "seed=1" in printed
    assert "paper_eq30=8.0" in printed
    assert "exact=1/12" in printed
    assert "note=" in printed


def test_attack_sweep_csv_file(tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    rc = cli.main(["attack", "--r", "10,12", "--t", "5", "--n", "2,3",
                   "--trials", "500", "--seed", "2", "--report-out", str(report)])
    assert rc == 0
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "r,t,n,paper_eq30,exact,empirical,stderr,trials"
    assert len(lines) == 5


def test_attack_csv_flag_single_point(capsys):
    rc = cli.main(["attack", "--r", "10", "--t", "5", "--n", "3",
                   "--trials", "200", "--seed", "3", "--csv"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "r,t,n,paper_eq30,exact,empirical,stderr,trials" in printed


def test_attack_vault_mode(tmp_path, capsys, field16):
    A, vault_path, key_path = _locked_vault(tmp_path, field16, 915)
    rc = cli.main(["attack", "--vault", str(vault_path), "--key", str(key_path),
                   "--max-subsets", "100000"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "succeeded=true" in printed
    rc = cli.main(["attack", "--vault", str(vault_path), "--max-subsets", "2000"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "succeeded=false" in printed


def test_attack_vault_mode_rejects_a_key_of_the_wrong_kind(tmp_path, capsys, field16):
    _, vault_path, _ = _locked_vault(tmp_path, field16, 916)
    _, _, parity_key = _locked_vault(tmp_path, field16, 917, scheme="parity")
    rc = cli.main(["attack", "--vault", str(vault_path), "--key", str(parity_key),
                   "--max-subsets", "200"])
    assert rc == cli.EXIT_USAGE
    assert "succeeded" not in capsys.readouterr().out


def test_attack_invalid_combo():
    rc = cli.main(["attack", "--r", "10", "--t", "10", "--n", "3",
                   "--trials", "100", "--seed", "1"])
    assert rc == cli.EXIT_USAGE


def test_params_bits_below_8_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(["params", "--bits", "7", "--seed", "1", "--out", str(tmp_path / "x.dlfp")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --bits must be at least 8\n"


def test_attack_mode_conflict_is_a_usage_error(capsys):
    rc = cli.main(["attack", "--vault", "v", "--r", "10"])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --vault and --r/--t/--n are mutually exclusive\n"


def test_scheme_choices_come_from_the_scheme_enum():
    assert cli._SCHEMES == {"classical": Scheme.CLASSICAL, "per-segment": Scheme.PER_SEGMENT,
                            "whole-message": Scheme.WHOLE_MESSAGE, "parity": Scheme.PARITY}


def test_negative_max_subsets_is_a_usage_error(tmp_path, capsys, field16):
    A, vault_path, key_path = _locked_vault(tmp_path, field16, 918)
    write_set(tmp_path / "probe.txt", A)
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set", str(tmp_path / "probe.txt"),
                   "--key", str(key_path), "--max-subsets", "-1",
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_USAGE
    rc = cli.main(["attack", "--vault", str(vault_path), "--max-subsets", "-1"])
    assert rc == cli.EXIT_USAGE
    assert "succeeded" not in capsys.readouterr().out


@pytest.mark.parametrize("framed_len", [0, 3, 60000])
def test_whole_message_key_with_a_bad_frame_length_is_a_usage_error(tmp_path, capsys,
                                                                     params256, framed_len):
    rng = random.Random(919)
    A = spaced_set(rng, params256.p, 18, delta=0)
    vault, key_file = lock(b"cli", A, Scheme.WHOLE_MESSAGE, params256, chaff_count=2,
                           seed=920, seg_bits=16)
    (tmp_path / "v.dlfv").write_bytes(vault.to_bytes())
    (tmp_path / "k.dlfk").write_bytes(with_framed_len(key_file.to_bytes(), framed_len))
    write_set(tmp_path / "probe.txt", A)
    rc = cli.main(["unlock", "--vault", str(tmp_path / "v.dlfv"),
                   "--set", str(tmp_path / "probe.txt"), "--key", str(tmp_path / "k.dlfk"),
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_USAGE
    rc = cli.main(["attack", "--vault", str(tmp_path / "v.dlfv"),
                   "--key", str(tmp_path / "k.dlfk"), "--max-subsets", "200"])
    assert rc == cli.EXIT_USAGE
    assert "succeeded" not in capsys.readouterr().out


def test_negative_max_subsets_error_names_the_option(tmp_path, capsys, field16):
    A, vault_path, key_path = _locked_vault(tmp_path, field16, 921)
    write_set(tmp_path / "probe.txt", A)
    capsys.readouterr()
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set", str(tmp_path / "probe.txt"),
                   "--key", str(key_path), "--max-subsets", "-1",
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_subsets" in err
    assert "islice" not in err


@pytest.mark.parametrize("scheme", [Scheme.PER_SEGMENT, Scheme.WHOLE_MESSAGE, Scheme.PARITY],
                         ids=lambda scheme: scheme.name.lower())
def test_key_exponents_gen_key_never_draws_are_a_usage_error(tmp_path, capsys, params256,
                                                              scheme):
    A = spaced_set(random.Random(922), params256.p, 10, delta=0)
    vault, key_file = lock(b"cli", A, scheme, params256, chaff_count=2, seed=923, seg_bits=32)
    (tmp_path / "v.dlfv").write_bytes(vault.to_bytes())
    write_set(tmp_path / "probe.txt", A)
    for bad in keys_gen_key_never_draws(key_file, params256.p):
        (tmp_path / "k.dlfk").write_bytes(bad.to_bytes())
        rc = cli.main(["unlock", "--vault", str(tmp_path / "v.dlfv"),
                       "--set", str(tmp_path / "probe.txt"), "--key", str(tmp_path / "k.dlfk"),
                       "--out", str(tmp_path / "o.bin")])
        assert rc == cli.EXIT_USAGE
        assert "exponent" in capsys.readouterr().err
        assert not (tmp_path / "o.bin").exists()


def test_params_bits_above_the_bound_prints_no_seed(tmp_path, capsys):
    rc = cli.main(["params", "--bits", "4097", "--seed", "1", "--out", str(tmp_path / "x.dlfp")])
    assert rc == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bits must lie in [5, 4096], not 4097\n"


def test_max_subsets_above_sys_maxsize_still_opens_the_vault(tmp_path, capsys, field16):
    A, vault_path, key_path = _locked_vault(tmp_path, field16, 923)
    write_set(tmp_path / "probe.txt", A)
    rc = cli.main(["unlock", "--vault", str(vault_path), "--set", str(tmp_path / "probe.txt"),
                   "--key", str(key_path), "--max-subsets", "99999999999999999999",
                   "--out", str(tmp_path / "o.bin")])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "o.bin").read_bytes() == b""
    assert "islice" not in capsys.readouterr().err
