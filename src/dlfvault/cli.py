"""Command line front end over the vault, key, identity, and parameter files.

Exit codes:

    0  success
    1  file IO failure
    2  usage, argument, or file format problem
    3  locking set smaller than the coefficient count
    4  message too large for whole-message encoding
    5  chaff placement ran out of room
    6  not enough matched points to interpolate
    7  subset search exhausted without a valid digest
    8  identity decode rejected

Every command that consumes randomness prints the seed it ran with, so
any run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import secrets
import sys

from .attacks import attack_report, brute_force_unlock_attack, sweep_csv
from .dlog_codec import KeyFile
from .errors import (
    ChaffSpaceExhausted,
    DecodeFailed,
    FuzzyVaultError,
    LockingSetTooSmall,
    MalformedFile,
    MessageTooLarge,
    NotEnoughMatches,
)
from .field import gen_params, params_from_file, params_to_file
from .framing import DEFAULT_SEG_BITS
from .identity import decode_identity, encode_identity, identity_from_bytes, identity_to_bytes
from .vault import DEFAULT_MAX_SUBSETS, Scheme, Vault, lock, unlock

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_LOCKING_SET = 3
EXIT_TOO_LARGE = 4
EXIT_CHAFF = 5
EXIT_NO_MATCHES = 6
EXIT_DECODE = 7
EXIT_REJECT = 8

# resolved along the raised exception's MRO, so the most specific entry wins
_EXIT_CODES = {
    LockingSetTooSmall: EXIT_LOCKING_SET,
    MessageTooLarge: EXIT_TOO_LARGE,
    ChaffSpaceExhausted: EXIT_CHAFF,
    NotEnoughMatches: EXIT_NO_MATCHES,
    DecodeFailed: EXIT_DECODE,
    FuzzyVaultError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_IO,
}

_SCHEMES = {scheme.name.lower().replace("_", "-"): scheme for scheme in Scheme}


def _int_arg(s: str) -> int:
    # accepts decimal or 0x-prefixed hex
    return int(s, 0)


def _int_list(s: str) -> list[int]:
    parts = [part.strip() for part in s.split(",")]
    return [int(part, 0) for part in parts if part]


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _read_set(path: str) -> list[int]:
    """Newline-separated integers, decimal or 0x-hex; # starts a comment."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(int(text, 0))
            except ValueError:
                raise MalformedFile(f"{path}:{line_no}: not an integer: {text!r}") from None
    return values


def _fresh_seed() -> int:
    return secrets.randbits(63)


def _cmd_params(args) -> int:
    if args.bits < 8:
        raise ValueError("--bits must be at least 8")
    seed = args.seed if args.seed is not None else _fresh_seed()
    field = gen_params(args.bits, seed)
    print(f"seed={seed}")
    _write_bytes(args.out, params_to_file(field))
    print(f"bits={field.p_bits}")
    print(f"p={field.p:#x}")
    print(f"alpha={field.alpha}")
    print(f"out={args.out}")
    return EXIT_OK


def _cmd_lock(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    print(f"seed={seed}")
    params = params_from_file(_read_bytes(args.params))
    message = _read_bytes(args.message)
    locking_set = _read_set(args.set)
    vault, key_file = lock(message, locking_set, _SCHEMES[args.scheme], params,
                           chaff_count=args.chaff, delta=args.delta, seed=seed,
                           seg_bits=args.seg_bits)
    _write_bytes(args.vault_out, vault.to_bytes())
    _write_bytes(args.key_out, key_file.to_bytes())
    print(f"scheme={args.scheme}")
    print(f"coeffs={vault.coeff_count}")
    print(f"genuine={len(locking_set)}")
    print(f"points={len(vault.points)}")
    print(f"vault={args.vault_out}")
    print(f"key={args.key_out}")
    return EXIT_OK


def _cmd_unlock(args) -> int:
    vault = Vault.from_bytes(_read_bytes(args.vault))
    key_file = KeyFile.from_bytes(_read_bytes(args.key)) if args.key else None
    unlocking_set = _read_set(args.set)
    message = unlock(vault, unlocking_set, key_file, max_subsets=args.max_subsets)
    _write_bytes(args.out, message)
    print(f"message_bytes={len(message)}")
    print(f"out={args.out}")
    return EXIT_OK


def _cmd_identity_encode(args) -> int:
    coeffs = encode_identity(args.kappa, args.id)
    _write_bytes(args.out, identity_to_bytes(coeffs))
    print(f"crc={coeffs[0]:#06x}")
    print(f"out={args.out}")
    return EXIT_OK


def _cmd_identity_decode(args) -> int:
    coeffs, _reduction = identity_from_bytes(_read_bytes(args.infile))
    decoded = decode_identity(coeffs)
    if decoded is None:
        print("Reject")
        return EXIT_REJECT
    kappa, ident = decoded
    print(f"Accept kappa={kappa:#x} id={ident:#x}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    if args.vault:
        if args.r or args.t or args.n:
            raise ValueError("--vault and --r/--t/--n are mutually exclusive")
        vault = Vault.from_bytes(_read_bytes(args.vault))
        key_file = KeyFile.from_bytes(_read_bytes(args.key)) if args.key else None
        result = brute_force_unlock_attack(vault, key_file, max_subsets=args.max_subsets)
        print(f"succeeded={'true' if result.succeeded else 'false'}")
        print(f"subsets_tried={result.subsets_tried}")
        if result.message is not None:
            print(f"message_hex={result.message.hex()}")
        return EXIT_OK

    if not (args.r and args.t and args.n):
        raise ValueError("synthetic mode needs --r, --t and --n")
    seed = args.seed if args.seed is not None else _fresh_seed()
    print(f"seed={seed}")
    reports = []
    for r in args.r:
        for t in args.t:
            for n in args.n:
                reports.append(attack_report(r, t, n, args.trials, seed))
    if len(reports) == 1 and not args.csv:
        text = reports[0].to_text()
    else:
        text = sweep_csv(reports)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"out={args.report_out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlfvault",
        description="Fuzzy vault toolkit with a discrete-log encryption layer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="generate safe-prime field parameters")
    p.add_argument("--bits", type=int, required=True, help="exact bit length of p (8 to 4096)")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("lock", help="lock a message file under a locking set")
    p.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
    p.add_argument("--params", required=True, help="field parameters file")
    p.add_argument("--message", required=True, help="message bytes to lock")
    p.add_argument("--set", required=True, help="locking set, one integer per line")
    p.add_argument("--chaff", type=int, default=0)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--seg-bits", type=int, default=DEFAULT_SEG_BITS, dest="seg_bits")
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--vault-out", required=True, dest="vault_out")
    p.add_argument("--key-out", required=True, dest="key_out")
    p.set_defaults(func=_cmd_lock)

    p = sub.add_parser("unlock", help="recover a message from a vault")
    p.add_argument("--vault", required=True)
    p.add_argument("--set", required=True, help="unlocking set, one integer per line")
    p.add_argument("--key", default=None, help="key file; omit for classical vaults")
    p.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS, dest="max_subsets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_unlock)

    p = sub.add_parser("identity", help="identity binding records")
    ident_sub = p.add_subparsers(dest="identity_command", required=True)

    q = ident_sub.add_parser("encode", help="pack kappa and id into coefficients")
    q.add_argument("--kappa", type=_int_arg, required=True, help="128-bit secret exponent")
    q.add_argument("--id", type=_int_arg, required=True, help="64-bit identity")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_identity_encode)

    q = ident_sub.add_parser("decode", help="decode and checksum-verify a record")
    q.add_argument("--in", required=True, dest="infile")
    q.set_defaults(func=_cmd_identity_decode)

    p = sub.add_parser("attack", help="success-probability analysis or brute force")
    p.add_argument("--r", type=_int_list, default=None, help="vault sizes, comma separated")
    p.add_argument("--t", type=_int_list, default=None, help="genuine counts, comma separated")
    p.add_argument("--n", type=_int_list, default=None, help="coefficient counts, comma separated")
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=_int_arg, default=None)
    p.add_argument("--csv", action="store_true", help="CSV output even for a single point")
    p.add_argument("--report-out", default=None, dest="report_out")
    p.add_argument("--vault", default=None, help="brute-force this vault file instead")
    p.add_argument("--key", default=None)
    p.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS, dest="max_subsets")
    p.set_defaults(func=_cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
