"""Finite-field fuzzy vaults with a discrete-log encryption layer.

A message is framed, mapped to polynomial coefficients (optionally
encrypted segment-wise or whole with an ephemeral exponent), evaluated
on a locking set, and hidden among chaff. Anyone holding enough of the
original set elements, within a configured tolerance, can interpolate
the polynomial back out; the attack module quantifies how hard that is
for anyone else.
"""

from .attacks import (
    AttackReport,
    BruteForceResult,
    attack_report,
    brute_force_unlock_attack,
    exact_success_prob,
    monte_carlo_rate,
    published_point_ratio,
    published_poly_prob,
    solve_dlog_bsgs,
    sweep_csv,
)
from .dlog_codec import EphemeralKey, KeyFile, gen_key
from .errors import (
    BadArguments,
    BadFactorization,
    BadLength,
    ChaffSpaceExhausted,
    DecodeFailed,
    DuplicateX,
    FuzzyVaultError,
    InvalidLockingSet,
    KeyKindMismatch,
    LockingSetTooSmall,
    MalformedFile,
    MalformedFrame,
    MessageTooLarge,
    NotEnoughMatches,
    NotInGroup,
    SignatureMismatch,
    WrongCount,
    ZeroInverse,
)
from .field import (
    BinaryField16,
    GF16_REDUCTION_POLY,
    PrimeField,
    binary_field,
    gen_params,
    gf16_mul,
    is_prime,
    is_primitive_root,
    params_from_file,
    params_to_file,
)
from .framing import deframe, frame, md5, reassemble, required_coeff_count, segment
from .identity import (
    CRC16_GENERATOR,
    IdentityRecord,
    decode_identity,
    encode_identity,
    identity_from_bytes,
    identity_to_bytes,
    identity_vault_roundtrip,
    make_identity_record,
)
from .polynomial import crc16_remainder, eval_poly, lagrange_interpolate
from .vault import (
    DEFAULT_MAX_SUBSETS,
    Scheme,
    Vault,
    classical_coeff_check,
    lock,
    match_points,
    unlock,
    verify_coefficients,
)

__version__ = "0.1.0"
