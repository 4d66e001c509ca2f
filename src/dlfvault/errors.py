"""Exception taxonomy shared by every module in the package.

Grouped by the layer that raises them; the CLI maps a subset onto
process exit codes.
"""


class FuzzyVaultError(Exception):
    """Base class for everything this package raises on purpose."""


# field layer

class BadFactorization(FuzzyVaultError):
    pass


# polynomial layer

class ZeroInverse(FuzzyVaultError):
    pass


# identity layer

class WrongCount(FuzzyVaultError):
    pass


# framing layer

class MalformedFrame(FuzzyVaultError):
    pass


class SignatureMismatch(FuzzyVaultError):
    pass


class BadLength(FuzzyVaultError):
    pass


# codec layer

class MessageTooLarge(FuzzyVaultError):
    pass


class KeyKindMismatch(FuzzyVaultError):
    pass


# vault layer

class InvalidLockingSet(FuzzyVaultError, ValueError):
    pass


class LockingSetTooSmall(FuzzyVaultError):
    pass


class ChaffSpaceExhausted(FuzzyVaultError):
    pass


class NotEnoughMatches(FuzzyVaultError):
    pass


class DecodeFailed(FuzzyVaultError):
    pass


# analysis layer

class BadArguments(FuzzyVaultError):
    pass


class NotInGroup(FuzzyVaultError):
    pass


# file formats

class MalformedFile(FuzzyVaultError):
    pass
