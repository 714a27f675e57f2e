"""Exception taxonomy shared by all modules."""


class FfgError(Exception):
    """Base class for every library error."""


# -- block tree ---------------------------------------------------------------

class UnknownParent(FfgError):
    pass


class DuplicateId(FfgError):
    pass


class DigestMismatch(FfgError):
    pass


class NonMonotonicTimestamp(FfgError):
    pass


class UnknownBlock(FfgError):
    pass


class NotACheckpoint(FfgError):
    pass


class NotAncestor(FfgError):
    pass


# -- validator registry -------------------------------------------------------

class UnknownValidator(FfgError):
    pass


class Rejoin(FfgError):
    pass


class ZeroDeposit(FfgError):
    pass


class NotActive(FfgError):
    pass


class AlreadyLeaving(FfgError):
    pass


# -- votes and slashing -------------------------------------------------------

class BadSignature(FfgError):
    pass


class DifferentValidators(FfgError):
    pass


class AlreadySlashed(FfgError):
    pass


class NotConflicting(FfgError):
    pass


class NotFinalized(FfgError):
    pass


# -- liveness and configuration ----------------------------------------------

class NoExtension(FfgError):
    pass


class Unreachable(FfgError):
    pass


class ConfigInvalid(FfgError):
    pass
