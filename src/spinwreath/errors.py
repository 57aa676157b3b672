"""Exception hierarchy shared across the package."""


class SpinWreathError(Exception):
    """Base class for all package errors."""


# -- group construction / interrogation ------------------------------------

class TableNotLatin(SpinWreathError):
    pass


class NotAssociative(SpinWreathError):
    pass


class NoIdentity(SpinWreathError):
    pass


class MissingInverse(SpinWreathError):
    pass


class OrderBoundExceeded(SpinWreathError):
    pass


class NotNormal(SpinWreathError):
    pass


class PrimeDoesNotDivideOrder(SpinWreathError):
    pass


class NotAbelian(SpinWreathError):
    pass


# -- actions / wreath contexts ---------------------------------------------

class NonFaithfulAction(SpinWreathError):
    pass


class ContextMismatch(SpinWreathError):
    pass


class ContextTooLarge(SpinWreathError):
    pass


# -- strategies -------------------------------------------------------------

class BudgetExceeded(SpinWreathError):
    pass


# -- synthesis --------------------------------------------------------------

class NotAPermutation(SpinWreathError):
    pass


class DoesNotGenerate(SpinWreathError):
    pass


class NotInvolutionGenerated(SpinWreathError):
    pass


class InputStrategyInvalid(SpinWreathError):
    pass


class LiftedStrategyFailedVerification(SpinWreathError):
    pass


class NotSamePrime(SpinWreathError):
    pass


class BaseCaseVerificationFailed(SpinWreathError):
    pass


class NotSurjective(SpinWreathError):
    pass


class NoStrategyWithinDepth(SpinWreathError):
    def __init__(self, message="no strategy within depth", exhausted=False):
        super().__init__(message)
        self.exhausted = exhausted


class CertificateRejected(SpinWreathError):
    """A nonexistence certificate failed independent validation."""


# -- analysis ---------------------------------------------------------------

class ContextTooSmall(SpinWreathError):
    pass


# -- CLI / parsing ----------------------------------------------------------

class ParseError(SpinWreathError):
    def __init__(self, message, position, expected=()):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)


class UnknownGroupFamily(SpinWreathError):
    pass


class FileFormatInvalid(SpinWreathError):
    pass
