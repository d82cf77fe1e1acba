"""Exception hierarchy. Everything raised on bad data derives from VladkitError
so the CLI can map it to a single exit code."""


class VladkitError(Exception):
    pass


class BadMagic(VladkitError):
    pass


class TruncatedFile(VladkitError):
    pass


class NonFinite(VladkitError):
    pass


class ParseError(VladkitError):
    pass


class NegativeLabel(VladkitError):
    pass


class DegenerateInput(VladkitError):
    pass


class DimTooLarge(VladkitError):
    pass


class DimMismatch(VladkitError):
    pass


class EmptyInput(VladkitError):
    pass


class TooFewPoints(VladkitError):
    pass


class NonPositiveBeta(VladkitError):
    pass


class NonPositiveSigma(VladkitError):
    pass


class BadK(VladkitError):
    pass


class BadLambda(VladkitError):
    pass


class SingularSystem(VladkitError):
    pass


class TooFewClasses(VladkitError):
    pass


class CacheMismatch(VladkitError):
    pass
