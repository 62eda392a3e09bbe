"""Exception types shared across the package."""


class PairbijError(Exception):
    """Base class for all errors raised by this package."""


class FuelExhausted(PairbijError):
    """An operation pulled more stream elements than its fuel budget allows.

    budget is the budget that ran out, label what the fuel was metering.
    """

    def __init__(self, message: str, budget: int | None = None, label: str | None = None):
        super().__init__(message)
        self.budget = budget
        self.label = label


class EmptyCycle(PairbijError):
    """cycle() needs at least one element to repeat."""


class ZeroStep(PairbijError):
    """arith() needs a strictly positive step."""


class InvalidBase(PairbijError):
    """Valuation bases must be >= 2."""


class ZeroArgument(PairbijError):
    """The operation is only defined on positive naturals."""


class NotNonDecreasing(PairbijError):
    """Multiset input must be a non-decreasing sequence."""


class NotStrictlyIncreasing(PairbijError):
    """Set input must be a strictly increasing sequence."""


class InvalidBit(PairbijError):
    """Bit sequences may only contain 0 and 1."""


class GuideExhausted(PairbijError):
    """A finite guide ended while elements still needed routing.

    position is the number of guide positions read before the end, label the
    seed's label (None for a bare guide given to bsplit or bmerge).
    """

    def __init__(self, message: str, position: int | None = None, label: str | None = None):
        super().__init__(message)
        self.position = position
        self.label = label


class UnknownPreset(PairbijError):
    """No pairing family preset registered under that name."""


class UnknownEncoder(PairbijError):
    """No encoder registered under that name."""
