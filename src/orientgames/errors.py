"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for all orientgames errors."""


class OutOfRange(GameError):
    pass


class SelfLoop(GameError):
    pass


class AlreadyOriented(GameError):
    pass


class NotATournament(GameError):
    pass


class BudgetExceeded(GameError):
    pass


class ParseError(GameError):
    pass


class BadLength(GameError):
    pass


class InvalidCycle(GameError):
    pass


class SizeMismatch(GameError):
    pass


class CorruptTranscript(GameError):
    pass


class StrategyStuck(GameError):
    """A strategy's internal invariant failed; indicates an engine bug."""


class CriterionUnmet(GameError):
    pass


class FasTooSmall(GameError):
    pass


class NoFreeElements(GameError):
    pass


class NoAgreeingPair(GameError):
    pass


class AllDestroyed(GameError):
    pass


class UnknownStrategy(GameError):
    pass


class BadConfig(GameError):
    pass
