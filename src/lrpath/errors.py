"""Exception hierarchy shared across the package."""


class LrPathError(Exception):
    """Base class for all lrpath errors."""


# schedule
class InvalidConfig(LrPathError):
    pass


class StepOutOfRange(LrPathError):
    pass


class UnsupportedKind(LrPathError):
    pass


# paradigm
class InvalidSpec(LrPathError):
    pass


class AlphaDegenerate(InvalidSpec):
    pass


class PlanViolation(LrPathError):
    def __init__(self, phase_id, reason):
        super().__init__(f"{phase_id}: {reason}")
        self.phase_id = phase_id
        self.reason = reason


# cost
class InvalidArgument(LrPathError):
    pass


# lineage
class SchemaMismatch(LrPathError):
    pass


# trainer
class ShapeMismatch(LrPathError):
    pass


class NonFiniteUpdate(LrPathError):
    pass


class EmptyEval(LrPathError):
    pass


class NonFiniteEval(LrPathError):
    pass


class DataExhausted(LrPathError):
    pass
