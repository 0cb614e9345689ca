"""Exception hierarchy shared across the package: one class per meaning."""


class LrPathError(Exception):
    """Base class for all lrpath errors."""


class InvalidConfig(LrPathError):
    """A value lies outside its domain: a config field, spec, label, step or count."""


class AlphaDegenerate(InvalidConfig):
    """A path-switching alpha leaves an increment no fast-decay steps; a sweep skips that alpha."""


class PlanViolation(LrPathError):
    """A plan breaks a structural rule; the message starts with the phase (or version) at fault."""

    def __init__(self, phase_id, reason):
        super().__init__(f"{phase_id}: {reason}")
        self.phase_id = phase_id


class SchemaMismatch(LrPathError):
    """A document or payload file is malformed or of an unsupported format."""


class ShapeMismatch(LrPathError):
    """Model parameters or token ids do not fit the model's shape or vocabulary."""


class DataExhausted(LrPathError):
    """Too few tokens: a corpus, segment or held-out set cannot fill what is asked of it."""


class NonFiniteUpdate(LrPathError):
    """Training produced a NaN or Inf parameter or update."""


class NonFiniteEval(LrPathError):
    """Evaluation produced a held-out loss with no finite perplexity."""
