"""Exception hierarchy shared across the package."""


class GnnLabError(Exception):
    """Base class for all gnnlab errors."""


class ShapeError(GnnLabError):
    """Operand dimensions are incompatible."""


class DomainError(GnnLabError):
    """An operation was applied to an empty or otherwise ill-defined input."""


class StateError(GnnLabError):
    """A backward pass (or trace read) was requested without a matching forward."""


class IngestError(GnnLabError):
    """A dataset directory is missing mandatory files or is unreadable."""


class TuParseError(IngestError):
    """A dataset file contains a malformed token; message carries file and line."""


class ConsistencyError(IngestError):
    """Dataset files contradict each other (e.g. edge crossing graph boundaries)."""


class TransportError(GnnLabError):
    """An HTTP fetch failed."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class IntegrityError(GnnLabError):
    """A downloaded archive is corrupt or does not contain the expected files."""


class StratificationError(GnnLabError):
    """A stratified fold split cannot be produced for the requested k."""


class SpecError(GnnLabError):
    """A model specification is invalid or internally inconsistent."""


class HarnessError(GnnLabError):
    """The training harness was driven with unusable inputs (e.g. empty fold)."""


class ConfigError(GnnLabError):
    """An experiment config file is invalid (unknown keys, bad values)."""


class CalibrationError(GnnLabError):
    """Variance re-initialisation hit a degenerate (constant-output) block."""


class NonFiniteError(GnnLabError):
    """A training loss, or a gradient that reached the optimiser, is NaN or
    infinite; names the first such parameter (None: the loss), and the epoch
    and fold once the harness adds them."""

    def __init__(self, param, epoch=None, fold=None):
        where = "".join(f"{key} {val}, " for key, val in (("fold", fold), ("epoch", epoch))
                        if val is not None)
        what = "loss" if param is None else f"gradient for {param}"
        super().__init__(f"{where}non-finite {what}")
        self.param, self.epoch, self.fold = param, epoch, fold

    def __reduce__(self):  # a fold worker sends it back pickled
        return type(self), (self.param, self.epoch, self.fold)


class RenderError(GnnLabError):
    """A chart cannot be rendered from the given CSV/series selection."""
