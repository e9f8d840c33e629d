"""Exception types shared across the toolkit."""


class ParseError(ValueError):
    """A game or lattice text file could not be parsed."""

    def __init__(self, message, path="<string>", line=None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class NotALatticeError(ValueError):
    """A cover relation or order does not describe a lattice."""


class CapExceeded(RuntimeError):
    """A resource cap (steps, states, ideals, isomorphism size) was hit."""


class StepCapExceeded(CapExceeded):
    """Firing did not reach a fixpoint within the step cap."""


class StateCapExceeded(CapExceeded):
    """State-space enumeration hit the state cap."""


class DetectorDisagreement(RuntimeError):
    """The two local-distributivity detectors returned different verdicts."""


class FiringVectorConflict(RuntimeError):
    """A game state was reached again with a different firing vector, as in a
    game that can cycle."""
