"""Exception types shared across the package."""


class SemiQuantumError(Exception):
    """Base class for all package-specific errors."""


class UnknownLabel(SemiQuantumError, KeyError):
    """A qubit label is not present in the register."""


class RegisterTooLarge(SemiQuantumError):
    """A register would exceed the hard qubit cap."""


class DuplicateLabel(SemiQuantumError):
    """Two register slots carry the same label."""


class EqualBellKinds(SemiQuantumError, ValueError):
    """A controlled-branch state needs two distinct Bell components."""


class NonOrthonormalBasis(SemiQuantumError, ValueError):
    """A single-qubit measurement basis is not orthonormal."""


class CapabilityViolation(SemiQuantumError):
    """A classical party requested an operation outside its allowed set."""

    def __init__(self, op: str):
        super().__init__(f"operation {op!r} is not permitted for a classical party")
        self.op = op


class ZeroCount(SemiQuantumError, ValueError):
    """An encode/decoy count that must be positive was zero or negative."""


class EmptyInput(SemiQuantumError, ValueError):
    """A bitstring argument that must be nonempty was empty."""


class UnknownAttack(SemiQuantumError, ValueError):
    """No closed-form detection probability is defined for this attack."""


class ZeroProbabilityOutcome(SemiQuantumError, ValueError):
    """A measurement would collapse onto an outcome of zero probability."""
