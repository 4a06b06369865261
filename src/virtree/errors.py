"""Exception types shared across the package."""


class VirtreeError(Exception):
    """Base class for all library errors."""


class ConservationError(VirtreeError):
    """Message-copy accounting did not balance at the end of a run.

    `counters` holds the kernel's conservation counters at that point.
    """

    def __init__(self, counters: dict[str, int]):
        self.counters = dict(sorted(counters.items()))
        super().__init__(f"message accounting out of balance: {self.counters}")


class ScenarioInvalid(VirtreeError):
    """Scenario file failed validation; `field` names the offending key."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class OracleMismatch(VirtreeError):
    """Simulated outcome disagrees with the independent reachability oracle."""
