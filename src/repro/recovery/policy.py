"""Recovery policy knobs (backoff schedule and attempt budget)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import us


@dataclass
class RecoveryPolicy:
    """How hard to try re-establishing a lost QP pair.

    The reconnect delay for attempt *k* (1-based, cumulative per rank
    pair) is::

        min(max_delay_ns, base_delay_ns * backoff_factor ** (k - 1))
        + jitter in [0, jitter_ns)

    with the jitter drawn from a :class:`random.Random` keyed on
    ``(seed, pair, attempt)`` — deterministic across runs, decorrelated
    across pairs so a fabric-wide fault does not produce a synchronized
    reconnect storm.
    """

    max_attempts: int = 5  #: cumulative per rank pair; exceeded -> failure
    base_delay_ns: int = us(50)
    backoff_factor: float = 2.0
    max_delay_ns: int = us(2_000)
    jitter_ns: int = us(10)
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Fail fast on a policy the backoff schedule cannot run with.

        Raises :class:`ValueError` naming the offending field — a
        fractional delay would otherwise surface only at the first
        reconnect, as a kernel error deep in a run (the delay lands on the
        agenda, whose clock is integer nanoseconds)."""
        for name in ("max_attempts", "base_delay_ns", "max_delay_ns", "jitter_ns"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"RecoveryPolicy.{name} must be a non-negative int, "
                    f"got {value!r}"
                )
        factor = self.backoff_factor
        if isinstance(factor, bool) or not isinstance(factor, (int, float)) or not factor >= 1:
            raise ValueError(
                f"RecoveryPolicy.backoff_factor must be >= 1, got {factor!r}"
            )
