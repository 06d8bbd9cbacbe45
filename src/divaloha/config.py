"""Channel geometry shared by the analytic model and the simulator."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class SystemConfig:
    """Discretized frame geometry. All lengths are in symbols.

    ``symbol_time`` (seconds) only fixes the physical scale for reporting;
    the math runs entirely on symbol counts.
    """

    frame_len: int
    burst_len: int
    copies: int = 2
    symbol_time: float = 1e-6

    def __post_init__(self) -> None:
        if self.burst_len < 1:
            raise ConfigError(f"burst_len must be >= 1, got {self.burst_len}")
        if self.copies < 1:
            raise ConfigError(f"copies must be >= 1, got {self.copies}")
        if self.frame_len < self.copies * self.burst_len:
            raise ConfigError(
                f"{self.copies} copies of {self.burst_len} symbols cannot fit "
                f"in a {self.frame_len}-symbol frame"
            )
        if not self.symbol_time > 0:
            raise ConfigError(f"symbol_time must be > 0, got {self.symbol_time}")

    @property
    def start_positions(self) -> int:
        """Number of admissible start symbols for one burst copy."""
        return self.frame_len - self.burst_len + 1
