"""Channel geometry shared by the analytic model and the simulator."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ConfigError, short_int


@dataclass(frozen=True)
class SystemConfig:
    """Discretized frame geometry. All lengths are in symbols; the physical
    symbol time never enters the math, so it is not part of the geometry.
    Each field must be an integer, which is stored as the int it equals; a
    float, bool or str is refused.
    """

    frame_len: int
    burst_len: int
    copies: int = 2

    def __post_init__(self) -> None:
        for name in ("frame_len", "burst_len", "copies"):
            value = getattr(self, name)
            # ints and numpy integers have __index__; floats and str do not,
            # and a bool, which has, is not a symbol count
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.burst_len < 1:
            raise ConfigError(
                f"burst_len must be >= 1, got {short_int(self.burst_len)}"
            )
        if self.copies < 1:
            raise ConfigError(f"copies must be >= 1, got {short_int(self.copies)}")
        if self.frame_len < self.copies * self.burst_len:
            raise ConfigError(
                f"{short_int(self.copies)} copies of {short_int(self.burst_len)} "
                f"symbols cannot fit in a {short_int(self.frame_len)}-symbol frame"
            )

    @property
    def start_positions(self) -> int:
        """Number of admissible start symbols for one burst copy."""
        return self.frame_len - self.burst_len + 1
