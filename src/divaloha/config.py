"""Channel geometry shared by the analytic model and the simulator."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, as_int, short_int


@dataclass(frozen=True)
class SystemConfig:
    """Discretized frame geometry. All lengths are in symbols; the physical
    symbol time never enters the math, so it is not part of the geometry.
    Each field must be an integer, which is stored as the int it equals; a
    float, bool or str is refused, and so is a burst_len or copies below 1.
    """

    frame_len: int
    burst_len: int
    copies: int = 2

    def __post_init__(self) -> None:
        for name, least in (("frame_len", None), ("burst_len", 1), ("copies", 1)):
            value = as_int(getattr(self, name), name, least, ConfigError)
            object.__setattr__(self, name, value)
        if self.frame_len < self.copies * self.burst_len:
            raise ConfigError(
                f"{short_int(self.copies)} copies of {short_int(self.burst_len)} "
                f"symbols cannot fit in a {short_int(self.frame_len)}-symbol frame"
            )

    @property
    def start_positions(self) -> int:
        """Number of admissible start symbols for one burst copy."""
        return self.frame_len - self.burst_len + 1
