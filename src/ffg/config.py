"""Protocol-level knobs shared by the engine, the simulator, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigInvalid
from .leak import LeakConfig


@dataclass(frozen=True)
class ProtocolConfig:
    spacing: int = 100               # E: blocks between checkpoints
    delta: int = 8                   # max message delay, in ticks
    withdrawal_delay: int = 100      # omega, in epochs
    leak: LeakConfig = field(default_factory=LeakConfig)
    stitching: bool = True           # require 2/3 of both forward and rear sets

    def __post_init__(self):
        if type(self.spacing) is not int or self.spacing < 1:
            raise ConfigInvalid("spacing must be an integer >= 1")
        if type(self.delta) is not int or self.delta < 0:
            raise ConfigInvalid("delta must be an integer >= 0")
        if type(self.withdrawal_delay) is not int or self.withdrawal_delay < 0:
            raise ConfigInvalid("withdrawal delay must be an integer >= 0")
        if type(self.stitching) is not bool:
            raise ConfigInvalid("stitching must be true or false")

    def deadline(self, target_cp_height: int) -> int:
        """Last block number at which votes for a link into this target still
        count toward finalizing the link's source."""
        return (target_cp_height + 1) * self.spacing

    def epoch_of_height(self, height: int) -> int:
        return height // self.spacing
