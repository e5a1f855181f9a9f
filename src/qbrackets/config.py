"""Runtime configuration: built-in defaults, overridable by environment
variables (prefix QBRACKETS_), which are in turn overridden by CLI flags.
Every Config is range-checked when it is made, whatever its source."""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_PREFIX = "QBRACKETS_"
FORMATS = ("text", "json", "csv")


class ResourceCap(RuntimeError):
    """A series sweep would hold more than max_cells coefficient cells."""


@dataclass(frozen=True)
class Config:
    default_order: int = 120
    output_format: str = "text"
    max_cells: int = 2_000_000       # cap on suffix rows x order per sweep

    def __post_init__(self) -> None:
        if self.default_order < 1:
            raise ValueError(f"default_order must be at least 1, got "
                             f"{self.default_order}")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.max_cells < 1:
            raise ValueError(f"max_cells must be at least 1, got "
                             f"{self.max_cells}")


_ENV_FIELDS = {
    "ORDER": ("default_order", int),
    "FORMAT": ("output_format", str),
    "MAX_CELLS": ("max_cells", int),
}


def load_config(environ: dict | None = None) -> Config:
    env = os.environ if environ is None else environ
    updates = {}
    for key, (field, cast) in _ENV_FIELDS.items():
        raw = env.get(ENV_PREFIX + key)
        if raw is None:
            continue
        try:
            updates[field] = cast(raw)
            Config(**{field: updates[field]})
        except ValueError as exc:
            raise ValueError(f"bad value for {ENV_PREFIX + key}: {raw!r} "
                             f"({exc})") from exc
    return Config(**updates)


_ACTIVE: Config | None = None


def get_config() -> Config:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = load_config()
    return _ACTIVE


def set_config(cfg: Config) -> None:
    global _ACTIVE
    _ACTIVE = cfg
