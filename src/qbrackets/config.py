"""Runtime configuration: built-in defaults, overridable by environment
variables (prefix QBRACKETS_), which are in turn overridden by CLI flags.
Every Config is range-checked when it is made, whatever its source."""

from __future__ import annotations

import os

from ._value import Value

ENV_PREFIX = "QBRACKETS_"
FORMATS = ("text", "json", "csv")
# the choices of the dims and relations commands, here so that building
# the command line parser loads no layer
SPACES = ("md", "mda")
TABLE_KINDS = ("fil", "gr")


class ResourceCap(RuntimeError):
    """A series sweep would hold more than max_cells coefficient cells."""


class Config(Value):
    """The effective options; max_cells caps prefix rows x order per sweep."""

    __slots__ = ("default_order", "output_format", "max_cells")

    def __init__(self, default_order: int = 120, output_format: str = "text",
                 max_cells: int = 2_000_000) -> None:
        if default_order < 1:
            raise ValueError(f"default_order must be at least 1, got "
                             f"{default_order}")
        if output_format not in FORMATS:
            raise ValueError(f"unknown output format {output_format!r}")
        if max_cells < 1:
            raise ValueError(f"max_cells must be at least 1, got {max_cells}")
        super().__init__(default_order, output_format, max_cells)


_ENV_FIELDS = {
    "ORDER": ("default_order", int),
    "FORMAT": ("output_format", str),
    "MAX_CELLS": ("max_cells", int),
}


def load_config(environ: dict | None = None) -> Config:
    return Config(**_environment_values(
        os.environ if environ is None else environ))


def _environment_values(environ) -> dict:
    """The field values that the QBRACKETS_* variables of environ set, each
    range-checked alone so that an error names its variable."""
    values = {}
    for key, (field, cast) in _ENV_FIELDS.items():
        raw = environ.get(ENV_PREFIX + key)
        if raw is None:
            continue
        try:
            values[field] = cast(raw)
            Config(**{field: values[field]})
        except ValueError as exc:
            raise ValueError(f"bad value for {ENV_PREFIX + key}: {raw!r} "
                             f"({exc})") from exc
    return values


_ACTIVE: Config | None = None


def get_config() -> Config:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = load_config()
    return _ACTIVE


def set_config(cfg: Config) -> None:
    global _ACTIVE
    _ACTIVE = cfg
