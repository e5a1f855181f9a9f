"""Runtime configuration: built-in defaults, overridable by environment
variables (prefix QBRACKETS_), which are in turn overridden by CLI flags."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_PREFIX = "QBRACKETS_"


@dataclass(frozen=True)
class Config:
    default_order: int = 120
    mzv_target_error: float = 1e-10
    output_format: str = "text"      # text | json | csv
    threads: int = 1
    max_cells: int = 2_000_000       # cell cap for series and table commands


_ENV_FIELDS = {
    "ORDER": ("default_order", int),
    "MZV_TARGET_ERROR": ("mzv_target_error", float),
    "FORMAT": ("output_format", str),
    "THREADS": ("threads", int),
    "MAX_CELLS": ("max_cells", int),
}


def load_config(environ: dict | None = None) -> Config:
    env = os.environ if environ is None else environ
    cfg = Config()
    updates = {}
    for key, (field, cast) in _ENV_FIELDS.items():
        raw = env.get(ENV_PREFIX + key)
        if raw is None:
            continue
        try:
            updates[field] = cast(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {ENV_PREFIX + key}: {raw!r}") from exc
    if updates:
        cfg = replace(cfg, **updates)
    if cfg.output_format not in ("text", "json", "csv"):
        raise ValueError(f"unknown output format {cfg.output_format!r}")
    return cfg


_ACTIVE: Config | None = None


def get_config() -> Config:
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = load_config()
    return _ACTIVE


def set_config(cfg: Config) -> None:
    global _ACTIVE
    _ACTIVE = cfg
