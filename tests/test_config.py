import argparse

import pytest

from qbrackets import Config, get_config, load_config, set_config
from qbrackets.cli import _effective_config
from qbrackets.config import ENV_PREFIX, _ENV_FIELDS

ENV_NAMES = {field: ENV_PREFIX + key for key, (field, _) in _ENV_FIELDS.items()}


def test_defaults():
    cfg = load_config(environ={})
    assert cfg.default_order == 120
    assert cfg.output_format == "text"
    assert cfg.max_cells == 2_000_000


def test_environment_overrides():
    cfg = load_config(environ={
        "QBRACKETS_ORDER": "40",
        "QBRACKETS_FORMAT": "json",
        "QBRACKETS_MAX_CELLS": "1000",
    })
    assert cfg.default_order == 40
    assert cfg.output_format == "json"
    assert cfg.max_cells == 1000


def test_unrelated_environment_is_ignored():
    cfg = load_config(environ={"PATH": "/bin", "QBRACKETSX_ORDER": "7"})
    assert cfg == load_config(environ={})


def test_invalid_environment_rejected():
    with pytest.raises(ValueError):
        load_config(environ={"QBRACKETS_ORDER": "many"})
    with pytest.raises(ValueError):
        load_config(environ={"QBRACKETS_FORMAT": "yaml"})


@pytest.mark.parametrize("field, value", [
    ("output_format", "yaml"), ("max_cells", 0), ("max_cells", -3),
    ("default_order", 0), ("default_order", -5),
])
def test_config_rejects_out_of_range_values(monkeypatch, field, value):
    # a direct construction, an environment value and a flag override all
    # construct through this check
    with pytest.raises(ValueError):
        Config(**{field: value})
    with pytest.raises(ValueError, match=f"bad value for {ENV_NAMES[field]}"):
        load_config(environ={ENV_NAMES[field]: str(value)})
    if field == "default_order":  # the one field without a global flag
        return
    # a good environment value does not shield a bad flag laid over it
    monkeypatch.setenv(ENV_NAMES[field], str(getattr(Config(), field)))
    flags = argparse.Namespace(output_format=None, max_cells=None)
    setattr(flags, field, value)
    with pytest.raises(ValueError):
        _effective_config(flags)


def test_active_config_round_trip():
    before = get_config()
    try:
        cfg = Config(default_order=33)
        set_config(cfg)
        assert get_config().default_order == 33
    finally:
        set_config(before)
