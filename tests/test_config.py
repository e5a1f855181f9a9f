import pytest

from qbrackets import Config, get_config, load_config, set_config


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
def test_config_rejects_out_of_range_values(field, value):
    # load_config and dataclasses.replace both construct through this check
    with pytest.raises(ValueError):
        Config(**{field: value})


def test_active_config_round_trip():
    before = get_config()
    try:
        cfg = Config(default_order=33)
        set_config(cfg)
        assert get_config().default_order == 33
    finally:
        set_config(before)
