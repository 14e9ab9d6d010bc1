import json
import math

import pytest

from melnlab.config import (OrderCoefficients, SystemConfig, config_from_dict,
                            dump_config, load_config)
from melnlab.errors import ConfigurationError


def test_roundtrip(tmp_path):
    cfg = SystemConfig(n=3, k=2, orders=(
        OrderCoefficients(a=(1.0, 2.0, 3.0), beta=(0.5, 0.0, -1.0)),
        OrderCoefficients(b=(0.1, 0.2, 0.3)),
    ))
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "orders": [], "extra": 1}))
    with pytest.raises(ConfigurationError, match="unknown keys"):
        load_config(path)
    path.write_text(json.dumps({"n": 2, "k": 1, "orders": [{"i": 1, "c": [1, 2, 3]}]}))
    with pytest.raises(ConfigurationError, match="unknown keys"):
        load_config(path)


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        SystemConfig(n=0, k=1, orders=(OrderCoefficients(),))
    with pytest.raises(ConfigurationError):
        SystemConfig(n=2, k=7, orders=tuple(OrderCoefficients() for _ in range(7)))
    with pytest.raises(ConfigurationError):
        OrderCoefficients(a=(math.inf, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        config_from_dict({"n": 2, "k": 1, "orders": [{"i": 2}]})
    with pytest.raises(ConfigurationError, match="duplicate"):
        config_from_dict({"n": 2, "k": 2, "orders": [{"i": 1}, {"i": 1}]})


def test_missing_orders_zero_filled():
    cfg = config_from_dict({"n": 2, "k": 3, "orders": [{"i": 2, "a": [1, 0, 0]}]})
    assert cfg.order(1) == OrderCoefficients()
    assert cfg.order(2).a == (1.0, 0.0, 0.0)
    assert cfg.order(3) == OrderCoefficients()


def _load_text(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return load_config(path)


@pytest.mark.parametrize("make", [
    lambda tmp: OrderCoefficients(a=(1.0, 2.0)),
    lambda tmp: SystemConfig(n=2, k=2, orders=(OrderCoefficients(),)),
    lambda tmp: SystemConfig(n=2, k=2, orders=(OrderCoefficients(),) * 2).order(3),
    lambda tmp: config_from_dict({"n": 2, "k": 1, "orders": [{"i": "1"}]}),
    lambda tmp: config_from_dict({"n": 2}),
    lambda tmp: config_from_dict({"n": 2, "k": 1, "orders": {"i": 1}}),
    lambda tmp: config_from_dict({"n": 2, "k": 1, "orders": [[1.0, 0.0, 0.0]]}),
    lambda tmp: _load_text(tmp, '{"n": 2,'),
    lambda tmp: _load_text(tmp, "[2, 1]"),
    # JSON's true is a bool, and Python's bool is an int: neither is a count
    lambda tmp: _load_text(tmp, '{"n": true, "k": 1, "orders": [{"i": 1}]}'),
    lambda tmp: _load_text(tmp, '{"n": 2, "k": true, "orders": [{"i": 1}]}'),
    lambda tmp: _load_text(tmp, '{"n": 2, "k": 1, "orders": [{"i": true}]}'),
    lambda tmp: SystemConfig(n=True, k=1, orders=(OrderCoefficients(),)),
    lambda tmp: SystemConfig(n=2, k=True, orders=(OrderCoefficients(),)),
], ids=["short-triple", "too-few-blocks", "order-above-k", "non-integer-order-index",
        "missing-k", "orders-not-a-list", "order-entry-not-an-object", "invalid-json",
        "json-not-an-object", "json-bool-n", "json-bool-k", "json-bool-order-index",
        "bool-n", "bool-k"])
def test_bad_config_is_a_configuration_error(tmp_path, make):
    with pytest.raises(ConfigurationError):
        make(tmp_path)
