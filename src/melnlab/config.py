"""System configuration: switching degree, perturbation order, coefficients."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from .errors import ConfigurationError

__all__ = ["OrderCoefficients", "SystemConfig", "load_config", "dump_config"]

MAX_ORDER = 6


def _is_int(v) -> bool:
    """True for an int that is not a bool (JSON's true and false are not counts)."""
    return isinstance(v, int) and not isinstance(v, bool)


class OrderCoefficients(namedtuple("OrderCoefficients", "a b alpha beta",
                                   defaults=4 * ((0.0, 0.0, 0.0),))):
    """The twelve affine coefficients of one perturbation order.

    ``a``/``b`` drive the field above the switching curve, ``alpha``/``beta``
    below; each triple is (constant, x-slope, y-slope) and defaults to zeros.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        triples = super().__new__(cls, *args, **kwargs)
        for name, triple in zip(cls._fields, triples):
            if len(triple) != 3:
                raise ConfigurationError(f"coefficient triple {name!r} must have 3 entries")
            if not all(math.isfinite(v) for v in triple):
                raise ConfigurationError(f"coefficient triple {name!r} has non-finite entries")
        return super().__new__(cls, *(tuple(float(v) for v in t) for t in triples))


class SystemConfig(namedtuple("SystemConfig", "n k orders")):
    """Piecewise-linear perturbation of the linear center split by y = x^n,
    with one :class:`OrderCoefficients` block per order 1..k in ``orders``."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, orders):
        if not (_is_int(n) and n >= 1):
            raise ConfigurationError(f"switching degree n must be a positive integer, got {n!r}")
        if not (_is_int(k) and 1 <= k <= MAX_ORDER):
            raise ConfigurationError(f"perturbation order k must be in [1, {MAX_ORDER}], got {k!r}")
        orders = tuple(orders)
        if len(orders) != k:
            raise ConfigurationError(f"expected {k} coefficient blocks, got {len(orders)}")
        return super().__new__(cls, n, k, orders)

    def order(self, i: int) -> OrderCoefficients:
        """Coefficients of perturbation order ``i`` (1-based)."""
        if not 1 <= i <= self.k:
            raise ConfigurationError(f"order {i} outside 1..{self.k}")
        return self.orders[i - 1]


def _order_from_mapping(entry: dict, position: int) -> tuple[int, OrderCoefficients]:
    allowed = {"i", "a", "b", "alpha", "beta"}
    unknown = set(entry) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in order entry: {sorted(unknown)}")
    i = entry.get("i", position)
    if not _is_int(i):
        raise ConfigurationError(f"order index must be an integer, got {i!r}")
    oc = OrderCoefficients(
        a=tuple(entry.get("a", (0.0, 0.0, 0.0))),
        b=tuple(entry.get("b", (0.0, 0.0, 0.0))),
        alpha=tuple(entry.get("alpha", (0.0, 0.0, 0.0))),
        beta=tuple(entry.get("beta", (0.0, 0.0, 0.0))),
    )
    return i, oc


def config_from_dict(data: dict) -> SystemConfig:
    """Build a :class:`SystemConfig` from the JSON parameter-file layout.

    Unknown keys are rejected; orders may be given in any order but must not
    repeat and must stay within 1..k (missing orders are zero-filled).
    """
    allowed = {"n", "k", "orders"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in config: {sorted(unknown)}")
    try:
        n = data["n"]
        k = data["k"]
    except KeyError as exc:
        raise ConfigurationError(f"missing required key {exc}") from exc
    entries = data.get("orders", [])
    if not isinstance(entries, list):
        raise ConfigurationError("'orders' must be a list")
    blocks: dict[int, OrderCoefficients] = {}
    for pos, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            raise ConfigurationError("each order entry must be an object")
        i, oc = _order_from_mapping(entry, pos)
        if not (isinstance(k, int) and 1 <= i <= k):
            raise ConfigurationError(f"order index {i} outside 1..{k}")
        if i in blocks:
            raise ConfigurationError(f"duplicate order index {i}")
        blocks[i] = oc
    orders = tuple(blocks.get(i, OrderCoefficients()) for i in range(1, (k if isinstance(k, int) else 0) + 1))
    return SystemConfig(n=n, k=k, orders=orders)


def config_to_dict(config: SystemConfig) -> dict:
    return {
        "n": config.n,
        "k": config.k,
        "orders": [
            {
                "i": i,
                "a": list(oc.a),
                "b": list(oc.b),
                "alpha": list(oc.alpha),
                "beta": list(oc.beta),
            }
            for i, oc in enumerate(config.orders, start=1)
        ],
    }


def load_config(path: str | Path) -> SystemConfig:
    """Load and validate a JSON parameter file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must contain a JSON object")
    return config_from_dict(data)


def dump_config(config: SystemConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
