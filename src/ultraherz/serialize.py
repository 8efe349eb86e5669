"""JSON encoding and decoding for radial functions and exponent laws.

Real numbers are written as decimal strings produced by ``repr(float)`` so
that a save/load round trip is bit-exact and non-finite values (``inf``)
survive, which plain JSON numbers do not allow. Loaders accept either form:
a JSON number or a decimal string.

Document shapes::

    {"ctx": {"p": 2, "n": 1},
     "window": [-1, 2],
     "coeffs": ["1.0", "0.5", "0.25", "0.0"],
     "inner_tail": {"A": "0.0", "e": "0.0"},
     "outer_tail": {"A": "0.0", "e": "0.0"},
     "value_at_zero": "1.0"}

    {"ctx": {"p": 2, "n": 1},
     "window": [-2, 2],
     "values": ["2.0", "2.0", "2.5", "2.0", "2.0"],
     "u_inner": "2.0",
     "u_infinity": "3.0"}

    {"theorem": "T31",
     "exponent": "u.json",
     "alpha": "0.25", "beta": "0.0", "m1": "1.0", "m2": "1.0",
     "lambda": "0.0"}

In a claim configuration the exponent and the optional commutator symbol
may be inlined as objects or named by file paths relative to the config
file. Each document (and each nested ``ctx`` and tail) has a fixed set of
keys. Anything malformed, including a key outside that set, raises
SerializationError carrying the file path and the offending field.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import SerializationError, UltraherzError
from .harness import TheoremConfig
from .padic import PadicContext
from .radial import ExponentFunction, RadialStepFunction, Tail


def encode_real(x: float) -> str:
    """Render a float as its shortest exact decimal string."""
    return repr(float(x))


def decode_real(value: Any, field: str, path: str | None = None) -> float:
    """Parse a JSON number or decimal string into a float."""
    if isinstance(value, bool):
        raise SerializationError("expected a real number, got a boolean", path, field)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise SerializationError(
                f"cannot parse {value!r} as a real number", path, field
            ) from None
    raise SerializationError(
        f"expected a real number, got {type(value).__name__}", path, field
    )


def _decode_int(value: Any, field: str, path: str | None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(
            f"expected an integer, got {type(value).__name__}", path, field
        )
    return value


def _check_keys(
    data: dict, keys: tuple[str, ...], path: str | None, prefix: str = ""
) -> None:
    """Refuse a key outside ``keys``: it would otherwise be ignored, and the
    document would silently mean something other than it says."""
    for key in data:
        if key not in keys:
            raise SerializationError(
                f"unknown field (known: {', '.join(keys)})", path, f"{prefix}{key}"
            )


def _require(data: dict, key: str, path: str | None) -> Any:
    if key not in data:
        raise SerializationError("missing required field", path, key)
    return data[key]


#: Largest |j| a decoded window endpoint may have. The work on a function
#: grows with its window's distance from the origin, so the decoder refuses
#: endpoints beyond this shell, and every decoded input stays within a
#: bounded cost.
WINDOW_CAP = 10_000


def _decode_window(value: Any, field: str, path: str | None) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SerializationError("window must be a two-element list", path, field)
    ends = []
    for i, end in enumerate(value):
        j = _decode_int(end, f"{field}[{i}]", path)
        if abs(j) > WINDOW_CAP:
            raise SerializationError(
                f"window endpoint {j} lies beyond shell {WINDOW_CAP} from the "
                "origin, the largest the decoder accepts",
                path,
                f"{field}[{i}]",
            )
        ends.append(j)
    return ends[0], ends[1]


def _decode_reals(value: Any, field: str, path: str | None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise SerializationError("expected a list of real numbers", path, field)
    return tuple(
        [decode_real(item, f"{field}[{i}]", path) for i, item in enumerate(value)]
    )


def context_to_dict(ctx: PadicContext) -> dict:
    return {"p": ctx.p, "n": ctx.n}


def context_from_dict(data: Any, path: str | None = None) -> PadicContext:
    if not isinstance(data, dict):
        raise SerializationError("ctx must be an object", path, "ctx")
    _check_keys(data, ("p", "n"), path, "ctx.")
    p = _decode_int(_require(data, "p", path), "ctx.p", path)
    n = _decode_int(_require(data, "n", path), "ctx.n", path)
    try:
        return PadicContext(p, n)
    except UltraherzError as exc:
        raise SerializationError(str(exc), path, "ctx") from exc


def _tail_to_dict(tail: Tail) -> dict:
    return {"A": encode_real(tail.amplitude), "e": encode_real(tail.rate)}


def _tail_from_dict(data: Any, field: str, path: str | None) -> Tail:
    if not isinstance(data, dict):
        raise SerializationError("tail must be an object with keys A and e", path, field)
    _check_keys(data, ("A", "e"), path, f"{field}.")
    amplitude = decode_real(_require(data, "A", path), f"{field}.A", path)
    rate = decode_real(_require(data, "e", path), f"{field}.e", path)
    return Tail(amplitude, rate)


_FUNCTION_KEYS = ("ctx", "window", "coeffs", "inner_tail", "outer_tail", "value_at_zero")


def function_to_dict(f: RadialStepFunction) -> dict:
    """Encode a radial step function as a JSON-ready dictionary."""
    return {
        "ctx": context_to_dict(f.ctx),
        "window": list(f.window),
        "coeffs": [encode_real(v) for v in f.coeffs],
        "inner_tail": _tail_to_dict(f.inner_tail),
        "outer_tail": _tail_to_dict(f.outer_tail),
        "value_at_zero": encode_real(f.value_at_zero),
    }


def function_from_dict(data: Any, path: str | None = None) -> RadialStepFunction:
    """Decode a radial step function; raises SerializationError when malformed."""
    if not isinstance(data, dict):
        raise SerializationError("document root must be an object", path)
    _check_keys(data, _FUNCTION_KEYS, path)
    ctx = context_from_dict(_require(data, "ctx", path), path)
    window = _decode_window(_require(data, "window", path), "window", path)
    coeffs = _decode_reals(_require(data, "coeffs", path), "coeffs", path)
    inner = _tail_from_dict(data.get("inner_tail", {"A": 0, "e": 0}), "inner_tail", path)
    outer = _tail_from_dict(data.get("outer_tail", {"A": 0, "e": 0}), "outer_tail", path)
    vz = data.get("value_at_zero")
    value_at_zero = None if vz is None else decode_real(vz, "value_at_zero", path)
    try:
        return RadialStepFunction(ctx, window, coeffs, inner, outer, value_at_zero)
    except UltraherzError as exc:
        raise SerializationError(str(exc), path) from exc


_EXPONENT_KEYS = ("ctx", "window", "values", "u_inner", "u_infinity")


def exponent_to_dict(u: ExponentFunction) -> dict:
    """Encode a piecewise exponent law as a JSON-ready dictionary."""
    return {
        "ctx": context_to_dict(u.ctx),
        "window": list(u.window),
        "values": [encode_real(v) for v in u.values],
        "u_inner": encode_real(u.u_inner),
        "u_infinity": encode_real(u.u_infinity),
    }


def exponent_from_dict(data: Any, path: str | None = None) -> ExponentFunction:
    """Decode an exponent law; raises SerializationError when malformed."""
    if not isinstance(data, dict):
        raise SerializationError("document root must be an object", path)
    _check_keys(data, _EXPONENT_KEYS, path)
    ctx = context_from_dict(_require(data, "ctx", path), path)
    window = _decode_window(_require(data, "window", path), "window", path)
    values = _decode_reals(_require(data, "values", path), "values", path)
    u_inner = decode_real(_require(data, "u_inner", path), "u_inner", path)
    u_infinity = decode_real(_require(data, "u_infinity", path), "u_infinity", path)
    try:
        return ExponentFunction(ctx, window, values, u_inner, u_infinity)
    except UltraherzError as exc:
        raise SerializationError(str(exc), path) from exc


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SerializationError(f"cannot read file: {exc}", path) from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}", path) from exc


def _write_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def load_function(path: str) -> RadialStepFunction:
    """Read a radial step function from a JSON file."""
    return function_from_dict(_read_json(path), path)


def save_function(f: RadialStepFunction, path: str) -> None:
    """Write a radial step function to a JSON file."""
    _write_json(function_to_dict(f), path)


def load_exponent(path: str) -> ExponentFunction:
    """Read an exponent law from a JSON file."""
    return exponent_from_dict(_read_json(path), path)


def save_exponent(u: ExponentFunction, path: str) -> None:
    """Write an exponent law to a JSON file."""
    _write_json(exponent_to_dict(u), path)


def theorem_config_to_dict(config: TheoremConfig) -> dict:
    """Encode a claim configuration with its exponent (and symbol) inlined."""
    data: dict[str, Any] = {
        "theorem": config.theorem,
        "exponent": exponent_to_dict(config.u),
        "alpha": encode_real(config.alpha),
        "beta": encode_real(config.beta),
        "m1": encode_real(config.m1),
        "m2": encode_real(config.m2),
        "lambda": encode_real(config.lam),
    }
    if config.symbol is not None:
        data["symbol"] = function_to_dict(config.symbol)
    return data


def _resolve_nested(value: Any, base_dir: str | None) -> Any:
    """A nested document may be inlined or named by a (relative) file path."""
    if not isinstance(value, str):
        return value
    nested = value
    if base_dir and not os.path.isabs(nested):
        nested = os.path.join(base_dir, nested)
    return _read_json(nested)


_CLAIM_KEYS = ("theorem", "exponent", "symbol", "alpha", "beta", "m1", "m2", "lambda")


def theorem_config_from_dict(
    data: Any,
    path: str | None = None,
    base_dir: str | None = None,
) -> TheoremConfig:
    """Decode a claim configuration.

    The ``exponent`` and the optional ``symbol`` may each be inlined as
    objects or given as file paths, resolved relative to ``base_dir``.
    """
    if not isinstance(data, dict):
        raise SerializationError("document root must be an object", path)
    _check_keys(data, _CLAIM_KEYS, path)
    theorem = _require(data, "theorem", path)
    if not isinstance(theorem, str):
        raise SerializationError("theorem id must be a string", path, "theorem")
    raw_u = data.get("exponent")
    if raw_u is None:
        raise SerializationError("missing required field", path, "exponent")
    u = exponent_from_dict(_resolve_nested(raw_u, base_dir), path)
    symbol = None
    if data.get("symbol") is not None:
        symbol = function_from_dict(_resolve_nested(data["symbol"], base_dir), path)

    def real(key: str, default: float) -> float:
        if key not in data:
            return default
        return decode_real(data[key], key, path)

    try:
        return TheoremConfig(
            theorem=theorem,
            u=u,
            alpha=real("alpha", 0.0),
            beta=real("beta", 0.0),
            m1=real("m1", 1.0),
            m2=real("m2", 1.0),
            lam=real("lambda", 0.0),
            symbol=symbol,
        )
    except UltraherzError as exc:
        raise SerializationError(str(exc), path) from exc


def load_theorem_config(path: str) -> TheoremConfig:
    """Read a claim configuration from a JSON file.

    Nested exponent/symbol file references resolve relative to the config
    file's own directory.
    """
    return theorem_config_from_dict(_read_json(path), path, base_dir=os.path.dirname(path))


def save_theorem_config(config: TheoremConfig, path: str) -> None:
    """Write a claim configuration to a JSON file with everything inlined."""
    _write_json(theorem_config_to_dict(config), path)
