"""JSON round trips and malformed-document diagnostics."""

from __future__ import annotations

import json
import math

import pytest

from ultraherz import (
    ExponentFunction,
    PadicContext,
    RadialStepFunction,
    SerializationError,
    Tail,
    TheoremConfig,
    exponent_from_dict,
    exponent_to_dict,
    function_from_dict,
    function_to_dict,
    load_exponent,
    load_function,
    load_theorem_config,
    save_exponent,
    save_function,
    save_theorem_config,
    theorem_config_from_dict,
    theorem_config_to_dict,
)

CTX = PadicContext(3, 2)


def _sample_function() -> RadialStepFunction:
    return RadialStepFunction(
        CTX,
        (-2, 1),
        (1.0, 0.1 + 0.2, -3.5, 7.25),
        inner_tail=Tail(0.5, 1.0),
        outer_tail=Tail(2.0, -4.0),
        value_at_zero=9.5,
    )


def test_function_round_trip_is_bit_exact():
    f = _sample_function()
    assert function_from_dict(function_to_dict(f)) == f


def test_exponent_round_trip_is_bit_exact():
    u = ExponentFunction(CTX, (-1, 1), (2.0, 1.0 / 3.0 + 2.0, 2.5), 1.5, 4.0)
    assert exponent_from_dict(exponent_to_dict(u)) == u


def test_reals_accept_numbers_and_decimal_strings():
    base = function_to_dict(RadialStepFunction.indicator_ball(CTX, 0))
    base["coeffs"] = [1]
    assert function_from_dict(base).evaluate(0) == 1.0
    base["coeffs"] = [1.5]
    assert function_from_dict(base).evaluate(0) == 1.5
    base["coeffs"] = ["1.5"]
    assert function_from_dict(base).evaluate(0) == 1.5


def test_booleans_are_not_numbers():
    base = function_to_dict(RadialStepFunction.indicator_ball(CTX, 0))
    base["coeffs"] = [True]
    with pytest.raises(SerializationError):
        function_from_dict(base)


def test_file_round_trip(tmp_path):
    f = _sample_function()
    path = tmp_path / "f.json"
    save_function(f, str(path))
    assert load_function(str(path)) == f
    u = ExponentFunction.constant(CTX, 2.0)
    upath = tmp_path / "u.json"
    save_exponent(u, str(upath))
    assert load_exponent(str(upath)) == u


def test_missing_field_names_the_field_and_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"ctx": {"p": 2, "n": 1}, "window": [0, 0]}))
    with pytest.raises(SerializationError) as err:
        load_function(str(path))
    message = str(err.value)
    assert "coeffs" in message
    assert "broken.json" in message


def test_malformed_json_reports_the_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ctx": {')
    with pytest.raises(SerializationError) as err:
        load_function(str(path))
    assert "line" in str(err.value)


def test_window_shape_errors():
    with pytest.raises(SerializationError):
        function_from_dict({"ctx": {"p": 2, "n": 1}, "window": [0], "coeffs": []})
    with pytest.raises(SerializationError):
        function_from_dict({"ctx": {"p": 2, "n": 1}, "window": [0.5, 1], "coeffs": ["1"]})


def test_constructor_violations_become_serialization_errors():
    data = {"ctx": {"p": 2, "n": 1}, "window": [2, 0], "coeffs": ["1", "1", "1"]}
    with pytest.raises(SerializationError):
        function_from_dict(data)
    with pytest.raises(SerializationError):
        exponent_from_dict(
            {"ctx": {"p": 2, "n": 1}, "window": [0, 0], "values": ["0.5"],
             "u_inner": "2", "u_infinity": "2"}
        )


def test_infinity_survives_the_string_encoding():
    f = RadialStepFunction(CTX, (0, 0), (1.0,), value_at_zero=math.inf)
    restored = function_from_dict(function_to_dict(f))
    assert math.isinf(restored.value_at_zero)


def test_theorem_config_round_trip():
    u = ExponentFunction(CTX, (-1, 0), (2.0, 2.5), 2.0, 3.0)
    b = RadialStepFunction(CTX, (0, 1), (1.0, -1.0))
    config = TheoremConfig(
        "T42", u, alpha=0.125, beta=0.25, m1=1.0, m2=2.0, lam=0.5,
        symbol=b,
    )
    assert theorem_config_from_dict(theorem_config_to_dict(config)) == config


def test_theorem_config_defaults_and_overrides():
    u = ExponentFunction.constant(CTX, 2.0)
    data = {"theorem": "C31", "exponent": exponent_to_dict(u)}
    config = theorem_config_from_dict(data)
    assert config.alpha == 0.0 and config.m1 == 1.0 and config.lam == 0.0


def test_theorem_config_nested_paths_resolve_relative(tmp_path):
    u = ExponentFunction.constant(CTX, 2.5)
    save_exponent(u, str(tmp_path / "u.json"))
    cfg_path = tmp_path / "tc.json"
    cfg_path.write_text(json.dumps({"theorem": "C31", "exponent": "u.json"}))
    config = load_theorem_config(str(cfg_path))
    assert config.u == u


def test_theorem_config_bad_ids_are_serialization_errors(tmp_path):
    u = ExponentFunction.constant(CTX, 2.0)
    data = {"theorem": "T99", "exponent": exponent_to_dict(u)}
    with pytest.raises(SerializationError):
        theorem_config_from_dict(data)
    with pytest.raises(SerializationError):
        theorem_config_from_dict({"exponent": exponent_to_dict(u)})


def test_theorem_config_family_validation():
    """The sweep's sizes and count are the caller's arguments; a ``family``
    block in the file is refused by name, not ignored."""
    u = ExponentFunction.constant(CTX, 2.0)
    data = {"theorem": "C31", "exponent": exponent_to_dict(u), "family": {"sizes": [3]}}
    with pytest.raises(SerializationError) as err:
        theorem_config_from_dict(data)
    assert err.value.field == "family"
    assert "'family'" in str(err.value)


def test_every_decoder_refuses_an_unknown_key_by_name():
    """A retired or misspelt key is refused, never read as its default."""
    u = exponent_to_dict(ExponentFunction.constant(CTX, 2.0))
    f = function_to_dict(_sample_function())
    claim = {"theorem": "T41", "exponent": u}
    cases = [
        (theorem_config_from_dict, {**claim, "lamda": "0.5"}, "lamda"),
        (theorem_config_from_dict, {**claim, "mh_base": "2.0"}, "mh_base"),
        (theorem_config_from_dict, {"theorem": "T41", "u": u}, "u"),
        (theorem_config_from_dict, {**claim, "exponent": {**u, "u_inf": "2"}}, "u_inf"),
        (exponent_from_dict, {**u, "ctx": {"p": 2, "n": 1, "dim": 1}}, "ctx.dim"),
        (function_from_dict, {**f, "coefs": f["coeffs"]}, "coefs"),
        (function_from_dict, {**f, "inner_tail": {"A": 1, "rate": 0}}, "inner_tail.rate"),
        (function_from_dict, {**f, "outer_tail": {"A": 1, "e": -2, "B": 0}}, "outer_tail.B"),
    ]
    for decode, data, field in cases:
        with pytest.raises(SerializationError) as err:
            decode(data)
        assert err.value.field == field


def test_theorem_config_file_round_trip(tmp_path):
    u = ExponentFunction.constant(CTX, 2.0)
    config = TheoremConfig("T31", u, alpha=0.2)
    path = tmp_path / "tc.json"
    save_theorem_config(config, str(path))
    assert load_theorem_config(str(path)) == config
