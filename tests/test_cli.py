"""End-to-end checks of the command-line interface (in-process, plus
out-of-process smoke tests of ``python -m ultraherz`` and the script)."""

from __future__ import annotations

import argparse
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ultraherz
from ultraherz import (
    ExponentFunction,
    PadicContext,
    RadialStepFunction,
    Tail,
    TheoremConfig,
    ball_integral,
    conjugate,
    exponent_to_dict,
    function_from_dict,
    hardy,
    load_exponent,
    load_function,
    load_theorem_config,
    save_exponent,
    save_function,
    save_theorem_config,
)
from ultraherz.cli import build_parser, main
from ultraherz.padic import SHELL_LIMIT

CTX = PadicContext(2, 1)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def files(tmp_path):
    """Write the standard input files once per test."""
    paths = {
        "f": tmp_path / "f.json",
        "f2": tmp_path / "f2.json",
        "u": tmp_path / "u.json",
        "tc": tmp_path / "tc.json",
        "tc_bad": tmp_path / "tc_bad.json",
    }
    save_function(RadialStepFunction.indicator_sphere(CTX, 0), str(paths["f"]))
    save_function(RadialStepFunction(CTX, (0, 1), (1.0, 1.0)), str(paths["f2"]))
    u = ExponentFunction.constant(CTX, 2.0)
    save_exponent(u, str(paths["u"]))
    save_theorem_config(TheoremConfig("T31", u, alpha=0.25), str(paths["tc"]))
    save_theorem_config(TheoremConfig("T31", u, alpha=0.6), str(paths["tc_bad"]))
    return {key: str(path) for key, path in paths.items()}


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_norm_defaults_to_the_lebesgue_space(files, capsys):
    assert main(["norm", "-i", files["f"], "-u", files["u"]]) == 0
    payload = _json_out(capsys)
    assert set(payload) == {"value", "convergent", "tail_remainder_bound"}
    assert float(payload["value"]) == pytest.approx(math.sqrt(0.5), rel=1e-9)
    assert payload["convergent"] is True


def test_norm_herz_space(files, capsys):
    code = main(
        ["norm", "--space", "herz", "--beta", "0", "--m", "2",
         "-u", files["u"], "-i", files["f2"]]
    )
    assert code == 0
    assert float(_json_out(capsys)["value"]) == pytest.approx(
        math.sqrt(1.5), rel=1e-12
    )


def test_norm_morrey_herz_space(files, capsys):
    code = main(
        ["norm", "--space", "morrey-herz", "--beta", "0.1", "--m", "2",
         "--lambda", "0.2", "-u", files["u"], "-i", files["f2"]]
    )
    assert code == 0
    assert float(_json_out(capsys)["value"]) > 0.0


def test_apply_hardy_writes_the_image(files, tmp_path, capsys):
    out = tmp_path / "image.json"
    code = main(
        ["apply", "-i", files["f"], "--operator", "hardy",
         "--alpha", "0.25", "-o", str(out)]
    )
    assert code == 0
    image = function_from_dict(json.loads(out.read_text()))
    direct = hardy(RadialStepFunction.indicator_sphere(CTX, 0), 0.25)
    assert image.evaluate(2) == pytest.approx(direct.evaluate(2), rel=1e-12)
    code = main(["apply", "-i", files["f"], "--operator", "hardy"])
    assert code == 0
    assert "coeffs" in _json_out(capsys)


def test_apply_commutator_needs_a_symbol(files, capsys):
    code = main(["apply", "-i", files["f"], "--operator", "commutator"])
    assert code == 1
    assert "symbol" in capsys.readouterr().err


def test_cmo_of_a_ball_indicator(files, tmp_path, capsys):
    ball = tmp_path / "ball.json"
    save_function(RadialStepFunction.indicator_ball(CTX, 0), str(ball))
    assert main(["norm", "--space", "cmo", "-i", str(ball), "-u", files["u"]]) == 0
    assert float(_json_out(capsys)["value"]) == pytest.approx(0.5, rel=1e-6)


def test_oracle_integral_task(files, capsys):
    code = main(
        ["oracle", "-i", files["f"], "--task", "integral", "--gamma", "0",
         "--samples", "2000", "--seed", "3"]
    )
    assert code == 0
    payload = _json_out(capsys)
    assert float(payload["value"]) == pytest.approx(0.5, rel=1e-9)
    assert payload["samples"] >= 2000


def test_oracle_norm_task(files, capsys):
    argv = ["oracle", "-i", files["f"], "--task", "norm", "--samples", "2000", "--seed", "3"]
    assert main(argv + ["-u", files["u"]]) == 0
    payload = _json_out(capsys)
    spread = 5 * float(payload["std_error"]) + 1e-9
    assert float(payload["value"]) == pytest.approx(math.sqrt(0.5), abs=spread)
    assert main(argv) == 1
    assert "needs --exponent" in capsys.readouterr().err


def test_oracle_operator_task(files, tmp_path, capsys):
    steps = RadialStepFunction(CTX, (-3, 0), (1.0, 2.0, 3.0, 5.0))
    path = tmp_path / "steps.json"
    save_function(steps, str(path))
    code = main(
        ["oracle", "-i", str(path), "--task", "operator", "--operator", "hardy",
         "--shell", "1", "--alpha", "0.25", "--samples", "2000", "--seed", "3"]
    )
    assert code == 0
    payload = _json_out(capsys)
    spread = 5 * float(payload["std_error"]) + 1e-9
    assert float(payload["value"]) == pytest.approx(hardy(steps, 0.25).evaluate(1), abs=spread)


def test_oracle_operator_task_requires_a_shell(files, capsys):
    code = main(["oracle", "-i", files["f"], "--task", "operator"])
    assert code == 1
    assert "--shell" in capsys.readouterr().err


def test_oracle_without_a_seed_defaults_to_seed_zero(files, tmp_path, capsys):
    steps = tmp_path / "steps.json"
    save_function(RadialStepFunction(CTX, (-3, 0), (1.0, 2.0, 3.0, 5.0)), str(steps))
    argv = ["oracle", "-i", str(steps), "--task", "integral", "--gamma", "0",
            "--samples", "2000", "--naive"]
    outputs = []
    for extra in ([], [], ["--seed", "0"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_validate_satisfied_claim(files, capsys):
    assert main(["validate", "--config", files["tc"]]) == 0
    out = capsys.readouterr().out
    assert "ok   alpha-range" in out
    assert out.strip().endswith("claim T31: hypotheses satisfied")


def test_validate_violated_claim(files, capsys):
    assert main(["validate", "--config", files["tc_bad"]]) == 2
    out = capsys.readouterr().out
    assert "FAIL alpha-range" in out
    assert "claim T31: hypotheses violated" in out


def test_sweep_csv_on_stdout_is_seeded(files, capsys):
    argv = ["sweep", "--config", files["tc"], "--sizes", "3,5",
            "--count", "4", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "sample_id,N,source_norm,target_norm,ratio"
    assert len(first.splitlines()) == 9
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_sweep_to_file_reports_suprema(files, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        ["sweep", "--config", files["tc"], "--sizes", "3", "--count", "4",
         "--seed", "7", "-o", str(out)]
    )
    assert code == 0
    console = capsys.readouterr().out
    assert "N=3: sup ratio" in console
    assert out.read_text().startswith("sample_id,N,")


def test_sweep_with_no_samples_flags_the_undefined_supremum(files, tmp_path, capsys):
    out = tmp_path / "empty.csv"
    code = main(
        ["sweep", "--config", files["tc"], "--sizes", "3", "--count", "0",
         "-o", str(out)]
    )
    assert code == 0
    assert "no samples drawn; supremum undefined" in capsys.readouterr().out
    assert out.read_text() == "sample_id,N,source_norm,target_norm,ratio\n"


def test_sweep_refuses_a_violated_claim(files, capsys):
    code = main(["sweep", "--config", files["tc_bad"], "--count", "1"])
    assert code == 2
    assert "hypothesis violation" in capsys.readouterr().err


def test_probe_mode_emits_shell_ratios(files, capsys):
    code = main(
        ["sweep", "--config", files["tc"], "--probe", "--probe-shells", "4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "shell,ratio"
    assert len(lines) == 5
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert ratios == sorted(ratios)


def test_probe_mode_to_file_writes_the_same_csv(files, tmp_path, capsys):
    """The probe writes to a file the bytes it prints, and prints nothing."""
    argv = ["sweep", "--config", files["tc"], "--probe", "--probe-shells", "4"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "probe.csv"
    assert main([*argv, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


def _readme_usage(block_index: int = 1) -> dict[str, str]:
    """A code block of the README's command-line section (1 is the usage
    block, 3 the examples): each subcommand's lines, by name."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```")[block_index].split("\n", 1)[1]  # past the fence tag
    usage: dict[str, str] = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["ultraherz"]:
            command = words[1]
            usage[command] = ""
        if words:
            usage[command] += line + "\n"
    return usage


def test_readme_usage_block_lists_every_option():
    """Every option of every subcommand appears, by one of its spellings, on
    that subcommand's lines of the README's command-line block, and those
    lines (and the examples) name no option that the subcommand lacks. An
    ``a|b|c`` list after an option there is that option's choices, in order,
    and every option with choices has one."""
    usage = _readme_usage()
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(usage) == sorted(commands.choices)
    for name, sub in commands.choices.items():
        listed = {
            sub._option_string_actions[option]: choices.split("|")
            for option, choices in re.findall(
                r"(?<![\w-])(--?[A-Za-z][\w-]*) ([\w.-]+(?:\|[\w.-]+)+)", usage[name]
            )
        }
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert any(
                re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", usage[name])
                for option in action.option_strings
            ), f"README usage of {name!r} lacks {'/'.join(action.option_strings)}"
            assert listed.pop(action, None) == (
                list(action.choices) if action.choices else None
            ), f"README lists stale choices for {name!r} {'/'.join(action.option_strings)}"
        assert not listed
    for lines in (usage, _readme_usage(3)):
        for name, text in lines.items():
            known = commands.choices[name]._option_string_actions
            for option in re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", text):
                assert option in known, f"README names {option} for {name!r}, which lacks it"


def test_readme_input_file_examples_decode(tmp_path):
    """The README's f.json, u.json and tc.json examples load through the
    strict decoders, the claim config with its exponent named by path."""
    section = README.read_text().split("## Input files", 1)[1].split("## Command line")[0]
    for name in ("f.json", "u.json", "tc.json"):
        example = section.split(f"`{name}`", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        (tmp_path / name).write_text(example)
    assert load_function(str(tmp_path / "f.json")).evaluate(1) == 0.5
    u = load_exponent(str(tmp_path / "u.json"))
    config = load_theorem_config(str(tmp_path / "tc.json"))
    assert config.u == u and config.theorem == "T31"


def test_usage_errors_exit_one(files, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["norm"]) == 1
    assert main(["norm", "-i", files["f"], "-u", files["u"], "--literal"]) == 1
    assert main(["check"]) == 1  # a removed subcommand
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "-i", "{f}", "--task", "integral"], "oracle integral task needs --gamma"),
        (["apply", "-i", "{f}", "--operator", "hardy", "-o", "{missing}/image.json"],
         "No such file or directory"),
        (["sweep", "--config", "{tc}", "--count", "1", "-o", "{missing}/sweep.csv"],
         "No such file or directory"),
    ],
    ids=["oracle-integral-without-gamma", "apply-into-a-missing-directory",
         "sweep-into-a-missing-directory"],
)
def test_a_refused_command_exits_one_with_one_error_line(files, tmp_path, capsys, argv, message):
    """A domain error or an output file that cannot be opened exits 1 with
    an ``error:`` line, no traceback and nothing on stdout."""
    names = {**files, "missing": str(tmp_path / "missing")}
    assert main([arg.format(**names) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [["norm"], ["oracle", "--task", "norm", "--samples", "1000"]],
    ids=["norm", "oracle"],
)
def test_a_rel_tol_out_of_range_exits_one(files, capsys, command):
    """--rel-tol 5 is refused by the closed-form norm and the oracle alike."""
    argv = [*command, "-i", files["f2"], "-u", files["u"], "--rel-tol", "5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rel_tol must lie in (1e-14, 1e-3)")


def test_norm_rejects_a_nan_coefficient(files, tmp_path, capsys):
    payload = json.loads(Path(files["f"]).read_text())
    payload["coeffs"] = ["nan"]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    assert main(["norm", "-i", str(path), "-u", files["u"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN" in captured.err


def test_norm_rejects_an_infinite_coefficient(files, tmp_path, capsys):
    payload = json.loads(Path(files["f"]).read_text())
    payload["coeffs"] = ["inf"]
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(payload))
    assert main(["norm", "-i", str(path), "-u", files["u"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inf" in captured.err


def test_herz_norm_overflow_exits_one(files, tmp_path, capsys):
    path = tmp_path / "far.json"
    save_function(RadialStepFunction(CTX, (1100, 1100), (1.0,)), str(path))
    code = main(
        ["norm", "--space", "herz", "--beta", "0", "--m", "2",
         "-u", files["u"], "-i", str(path)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows" in captured.err


@pytest.mark.parametrize(
    "shell, space, message",
    [
        (-1100, [], "rounds to 0.0"),
        (1100, [], "overflows"),
        (1100, ["--space", "herz", "--beta", "0.5", "--m", "2"], "overflows"),
    ],
    ids=["lebesgue-underflow", "lebesgue-overflow", "herz-overflow"],
)
def test_extreme_shell_norms_exit_one(files, tmp_path, capsys, shell, space, message):
    """At p = 2 and u = 2, chi(S_-1100) (norm about 1.9e-166) must not print
    0.0, and chi(S_1100) (norm about 2.6e165) must not print a divergence."""
    path = tmp_path / "shell.json"
    save_function(RadialStepFunction(CTX, (shell, shell), (1.0,)), str(path))
    assert main(["norm", *space, "-u", files["u"], "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_windows_past_the_decode_cap_exit_one(files, tmp_path, capsys):
    """A window endpoint one shell past SHELL_LIMIT is refused when the file
    is read, before any work on it starts; the limit itself still decodes.
    The constructors refuse such windows too, so the documents are written
    as plain JSON."""
    far = SHELL_LIMIT + 1
    ctx = {"p": 2, "n": 1}
    documents = {
        "far.json": {"ctx": ctx, "window": [-far, -far], "coeffs": ["1"]},
        "b.json": {"ctx": ctx, "window": [0, far], "coeffs": ["1"] * (far + 1)},
        "u_far.json": {
            "ctx": ctx, "window": [far, far], "values": ["2"],
            "u_inner": "2", "u_infinity": "2",
        },
    }
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document))
    path, symbol, u_far = (str(tmp_path / name) for name in documents)
    for argv, field in [
        (["norm", "-u", files["u"], "-i", path], "window[0]"),
        (["norm", "-u", u_far, "-i", files["f"]], "window[0]"),
        (["apply", "-i", path, "--operator", "hardy"], "window[0]"),
        (["norm", "--space", "cmo", "-i", symbol, "-u", files["u"]], "window[1]"),
    ]:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert field in captured.err and str(SHELL_LIMIT) in captured.err
    save_function(RadialStepFunction(CTX, (-SHELL_LIMIT, -SHELL_LIMIT), (1.0,)), path)
    assert load_function(path).window == (-SHELL_LIMIT, -SHELL_LIMIT)


def test_apply_refuses_an_image_past_the_shell_limit(tmp_path, capsys):
    """The adjoint of chi(S_SHELL_LIMIT) lives on [SHELL_LIMIT - 1,
    SHELL_LIMIT + 1]; apply refuses it rather than write a file that would
    not decode again."""
    path, out = tmp_path / "edge.json", tmp_path / "image.json"
    save_function(RadialStepFunction(CTX, (SHELL_LIMIT, SHELL_LIMIT), (1.0,)), str(path))
    argv = ["apply", "-i", str(path), "--operator", "adjoint", "-o", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "window[1]" in captured.err and str(SHELL_LIMIT) in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    ("shell", "task"),
    [
        (1100, ["--task", "norm"]),
        (1020, ["--task", "norm"]),
        (1100, ["--task", "operator", "--operator", "adjoint", "--shell", "0"]),
        (-1100, ["--task", "norm"]),
        (-1100, ["--task", "operator", "--operator", "hardy", "--shell", "-1000"]),
        (0, ["--task", "integral", "--naive", "--gamma", "1200"]),
    ],
    ids=[
        "norm-nan-allocation", "norm-overflowing-quota", "adjoint-nan-allocation",
        "norm-underflow", "hardy-underflow", "naive-integral-overflow",
    ],
)
def test_oracle_past_the_float_range_exits_one(files, tmp_path, capsys, shell, task):
    """At p = 2 and u = 2, an oracle run whose stratum measure or shell scale
    leaves the float range exits 1 with a typed error. Unchecked, the first
    three crashed with a nan or infinite allocation, the next two printed
    0.0 +- 0.0 for a positive value and the last printed nan."""
    path = tmp_path / "shell.json"
    save_function(RadialStepFunction(CTX, (shell, shell), (1.0,)), str(path))
    assert main(["oracle", "-i", str(path), "-u", files["u"], *task]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float range" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    ("coefficient", "shell", "exponent", "norm"),
    [
        (1e160, 0, 2.0, 1e160 * math.sqrt(0.5)),
        (1e-299, 0, 2.0, 1e-299 * math.sqrt(0.5)),
        (1e-301, 0, 1.0, 5e-302),
        (1.7e308, 0, 1.0, 8.5e307),
        (1e-310, 0, 1.0, None),
        (1.7e308, 2, 1.0, None),
    ],
    ids=[
        "modular-overflow", "modular-underflow", "norm-near-min", "norm-near-max",
        "norm-underflow", "norm-overflow",
    ],
)
def test_oracle_norm_at_the_float_range(tmp_path, capsys, coefficient, shell, exponent, norm):
    """The oracle's Luxemburg norm of c chi(S_shell) near an end of the float
    range prints a finite estimate; past it, it exits 1 with a typed error.
    The first four used to end in a traceback, 0.0, a traceback and inf."""
    f, u = tmp_path / "f.json", tmp_path / "u.json"
    save_function(RadialStepFunction(CTX, (shell, shell), (coefficient,)), str(f))
    save_exponent(ExponentFunction.constant(CTX, exponent), str(u))
    code = main(["oracle", "-i", str(f), "-u", str(u), "--task", "norm", "--samples", "1000"])
    if norm is None:
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "float range" in captured.err
        assert "Traceback" not in captured.err
    else:
        assert code == 0
        assert float(_json_out(capsys)["value"]) == pytest.approx(norm, rel=1e-9, abs=0.0)


def test_oracle_naive_variance_past_the_float_range_exits_one(tmp_path, capsys):
    """Plain sampling of values +-1e200 used to end in a traceback."""
    path = tmp_path / "f.json"
    save_function(RadialStepFunction(CTX, (0, 1), (1e200, -1e200)), str(path))
    argv = ["oracle", "-i", str(path), "--gamma", "1", "--naive", "--samples", "1000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "float range" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "task",
    [["--task", "norm"], ["--task", "operator", "--operator", "adjoint", "--shell", "0"]],
    ids=["norm", "adjoint"],
)
def test_oracle_naive_over_an_unbounded_region_exits_one(files, capsys, task):
    """``--naive`` used to be ignored by these tasks, which printed the
    stratified estimate; they integrate over unbounded regions, which plain
    ball sampling cannot cover."""
    argv = ["oracle", "-i", files["f2"], "-u", files["u"], "--naive", *task]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "no plain sampling" in captured.err


def test_oracle_integral_over_a_ball_whose_measure_squares_past_the_float_range(
    tmp_path, capsys
):
    """The residual ball B_599 has a measure whose square leaves the float
    range; the integral over B_601 used to end in a traceback."""
    path = tmp_path / "f.json"
    f = RadialStepFunction(CTX, (600, 601), (1.0, 2.0))
    save_function(f, str(path))
    argv = ["oracle", "-i", str(path), "--gamma", "601", "--window", "600", "601",
            "--samples", "1000"]
    assert main(argv) == 0
    payload = _json_out(capsys)
    assert float(payload["value"]) == pytest.approx(ball_integral(f, 601), rel=1e-12)
    assert float(payload["value"]) == pytest.approx(1.04e181, rel=0.01)
    assert math.isfinite(float(payload["std_error"]))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _signature(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (
            tuple(action.option_strings),
            action.dest,
            action.default,
            action.type,
            action.choices,
            action.required,
            action.nargs,
        )
        for action in parser._actions
    ]


def _parser_main_builds(command: str, monkeypatch) -> argparse.ArgumentParser:
    """The parser that ``main([command])`` parses with, caught at parse time."""
    built = []

    def record(self, args=None, namespace=None):
        built.append(self)
        raise SystemExit(0)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", record)
        assert main([command]) == 0
    return built[0]


@pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
def test_one_command_parser_matches_the_full_parser(command, monkeypatch):
    """``main`` parses a subcommand with that subcommand's parser alone; it
    must take the same options, defaults and handler, and print the same
    help, as the subcommand in the full parser."""
    alone = _parser_main_builds(command, monkeypatch)
    full = _subparsers(build_parser())[command]
    assert _signature(alone) == _signature(full)
    assert alone._defaults == full._defaults
    assert alone.format_help() == full.format_help()


@pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
def test_a_known_command_builds_no_subparsers(command, monkeypatch, capsys):
    def refuse(self, **kwargs):
        raise AssertionError("main built a subparsers action")

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", refuse)
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: ultraherz {command} ")


def test_usage_error_after_a_command_shows_that_commands_usage(files, capsys):
    assert main(["validate", "--config", files["tc"], "--theorem", "T31"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ultraherz validate [-h] --config CONFIG")
    error = "ultraherz validate: error: unrecognized arguments: --theorem T31"
    assert error in captured.err


def test_no_command_or_an_unknown_one_exits_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["--no-such-option"]) == 1
    capsys.readouterr()


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in _subparsers(build_parser()):
        assert re.search(rf"^\s+{command}\s", out, re.MULTILINE), command


@pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
def test_subcommand_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: ultraherz {command} ")


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ultraherz", "sweep", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: ultraherz sweep ")


def test_missing_input_file_exits_one(files, capsys):
    code = main(["norm", "-i", "/nonexistent/f.json", "-u", files["u"]])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_retired_inputs_fail_loudly(files, tmp_path, capsys):
    """A file with a retired or misspelt key is refused by name rather than
    read as something else; the retired subcommand and flags are usage
    errors."""
    exponent = exponent_to_dict(ExponentFunction.constant(CTX, 2.0))
    claim = {"theorem": "T41", "exponent": exponent}
    f = json.loads(Path(files["f"]).read_text())
    for key, command, data in [
        ("family", "sweep", {**claim, "family": {"sizes": [3], "count": 2}}),
        ("mh_base", "validate", {**claim, "mh_base": "2.0"}),
        ("u", "validate", {"theorem": "T41", "u": exponent}),
        ("lamda", "validate", {**claim, "lamda": "0.5"}),
        ("coefs", "norm", {**f, "coefs": ["1"]}),
        ("inner_tail.rate", "norm", {**f, "inner_tail": {"A": 1, "rate": 0}}),
        ("ctx.dim", "norm", {**f, "ctx": {"p": 2, "n": 1, "dim": 1}}),
    ]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(data))
        if command == "norm":
            argv = ["norm", "-i", str(path), "-u", files["u"]]
        else:
            argv = [command, "--config", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"'{key}'" in captured.err
        assert "Traceback" not in captured.err
    for argv in (
        ["cmo", "--symbol", files["f"], "-u", files["u"]],
        ["norm", "--space", "morrey-herz", "--lambda", "0.2", "--mh-base", "2",
         "-i", files["f"], "-u", files["u"]],
        ["validate", "--config", files["tc"], "--theorem", "T31"],
        ["sweep", "--config", files["tc"], "--theorem", "T31"],
        ["apply", "-i", files["f"], "--operator", "maximal"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: ultraherz" in captured.err and "Traceback" not in captured.err


def _project_script(name: str) -> str:
    """Target of ``name`` in the ``[project.scripts]`` table of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def _run_module(args: list[str], cwd, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python -m ultraherz`` on the package this suite imported.

    The imported package's parent directory leads PYTHONPATH, so an
    uninstalled checkout works; ``cwd`` is kept away from the checkout so
    the result does not depend on where pytest was started.
    """
    package_root = str(Path(ultraherz.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "ultraherz", *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env,
    )


def test_console_script_smoke(files, tmp_path):
    result = _run_module(["norm", "-i", files["f"], "-u", files["u"]], tmp_path)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["convergent"] is True
    # the exit code reserved for hypothesis violations survives __main__
    violated = _run_module(["validate", "--config", files["tc_bad"]], tmp_path)
    assert violated.returncode == 2, violated.stderr
    assert "claim T31: hypotheses violated" in violated.stdout
    # the installed ``ultraherz`` script calls this very function
    assert pkgutil.resolve_name(_project_script("ultraherz")) is main


def test_hardy_of_an_overflowing_ball_integral_exits_one(tmp_path):
    """Out of process, so a traceback on stderr would show."""
    path = tmp_path / "far.json"
    save_function(RadialStepFunction(CTX, (1100, 1100), (1.0,)), str(path))
    result = _run_module(["apply", "-i", str(path), "--operator", "hardy"], tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "overflow" in result.stderr
    assert "Traceback" not in result.stderr


def test_hardy_of_an_overflowing_image_coefficient_exits_one(tmp_path):
    """Out of process, so a traceback on stderr would show. At alpha = -1
    the image coefficient on S_-1100 is 2**2200 times the integral 2**-1101,
    past the float range even when scaled exactly."""
    path = tmp_path / "near.json"
    save_function(RadialStepFunction(CTX, (-1100, -1100), (1.0,)), str(path))
    result = _run_module(
        ["apply", "-i", str(path), "--operator", "hardy", "--alpha=-1"], tmp_path
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "overflow" in result.stderr
    assert "Traceback" not in result.stderr


def test_cmo_scan_past_the_float_range_exits_one(tmp_path):
    """Out of process, so a traceback on stderr would show."""
    ctx = PadicContext(2, 3)
    b = RadialStepFunction(
        ctx,
        (-4, -1),
        (1.3897349477489307, 1.0550984759064561, -0.9797238970423132, -0.018259651632236196),
        outer_tail=Tail(-1.828178779437994, -0.5),
    )
    u = conjugate(ExponentFunction(ctx, (0, 0), (2.0,), 2.0, 1.0005))
    save_function(b, str(tmp_path / "b.json"))
    save_exponent(u, str(tmp_path / "u.json"))
    argv = ["norm", "--space", "cmo", "-i", "b.json", "-u", "u.json"]
    result = _run_module(argv, tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "overflow" in result.stderr
    assert "Traceback" not in result.stderr


def test_cmo_at_the_shell_limit_exits_one_in_bounded_time(files, tmp_path, capsys):
    """chi(S_SHELL_LIMIT) at p = 2, u = 2 has ball measures past the float
    range. Every ball inside the sphere has zero oscillation and costs
    nothing, so the refusal comes after a few radii, not after a scan over
    all of them. A flat outer tail under u_infinity = 1e17 has an envelope
    that never decays, so its scan ends where the ball measures leave the
    float range."""
    far = tmp_path / "far.json"
    save_function(RadialStepFunction.indicator_sphere(CTX, SHELL_LIMIT), str(far))
    flat = tmp_path / "flat.json"
    b = RadialStepFunction(CTX, (0, 1), (1.0, 0.0), outer_tail=Tail(0.5, 0.0))
    save_function(b, str(flat))
    steep = tmp_path / "steep.json"
    save_exponent(ExponentFunction(CTX, (0, 1), (2.0, 2.0), 2.0, 1e17), str(steep))
    for function, exponent in ((far, files["u"]), (flat, steep)):
        started = time.perf_counter()
        code = main(["norm", "-i", str(function), "-u", str(exponent), "--space", "cmo"])
        elapsed = time.perf_counter() - started
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert elapsed < 5.0


def test_validate_passes_a_bounded_symbol_with_an_exponent_next_to_one(tmp_path, capsys):
    path = tmp_path / "c32.json"
    u = ExponentFunction.constant(CTX, 1.002)
    save_theorem_config(TheoremConfig("C32", u), str(path))
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok   symbol-oscillation" in out
    assert out.strip().endswith("claim C32: hypotheses satisfied")


def test_validate_an_exponent_reaching_one_exits_two(tmp_path, capsys):
    """u = 1 fails the exponent check, and validate reports it as a
    violated hypothesis rather than a conjugate-exponent error."""
    path = tmp_path / "c31.json"
    save_theorem_config(TheoremConfig("C31", ExponentFunction.constant(CTX, 1.0)), str(path))
    assert main(["validate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("FAIL exponent-admissible: ")
    assert captured.out.strip().endswith("claim C31: hypotheses violated")


@pytest.mark.skipif(
    shutil.which("ultraherz") is None, reason="ultraherz script not installed"
)
def test_installed_console_script(files):
    exe = shutil.which("ultraherz")
    result = subprocess.run(
        [exe, "norm", "-i", files["f"], "-u", files["u"]],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["convergent"] is True
