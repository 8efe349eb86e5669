"""End-to-end checks of the command-line interface (in-process, plus
out-of-process smoke tests of ``python -m ultraherz`` and the script)."""

from __future__ import annotations

import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ultraherz
from ultraherz import (
    ExponentFunction,
    PadicContext,
    RadialStepFunction,
    TheoremConfig,
    function_from_dict,
    hardy,
    save_exponent,
    save_function,
    save_theorem_config,
)
from ultraherz.cli import main

CTX = PadicContext(2, 1)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
    assert main(["cmo", "--symbol", str(ball), "-u", files["u"]]) == 0
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


def test_oracle_operator_task_requires_a_shell(files, capsys):
    code = main(["oracle", "-i", files["f"], "--task", "operator"])
    assert code == 1
    assert "--shell" in capsys.readouterr().err


def test_oracle_without_a_seed_defaults_to_seed_zero(files, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ULTRAHERZ_SEED", raising=False)
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


def test_validate_theorem_flag_overrides_the_file(files, capsys):
    code = main(["validate", "--config", files["tc"], "--theorem", "C31"])
    assert code == 2
    assert "alpha-zero" in capsys.readouterr().out


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


def test_check_single_lemma(capsys):
    assert main(["check", "--which", "L1", "--trials", "3", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("L1: pass (3 cases)")


def test_check_all_lemmas_prints_one_line_each(capsys):
    assert main(["check", "--trials", "2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["L1", "L3", "L5"]


def test_usage_errors_exit_one(files, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["norm"]) == 1
    assert main(["cmo", "--symbol", files["f"], "-u", files["u"], "--literal"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_input_file_exits_one(files, capsys):
    code = main(["norm", "-i", "/nonexistent/f.json", "-u", files["u"]])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_seed_env_fallback_matches_the_flag(files, capsys, monkeypatch):
    argv = ["sweep", "--config", files["tc"], "--sizes", "3", "--count", "4"]
    monkeypatch.setenv("ULTRAHERZ_SEED", "11")
    assert main(argv) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("ULTRAHERZ_SEED")
    assert main(argv + ["--seed", "11"]) == 0
    assert capsys.readouterr().out == via_env


def test_bad_seed_env_is_rejected(files, capsys, monkeypatch):
    monkeypatch.setenv("ULTRAHERZ_SEED", "eleven")
    code = main(["sweep", "--config", files["tc"], "--count", "1"])
    assert code == 1
    assert "ULTRAHERZ_SEED" in capsys.readouterr().err


def _project_script(name: str) -> str:
    """Target of ``name`` in the ``[project.scripts]`` table of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def _run_module(args: list[str], cwd) -> subprocess.CompletedProcess:
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
        capture_output=True, text=True, timeout=60, cwd=cwd, env=env,
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
