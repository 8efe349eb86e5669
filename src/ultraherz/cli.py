"""Command-line interface.

Subcommands:
    norm      evaluate a space norm of a radial step function
    apply     apply an operator and print the image function as JSON
    oracle    Monte Carlo estimates for integrals, norms and operator values
    validate  check the hypotheses of a boundedness claim
    sweep     ratio sweeps (and sharpness probes) for a boundedness claim
    check     run the structural lemma checks

Exit codes: 0 on success, 2 when a claim's hypotheses are violated, 1 for
any other error (bad input files, divergent norms requested strictly,
usage mistakes). Randomized subcommands take ``--seed``, which defaults
to 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, HypothesisViolationError, UltraherzError
from .harness import (
    LEMMA_IDS,
    check_lemmas,
    require_hypotheses,
    sharpness_probe,
    sweep,
    validate_hypotheses,
)
from .norms import (
    HerzParams,
    MorreyHerzParams,
    NormResult,
    cmo_norm,
    herz_norm,
    luxemburg_norm,
    morrey_herz_norm,
)
from .operators import OperatorSpec, apply_operator
from .oracle import MCEstimate, OracleConfig, mc_integrate, mc_luxemburg, mc_operator_probe
from .serialize import (
    encode_real,
    function_to_dict,
    load_exponent,
    load_function,
    load_theorem_config,
)


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _norm_payload(result: NormResult) -> dict:
    return {
        "value": encode_real(result.value),
        "convergent": result.convergent,
        "tail_remainder_bound": encode_real(result.tail_remainder_bound),
    }


def _estimate_payload(estimate: MCEstimate) -> dict:
    return {
        "value": encode_real(estimate.value),
        "std_error": encode_real(estimate.std_error),
        "samples": estimate.samples,
    }


def _cmd_norm(args: argparse.Namespace) -> int:
    f = load_function(args.function)
    u = load_exponent(args.exponent)
    if args.space == "lebesgue":
        result = luxemburg_norm(f, u, rel_tol=args.rel_tol)
    elif args.space == "herz":
        result = herz_norm(f, u, HerzParams(args.beta, args.m))
    elif args.space == "morrey-herz":
        result = morrey_herz_norm(f, u, MorreyHerzParams(args.beta, args.m, args.lam))
    else:
        result = cmo_norm(f, u, rel_tol=args.rel_tol)
    _print_json(_norm_payload(result))
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    f = load_function(args.function)
    symbol = load_function(args.symbol) if args.symbol else None
    spec = OperatorSpec(args.operator, alpha=args.alpha, symbol=symbol)
    image = apply_operator(spec, f)
    payload = function_to_dict(image)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        _print_json(payload)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    f = load_function(args.function)
    config = OracleConfig(
        samples=args.samples,
        resolution=args.resolution,
        truncation_window=(args.window[0], args.window[1]),
        seed=args.seed,
        stratified=not args.naive,
    )
    if args.task == "integral":
        if args.gamma is None:
            raise DomainError("oracle integral task needs --gamma")
        estimate = mc_integrate(f, args.gamma, config)
    elif args.task == "norm":
        if args.exponent is None:
            raise DomainError("oracle norm task needs --exponent")
        u = load_exponent(args.exponent)
        estimate = mc_luxemburg(f, u, config, rel_tol=args.rel_tol)
    else:
        if args.shell is None:
            raise DomainError("oracle operator task needs --shell")
        symbol = load_function(args.symbol) if args.symbol else None
        spec = OperatorSpec(args.operator, alpha=args.alpha, symbol=symbol)
        estimate = mc_operator_probe(spec, f, args.shell, config)
    _print_json(_estimate_payload(estimate))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_theorem_config(args.config)
    report = validate_hypotheses(config)
    for check in report.checks:
        mark = "ok  " if check.satisfied else "FAIL"
        print(f"{mark} {check.name}: {check.detail}")
    if report.satisfied:
        print(f"claim {report.theorem}: hypotheses satisfied")
        return 0
    print(f"claim {report.theorem}: hypotheses violated")
    return 2


def _parse_sizes(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return tuple([int(part) for part in parts])
    except ValueError:
        raise DomainError(f"--sizes must be comma-separated integers, got {text!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_theorem_config(args.config)
    if args.probe:
        require_hypotheses(config)
        shells = range(1, args.probe_shells + 1)
        lines = ["shell,ratio"]
        for k, ratio in sharpness_probe(config, tuple(shells)):
            lines.append(f"{k},{ratio!r}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0
    result = sweep(config, sizes=_parse_sizes(args.sizes), count=args.count, seed=args.seed)
    text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        if not result.rows:
            print("no samples drawn; supremum undefined")
        for size in result.sizes():
            print(f"N={size}: sup ratio {result.sup_ratio(size)!r}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    reports = check_lemmas(args.which, args.trials, args.seed)
    failed = False
    for report in reports:
        verdict = "pass" if report.satisfied else "FAIL"
        print(f"{report.check}: {verdict} ({report.cases} cases) {report.detail}")
        failed = failed or not report.satisfied
    return 1 if failed else 0


def _add_function_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-i", "--function", required=True, help="radial step function JSON file"
    )


def _add_exponent_arg(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "-u", "--exponent", required=required, help="exponent law JSON file"
    )


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        required=True,
        help="claim configuration JSON file (exponent inlined or by path)",
    )


def _norm_args(norm: argparse.ArgumentParser) -> None:
    _add_function_arg(norm)
    _add_exponent_arg(norm)
    norm.add_argument(
        "--space",
        choices=("lebesgue", "herz", "morrey-herz", "cmo"),
        default="lebesgue",
    )
    norm.add_argument("--beta", type=float, default=0.0)
    norm.add_argument("--m", type=float, default=1.0)
    norm.add_argument("--lambda", dest="lam", type=float, default=0.0)
    norm.add_argument("--rel-tol", type=float, default=1e-10)
    norm.set_defaults(handler=_cmd_norm)


def _apply_args(apply_parser: argparse.ArgumentParser) -> None:
    _add_function_arg(apply_parser)
    apply_parser.add_argument(
        "--operator",
        required=True,
        choices=("hardy", "adjoint", "commutator", "maximal"),
    )
    apply_parser.add_argument("--alpha", type=float, default=0.0)
    apply_parser.add_argument("--symbol", help="commutator symbol JSON file")
    apply_parser.add_argument(
        "-o", "--out", help="write the image here instead of stdout"
    )
    apply_parser.set_defaults(handler=_cmd_apply)


def _oracle_args(oracle: argparse.ArgumentParser) -> None:
    _add_function_arg(oracle)
    oracle.add_argument(
        "--task", choices=("integral", "norm", "operator"), default="integral"
    )
    oracle.add_argument("--gamma", type=int, help="ball index for the integral task")
    _add_exponent_arg(oracle, required=False)
    oracle.add_argument(
        "--operator", choices=("hardy", "adjoint", "commutator"), default="hardy"
    )
    oracle.add_argument("--alpha", type=float, default=0.0)
    oracle.add_argument("--symbol", help="commutator symbol JSON file")
    oracle.add_argument("--shell", type=int, help="evaluation shell for the operator task")
    oracle.add_argument("--samples", type=int, default=10_000)
    oracle.add_argument("--resolution", type=int, default=24)
    oracle.add_argument(
        "--window",
        type=int,
        nargs=2,
        default=(-32, 32),
        metavar=("LO", "HI"),
        help="truncation window of shells sampled explicitly",
    )
    oracle.add_argument(
        "--naive",
        action="store_true",
        help="plain uniform sampling instead of per-shell stratification",
    )
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--rel-tol", type=float, default=1e-10)
    oracle.set_defaults(handler=_cmd_oracle)


def _validate_args(validate: argparse.ArgumentParser) -> None:
    _add_config_arg(validate)
    validate.set_defaults(handler=_cmd_validate)


def _sweep_args(sweep_parser: argparse.ArgumentParser) -> None:
    _add_config_arg(sweep_parser)
    sweep_parser.add_argument(
        "--sizes",
        default="5,10,20",
        help="comma-separated window bounds (default: %(default)s)",
    )
    sweep_parser.add_argument(
        "--count", type=int, default=200, help="samples per size (default: %(default)s)"
    )
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("-o", "--out", help="write CSV here instead of stdout")
    sweep_parser.add_argument(
        "--probe",
        action="store_true",
        help="emit the out-of-range sharpness probe instead of the sweep",
    )
    sweep_parser.add_argument(
        "--probe-shells",
        type=int,
        default=15,
        help="probe the single-sphere bumps at shells 1..K",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)


def _check_args(check: argparse.ArgumentParser) -> None:
    check.add_argument(
        "--which",
        choices=(*LEMMA_IDS, "all"),
        default="all",
        help="which structural check to run",
    )
    check.add_argument(
        "--trials",
        type=int,
        default=None,
        help="override the per-check default case count",
    )
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(handler=_cmd_check)


#: subcommand name -> (help line, function that adds its arguments)
_SUBCOMMANDS = {
    "norm": ("evaluate a space norm", _norm_args),
    "apply": ("apply an operator to a function", _apply_args),
    "oracle": ("Monte Carlo estimates", _oracle_args),
    "validate": ("check a claim's hypotheses", _validate_args),
    "sweep": ("ratio sweep for a claim", _sweep_args),
    "check": ("run the structural lemma checks", _check_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or only ``command``.

    ``main`` passes the subcommand it runs, so a call does not pay for
    building the five it does not use.
    """
    parser = argparse.ArgumentParser(
        prog="ultraherz",
        description="norms, operators and boundedness checks for radial step "
        "functions over an ultrametric field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _SUBCOMMANDS.items():
        if command is None or name == command:
            add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # anything but a subcommand name first (none, an option, a typo) gets
    # the full parser, for the full help or usage error
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; this tool reserves 2 for
        # hypothesis violations, so usage problems map to 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except UltraherzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
