"""Command-line interface.

Four subcommands: ``analyze`` (closed-form report for one state),
``oracle`` (closed forms next to a Monte Carlo protocol run),
``scatter`` (W-family teleportation-vs-reconstruction CSV) and
``classical`` (no-resource baselines).  JSON goes to stdout or --out;
exit codes: 0 success, 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fidelity import Setting, full_report, report_to_dict
from .presets import PRESETS, preset_density
from .protocol import (
    classical_baseline,
    closed_form_bounds,
    dishonest_guess_fidelity,
    expected_fidelity_mc,
)
from .states import StateValidationError, decompose_state
from .stateio import load_state
from .wclass import InvalidParamsError, scatter_csv_text, write_scatter_csv

SETTING_CHOICES = ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", metavar="FILE", help="JSON state file (pure, dense or bloch)")
    group.add_argument("--preset", choices=sorted(PRESETS), help="named resource state")


def _add_common(parser: argparse.ArgumentParser, samples_default: int) -> None:
    parser.add_argument("--samples", type=int, default=samples_default, metavar="N")
    parser.add_argument("--seed", type=int, default=42, metavar="N")
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")


def _load_input_state(args):
    if args.preset is not None:
        return preset_density(args.preset)
    return load_state(args.state)


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False) + "\n"  # bare NaN / Infinity is not JSON
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    rho = _load_input_state(args)
    report = full_report(rho, Setting.from_string(args.setting), eps=args.epsilon)
    _emit_json(report_to_dict(report), args.out)
    return 0


def cmd_oracle(args) -> int:
    rho = _load_input_state(args)
    setting = Setting.from_string(args.setting)
    mc = expected_fidelity_mc(rho, setting, n_samples=args.samples, seed=args.seed)
    bounds = closed_form_bounds(decompose_state(rho), setting)
    payload = {
        "closed_form": bounds.f_so3,
        "f_max": bounds.f_trace_norm,
        "so3_gap": bounds.so3_gap,
        "mc_mean": mc.mean,
        "mc_std_error": mc.std_error,
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "per_branch": mc.to_dict()["per_branch"],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_scatter(args) -> int:
    if args.out:
        write_scatter_csv(args.out, args.samples, args.seed)
    else:
        sys.stdout.write(scatter_csv_text(args.samples, args.seed))
    return 0


def cmd_classical(args) -> int:
    formula = (1.0 + args.p) / 3.0 if args.strategy == "same" else (2.0 - args.p) / 3.0
    payload = {
        "honest_baseline": classical_baseline(args.samples, args.seed),
        "guess_fidelity": dishonest_guess_fidelity(args.p, args.strategy, args.samples, args.seed),
        "formula_value": formula,
    }
    _emit_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qrecon", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="closed-form fidelity report for one state")
    _add_state_source(p_analyze)
    p_analyze.add_argument("--setting", choices=SETTING_CHOICES, default="ABC")
    p_analyze.add_argument("--epsilon", type=float, default=1e-9, metavar="X",
                           help="zero threshold for the case classification")
    p_analyze.add_argument("--out", metavar="FILE")
    p_analyze.set_defaults(func=cmd_analyze)

    p_oracle = sub.add_parser("oracle", help="Monte Carlo protocol run against the closed forms")
    _add_state_source(p_oracle)
    p_oracle.add_argument("--setting", choices=SETTING_CHOICES, default="ABC")
    _add_common(p_oracle, samples_default=10_000)
    p_oracle.set_defaults(func=cmd_oracle)

    p_scatter = sub.add_parser("scatter", help="random W-family scatter as CSV")
    _add_common(p_scatter, samples_default=100_000)
    p_scatter.set_defaults(func=cmd_scatter)

    p_classical = sub.add_parser("classical", help="classical baseline and guessing fidelities")
    p_classical.add_argument("--p", type=float, default=0.5, metavar="X",
                             help="probability that the helper share is 0")
    p_classical.add_argument("--strategy", choices=("same", "negate"), default="same")
    _add_common(p_classical, samples_default=1_000_000)
    p_classical.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (StateValidationError, InvalidParamsError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
