"""Command-line interface.

Four subcommands: ``analyze`` (closed-form report for one state),
``oracle`` (closed forms next to a Monte Carlo protocol run),
``scatter`` (W-family teleportation-vs-reconstruction CSV) and
``classical`` (no-resource baselines).  Each returns its text; :func:`main`
writes it to stdout or --out.  Exit codes: 0 success (also when a stdout reader stops
early), 2 invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import sys
from typing import Iterable

from .presets import PRESETS, preset_density
from .stateio import load_state, write_text

# every numpy module (fidelity, states, protocol, wclass) is imported by the
# command that runs it once its input is read, so a run that fails on its
# arguments or its state file exits without loading numpy

SETTING_CHOICES = tuple("".join(roles) for roles in itertools.permutations("ABC"))  # fidelity.ALL_SETTINGS order

MAX_SAMPLES = 10**9  # largest --samples: a mistyped count above it would run for days


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", metavar="FILE", help="JSON state file (pure, dense or bloch)")
    group.add_argument("--preset", choices=sorted(PRESETS), help="named resource state")


def _number(text: str, kind: type) -> int | float:
    try:
        return kind(text)
    except ValueError:  # argparse would name the type function instead of "int" or "float"
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def sample_count(text: str) -> int:
    if (n := _number(text, int)) < 1:  # in the kernels' words
        raise argparse.ArgumentTypeError(f"n_samples must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {n}")
    return n


def seed_value(text: str) -> int:
    if (seed := _number(text, int)) < 0:  # numpy's generator rejects it later, without naming the flag
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def epsilon_value(text: str) -> float:
    if not (math.isfinite(eps := _number(text, float)) and eps > 0):  # as fidelity.classify_case words it
        raise argparse.ArgumentTypeError(f"eps must be finite and positive, got {eps}")
    return eps


def probability(text: str) -> float:
    if not 0.0 <= (p := _number(text, float)) <= 1.0:  # as protocol._check_guess words it
        raise argparse.ArgumentTypeError(f"p must lie in [0, 1], got {p}")
    return p


def out_path(text: str) -> str:
    if not text:  # what an unset $OUT gives; it must not fall back to stdout
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _add_common(parser: argparse.ArgumentParser, samples_default: int) -> None:
    parser.add_argument("--samples", type=sample_count, default=samples_default, metavar="N")
    parser.add_argument("--seed", type=seed_value, default=42, metavar="N")
    parser.add_argument("--out", type=out_path, metavar="FILE", help="write output here instead of stdout")


def _load_input_state(args):
    if args.preset is not None:
        return preset_density(args.preset)
    return load_state(args.state)


def _json(obj: dict) -> list[str]:
    return [json.dumps(obj, indent=2, allow_nan=False) + "\n"]  # bare NaN / Infinity is not JSON


def cmd_analyze(args) -> list[str]:
    rho = _load_input_state(args)
    from .fidelity import Setting, full_report, report_to_dict

    report = full_report(rho, Setting.from_string(args.setting), eps=args.epsilon)
    return _json(report_to_dict(report))


def cmd_oracle(args) -> list[str]:
    rho = _load_input_state(args)
    from .fidelity import Setting, closed_form_bounds
    from .protocol import expected_fidelity_mc
    from .states import decompose_state

    setting = Setting.from_string(args.setting)
    mc = expected_fidelity_mc(rho, setting, n_samples=args.samples, seed=args.seed)
    bounds = closed_form_bounds(decompose_state(rho), setting)
    return _json({
        "closed_form": bounds.f_so3,
        "f_max": bounds.f_trace_norm,
        "so3_gap": bounds.so3_gap,
        "mc_mean": mc.mean,
        "mc_std_error": mc.std_error,
        "n_samples": mc.n_samples,
        "seed": mc.seed,
        "per_branch": mc.to_dict()["per_branch"],
    })


def cmd_scatter(args) -> Iterable[str]:
    from .wclass import scatter_csv_chunks

    return scatter_csv_chunks(args.samples, args.seed)


def cmd_classical(args) -> list[str]:
    from .protocol import classical_fidelities

    honest, guess = classical_fidelities(args.p, args.strategy, args.samples, args.seed)
    formula = (1.0 + args.p) / 3.0 if args.strategy == "same" else (2.0 - args.p) / 3.0
    return _json({
        "honest_baseline": honest,
        "guess_fidelity": guess,
        "formula_value": formula,
    })


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of all four commands, built on the first call.

    Every later call, and so every later :func:`main` call in the process,
    returns the same shared object: callers must not mutate it.  Its
    ``--preset`` choices are the presets that existed when it was built.
    """
    parser = argparse.ArgumentParser(prog="qrecon", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="closed-form fidelity report for one state")
    _add_state_source(p_analyze)
    p_analyze.add_argument("--setting", choices=SETTING_CHOICES, default="ABC")
    p_analyze.add_argument("--epsilon", type=epsilon_value, default=1e-9, metavar="X",
                           help="zero threshold for the case classification")
    p_analyze.add_argument("--out", type=out_path, metavar="FILE", help="write output here instead of stdout")
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
    p_classical.add_argument("--p", type=probability, default=0.5, metavar="X",
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
        pieces = args.func(args)
        if args.out is not None:
            write_text(args.out, pieces)
            return 0
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()  # a closed reader shows here, not at exit
        except BrokenPipeError:  # the reader stopped early, e.g. `| head`: not a failure of ours
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit writes nowhere
            os.close(devnull)
        return 0
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:  # the package's input errors all subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller --samples", file=sys.stderr)
        return 2


def run() -> int:
    """The ``qrecon`` process entry: :func:`main` on ``sys.argv`` with one BLAS thread unless the caller chose
    a count, and without the cyclic garbage collector."""
    # qrecon's BLAS and LAPACK calls are small (3x3 SVDs and determinants, an 8x8 eigvalsh, products of at most
    # 32 rows), and the Monte Carlo sample loop makes none: a second OpenBLAS thread would only spin on another
    # core.  OpenBLAS reads its count from these variables, in this order, once numpy loads, which import
    # qrecon.cli does not do
    if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # one-shot run: the shutdown collection would walk every object numpy made, and no
    # command creates reference cycles per sample (tests/test_cli.py pins that)
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
