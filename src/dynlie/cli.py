"""Command-line interface.

Subcommands:
  decompose  analyze a control system spec and write a structure report
  simulate   propagate a schedule through the factorized dynamics
  demo       run a bundled model end to end

Exit codes: 0 on success, 2 on malformed or inconsistent input, 3 on a
numerical failure (the failing pipeline stage is named on stderr).
"""

import argparse
import functools
import sys

import numpy as np

from .dynamics import analyze_system, propagate
from .errors import LieAlgebraError, NotInSpanError, StageFailure
from .fileio import (
    SpecError,
    build_propagation_report,
    build_structure_report,
    dumps_report,
    load_schedule,
    load_system_spec,
)
from .linalg import TOL_RANK
from .models import MODELS


def _add_common_flags(p):
    p.add_argument("--tol-rank", type=float, default=TOL_RANK, metavar="T",
                   help="relative rank/membership tolerance "
                        "(default %(default)g)")
    p.add_argument("--pivot", metavar="C1,C2,...",
                   help="first Cartan pivot as coefficients over "
                        "[drift, controls...]; X = i*(sum c_k H_k)")
    p.add_argument("--splitting-coeffs", metavar="A1,A2,...",
                   help="force the splitting element's coefficients over "
                        "the computed Cartan basis")
    p.add_argument("--out", metavar="PATH",
                   help="write the report here instead of stdout")


def _parse_floats(text, what):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise SpecError(f"{what}: expected comma-separated numbers") from err
    if not vals:
        raise SpecError(f"{what}: no values given")
    # Beyond 1e150 a pivot's squared norm or an adjoint spectrum overflows.
    if not all(abs(v) <= 1e150 for v in vals):
        raise SpecError(f"{what}: values must be finite and at most 1e150 "
                        "in magnitude")
    return vals


def _pivot_matrices(system, flag):
    if flag is None:
        return None
    coeffs = _parse_floats(flag, "--pivot")
    terms = [system.drift] + list(system.controls)
    if len(coeffs) != len(terms):
        raise SpecError(
            f"--pivot needs {len(terms)} coefficients "
            f"(drift plus {len(terms) - 1} controls), got {len(coeffs)}")
    x = sum(c * h for c, h in zip(coeffs, terms))
    return [1j * x]


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _analyze(system, args):
    if not 0.0 < args.tol_rank < 1.0:
        raise SpecError("--tol-rank is relative and must lie in (0, 1), "
                        f"got {args.tol_rank}")
    pivots = _pivot_matrices(system, args.pivot)
    coeffs = (None if args.splitting_coeffs is None
              else _parse_floats(args.splitting_coeffs, "--splitting-coeffs"))
    try:
        return analyze_system(system, tol=args.tol_rank, pivots=pivots,
                              splitting_coeffs=coeffs)
    except np.linalg.LinAlgError:
        raise
    except ValueError as err:  # a flag that does not fit the algebra
        raise SpecError(str(err)) from err


def cmd_decompose(args):
    system = load_system_spec(args.spec)
    analysis = _analyze(system, args)
    _write(dumps_report(build_structure_report(analysis)), args.out)
    return 0


def cmd_simulate(args):
    system = load_system_spec(args.spec)
    schedule = load_schedule(args.schedule, system.n_controls)
    analysis = _analyze(system, args)
    try:
        result = propagate(analysis.decomposition, system, schedule,
                           tol=args.tol_rank)
    except np.linalg.LinAlgError:
        raise
    except ValueError as err:  # a schedule too large to propagate
        raise SpecError(str(err)) from err
    _write(dumps_report(build_propagation_report(analysis.decomposition,
                                                 result)), args.out)
    return 0


def cmd_demo(args):
    system = MODELS[args.model]()
    analysis = _analyze(system, args)
    report = build_structure_report(analysis)
    _write(dumps_report(report), args.out)
    if args.out is not None:
        comp = ", ".join(
            f"{c['kind']}(dim {c['dim']}{', su2' if c['su2'] else ''})"
            for c in report["components"])
        sys.stdout.write(
            f"{args.model}: algebra dim {report['algebra_dim']}, "
            f"{report['controllability']}; components: {comp or 'none'}\n"
            f"report written to {args.out}\n")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: ``parse_args`` leaves
    it unchanged, and building it costs about 20 times a parse."""
    parser = argparse.ArgumentParser(
        prog="dynlie",
        description="Dynamical Lie algebra decomposition for bilinear "
                    "quantum control systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose",
                       help="compute the structure report for a system spec")
    p.add_argument("spec", help="path to a system spec file (JSON)")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("simulate",
                       help="propagate a piecewise-constant schedule")
    p.add_argument("spec", help="path to a system spec file (JSON)")
    p.add_argument("schedule", help="path to a schedule file (JSON)")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("demo", help="run a bundled model end to end")
    p.add_argument("model", choices=sorted(MODELS),
                   help="bundled model name")
    _add_common_flags(p)
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StageFailure as err:
        if isinstance(err.error, NotInSpanError) and err.stage == "cartan" \
                and args.pivot is not None:
            print(f"error: --pivot is not inside the semisimple part of "
                  f"the dynamical algebra ({err.error})", file=sys.stderr)
            return 2
        print(f"error: numerical failure in stage '{err.stage}': "
              f"{err.error}", file=sys.stderr)
        return 3
    except LieAlgebraError as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
