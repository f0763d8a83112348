"""Command-line front end: sweeps, verification suites, and point diagnostics.

One parser decides every flag.  Each subcommand carries its handler as the
``run`` default; ``nh-sweep`` is ``sweep`` with its own defaults.  A command
line that starts with a command name goes straight to that command's
parser, which reads each token once; anything else (``--help``, no command,
an unknown one) takes the full parse and its messages.  A sweep's
``--config`` file is expanded into the flags it stands for, placed before
the command line's own, and the same parser parses the result, so the last
value given wins.

Exit codes: 0 success, 1 verification failure, 2 bad configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Dict, List, Optional, Tuple

from .bloch import (BlochVector, GlobalReference, PiecewiseBlochReference,
                    ReferenceState)
from .bounds_duality import (bound_check, complexity_duality_check,
                             fs_duality_check, ratio_R, self_dual_constraint)
from .errors import DomainError, GapClosedError, PartitionError, SpecError, TwoBandError
from .models import MODELS, dual_pair
from .quadrature import BZQuadratureConfig
from .sweeps import LOSSY_QUANTITIES, QUANTITIES, SweepSpec, _csv, _json, _sweep_columns, _write
from .verification import SUITES, run_suite

PI = math.pi

# models with a Hermitian d(k): the choices of the point commands
_HERMITIAN = tuple(name for name, entry in MODELS.items() if entry.hermitian)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SPEC_ERROR = 2
EXIT_NUMERICAL = 3


def _parse_set(items: Optional[List[str]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for item in items or []:
        if "=" not in item:
            raise SpecError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise SpecError(f"--set value for {key!r} is not a number: {val!r}") from None
    return out


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise SpecError("--sweep expects name:start:stop:points")
    name, start, stop, points = parts
    try:
        return name, float(start), float(stop), float(points)
    except ValueError as exc:
        raise SpecError(f"bad --sweep specification {text!r}") from exc


def _finite(text: str) -> float:
    """A float option's value; NaN and infinities are configuration errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return value


def _lines(path: str) -> List[Tuple[str, str]]:
    """(raw line, content) for each line of a text file that is not blank or a # comment."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(raw.rstrip(), line) for raw in fh if (line := raw.split("#", 1)[0].strip())]


def _config_flags(path: str) -> List[str]:
    """The sweep flags a flat ``key = value`` config file stands for.

    ``key = value`` becomes ``--key=value`` (``_`` may stand for ``-``),
    ``set.X = v`` becomes ``--set=X=v`` and a true ``degrees`` becomes
    ``--degrees``; the sweep parser then judges every one like a flag.
    """
    flags = []
    for raw, line in _lines(path):
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep:
            raise SpecError(f"config line must be key = value: {raw!r}")
        if key == "config":
            raise SpecError(f"a config file cannot name another one: {raw!r}")
        if key.startswith("set."):
            flags.append(f"--set={key[4:]}={val}")
        elif key == "degrees":
            if val.lower() in ("1", "true", "yes"):
                flags.append("--degrees")
        else:
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def _read_piecewise(path: str) -> PiecewiseBlochReference:
    pieces = []
    for raw, line in _lines(path):
        try:
            lo, hi, nx, ny, nz = map(_finite, line.split())
        except (ValueError, argparse.ArgumentTypeError):
            raise SpecError("piecewise reference lines are five finite numbers "
                            f"k_lo k_hi nx ny nz, got {raw!r}") from None
        try:
            pieces.append((lo, hi, BlochVector(nx, ny, nz)))
        except DomainError as exc:
            raise SpecError(f"{exc} in piecewise reference line {raw!r}") from None
    try:
        return PiecewiseBlochReference(tuple(pieces))
    except PartitionError as exc:
        raise SpecError(f"{exc} in piecewise reference file {path!r}") from None


def _reference(args) -> ReferenceState:
    if getattr(args, "ref_piecewise", None):
        return _read_piecewise(args.ref_piecewise)
    theta, phi = args.theta, args.phi
    if getattr(args, "degrees", False):
        theta, phi = math.radians(theta), math.radians(phi)
    return GlobalReference(theta, phi)


def _quad_config(args) -> BZQuadratureConfig:
    return BZQuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)


def _add_tolerance_options(p):
    p.add_argument("--abs-tol", type=_tolerance, default=1e-10,
                   help="absolute quadrature tolerance")
    p.add_argument("--rel-tol", type=_tolerance, default=1e-10,
                   help="relative quadrature tolerance")


def _add_reference_options(p):
    p.add_argument("--theta", type=_finite, default=0.5 * PI,
                   help="reference polar angle (radians unless --degrees)")
    p.add_argument("--phi", type=_finite, default=PI,
                   help="reference azimuthal angle (radians unless --degrees)")
    p.add_argument("--degrees", action="store_true",
                   help="interpret --theta/--phi in degrees")


def _add_sweep_command(sub, name: str, text: str, listed, note="", **defaults) -> None:
    """A sweep subcommand of the quantities ``listed``; ``defaults`` are its own defaults
    of the shared flags.

    Flags are matched by their full names only, so a config key is either a
    flag's long name or an error.
    """
    p = sub.add_parser(name, help=text, allow_abbrev=False)
    p.add_argument("--model", choices=tuple(MODELS), help="model family")
    p.add_argument("--set", action="append", metavar="KEY=VAL",
                   help="fix a model parameter (repeatable)")
    p.add_argument("--sweep", metavar="NAME:START:STOP:POINTS",
                   help="swept parameter and grid")
    p.add_argument("--quantities", default="complexity",
                   help="comma list from: " + ",".join(listed) + note)
    p.add_argument("--ref-piecewise", metavar="FILE",
                   help="piecewise reference file (k_lo k_hi nx ny nz per line)")
    p.add_argument("--config", metavar="FILE",
                   help="flat key = value config file of sweep flags; flags override it")
    p.add_argument("--out", metavar="PATH",
                   help="output file (.csv or .json); default prints CSV")
    _add_reference_options(p)
    _add_tolerance_options(p)
    p.set_defaults(run=_cmd_sweep, **defaults)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each subcommand's ``run`` default is its handler."""
    parser = argparse.ArgumentParser(
        prog="twoband",
        description="Spread complexity, fidelity susceptibility, winding numbers "
                    "and duality maps for two-band Bloch Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_sweep_command(sub, "sweep", "run a parameter sweep and emit CSV/JSON", QUANTITIES)
    _add_sweep_command(sub, "nh-sweep", "sweep --model nh-ssh (complexity + derivative)",
                       LOSSY_QUANTITIES, "; the lossy chain takes a global reference "
                       "(--theta/--phi), not --ref-piecewise", model="nh-ssh",
                       quantities=",".join(LOSSY_QUANTITIES))

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("winding", help="winding numbers of a model")
    p.add_argument("--model", choices=_HERMITIAN, required=True)
    p.add_argument("--set", action="append", metavar="KEY=VAL")
    p.set_defaults(run=_cmd_winding)

    p = sub.add_parser("duality", help="susceptibility/complexity duality residuals")
    p.add_argument("--set", action="append", metavar="KEY=VAL")
    _add_reference_options(p)
    _add_tolerance_options(p)
    p.set_defaults(run=_cmd_duality)

    for name, text, run in (
            ("bound", "check the derivative-susceptibility bound at one point", _cmd_bound),
            ("ratio", "saturation ratio R at one parameter value", _cmd_ratio)):
        p = sub.add_parser(name, help=text)
        p.add_argument("--model", choices=_HERMITIAN, required=True)
        p.add_argument("--set", action="append", metavar="KEY=VAL")
        p.add_argument("--lam", type=_finite, required=True, help="parameter value")
        _add_reference_options(p)
        _add_tolerance_options(p)
        p.set_defaults(run=run)

    return parser


def _sweep_spec(args) -> SweepSpec:
    """The sweep that parsed ``sweep`` or ``nh-sweep`` arguments describe."""
    if args.model is None:
        raise SpecError("a sweep needs --model (or a config file providing it)")
    if args.sweep is None:
        raise SpecError("a sweep needs --sweep name:start:stop:points")
    return SweepSpec(
        model=args.model,
        sweep=_parse_sweep(args.sweep),
        fixed=_parse_set(args.set),
        reference=_reference(args),
        quantities=tuple(q.strip() for q in args.quantities.split(",") if q.strip()),
    )


def _cmd_sweep(args) -> int:
    """A sweep written by column to ``--out`` (JSON for a .json file, else CSV), or as CSV to
    standard output."""
    spec = _sweep_spec(args)
    columns = _sweep_columns(spec, _quad_config(args))
    if args.out:
        _write(_json(spec, [columns]) if args.out.endswith(".json") else _csv(*columns), args.out)
    else:
        sys.stdout.write(_csv(*columns))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        print(f"[{status}] {res.name}: residual={res.residual:.3e} tolerance={res.tolerance:.3e}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_winding(args) -> int:
    """Print ``TwoBandModel.windings`` of the model and, for dual-ssh, of both
    ``dual_pair`` families; a closed gap exits 3."""
    entry = MODELS[args.model]
    sets = _parse_set(args.set)
    models = dual_pair(entry.params(sets)) if args.model == "dual-ssh" else (entry.model(sets),)
    nus = [model.windings([model.lam])[0] for model in models]
    if any(math.isnan(nu) for nu in nus):
        raise GapClosedError(f"{args.model} gap is closed; its winding is undefined")
    if args.model == "dual-ssh":
        print(f"winding(I)  = {int(nus[0])}")
        print(f"winding(II) = {int(nus[1])}")
    elif entry.rotated:
        print(f"winding(contour) = {int(nus[0])}")
    else:
        print(f"winding(planar) = {nus[0]:.12e}")
    return EXIT_OK


def _cmd_duality(args) -> int:
    params = MODELS["dual-ssh"].params(_parse_set(args.set))
    ref = _reference(args)
    cfg = _quad_config(args)
    # every check runs before the first line is printed, so one that fails prints nothing
    chi_lhs, chi_rhs, chi_resid = fs_duality_check(params, cfg)
    lhs, rhs, resid = complexity_duality_check(params, ref, cfg)
    constraint, c_at_r = self_dual_constraint(params, ref)
    print(f"susceptibility: chiF_II(1/r)={chi_lhs:.12e} r^4*chiF_I(r)={chi_rhs:.12e} "
          f"relative residual={chi_resid:.3e}")
    print(f"complexity: C(1/r)={lhs:.12f} mapped={rhs:.12f} residual={resid:.3e}")
    print(f"self-dual constraint: 2C'(r)-H'(r)={constraint:.12f} C(r)={c_at_r:.12f}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    ref = _reference(args)
    model = MODELS[args.model].model(_parse_set(args.set))
    report = bound_check(model, ref, args.lam, _quad_config(args))
    print(f"lambda={report.lam:.12g}")
    print(f"lhs=|dC/dlambda|={report.lhs:.12e}")
    print(f"rhs=4*pi*sum|Q_i|sqrt(chiF_i)={report.rhs:.12e}")
    print(f"satisfied={report.satisfied} ratio={report.ratio:.12f}")
    return EXIT_OK


def _cmd_ratio(args) -> int:
    ref = _reference(args)
    model = MODELS[args.model].model(_parse_set(args.set))
    value = ratio_R(model, ref, args.lam, _quad_config(args))
    print(f"R({args.lam:g}) = {value:.12f}")
    return EXIT_OK


@functools.cache
def _default_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built on the first call and then
    reused."""
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return parser, commands


def _parse(argv: List[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one pass over the tokens.

    The full parse classifies every token before the subcommand's parser reads
    them all again; here a known command name sends the rest straight to its
    parser, and leftovers go to the top-level error, as in the full parse.
    """
    parser, commands = _default_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        if getattr(args, "config", None):
            # a config file's flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            args = _parse([*argv[:at], *_config_flags(args.config), *argv[at:]])
        return args.run(args)
    except (SpecError, OSError) as exc:  # OSError: a named file cannot be read or written
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except TwoBandError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
