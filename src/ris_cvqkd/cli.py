"""Command-line interface: evaluation, sweeps, searches, CSV output, verify.

Exit codes: 0 success, 1 usage/config error, 2 numeric error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import experiments, oracle
from .channel import Scenario
from .config import ConfigError, apply_overrides, load_scenario, make_scenario
from .experiments import SweepResult, SweepSpec, SweepVariable
from .qkd import AncillaCase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
_MAX_GRID_POINTS = 2**16 + 1  # the finest phase scan's count (pi / 2**16 apart)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _parse_cases(text: str) -> tuple[AncillaCase, ...]:
    tags = [t.strip() for t in text.split(",") if t.strip()]
    lookup = {case.value: case for case in AncillaCase}
    cases = []
    for tag in tags:
        if tag not in lookup:
            raise UsageError(f"unknown case {tag!r}; choose from d, g, f")
        if lookup[tag] in cases:
            raise UsageError(f"case {tag!r} given twice")
        cases.append(lookup[tag])
    if not cases:
        raise UsageError("at least one case required")
    return tuple(cases)


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("grid must be start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"cannot parse grid {text!r}") from None
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise UsageError(f"grid count must be >= 1 and <= {_MAX_GRID_POINTS}, got {count}")
    if count == 1:
        return (start,)
    step = (stop - start) / (count - 1)
    return tuple(start + i * step for i in range(count))


def _load(args) -> Scenario:
    if args.config:
        return load_scenario(args.config, args.set)[0]
    return make_scenario(apply_overrides({}, args.set))


def emit_csv(result: SweepResult, path: str) -> None:
    """Write sweep rows: grid value, per-case rate and Holevo total, warnings.

    The warnings cell counts the row's clamped transmissivities once (every
    case shares them) plus each case's sub-vacuum eigenvalues.  Numbers carry
    12 significant digits; output bytes are deterministic for a given result.
    """
    header = [result.variable.value]
    for case in result.cases:
        header.append(f"skr_{case.value}")
        header.append(f"holevo_{case.value}")
    header.append("warnings")
    lines = [",".join(header)]
    for row in result.rows:
        cells = [_fmt(row.value)]
        if row.error is not None:
            cells.extend("" for _ in range(2 * len(result.cases)))
            cells.append(f"error:{row.error}")
        else:
            reports = [row.reports[case] for case in result.cases]
            for report in reports:
                cells.append(_fmt(report.total_skr))
                cells.append(_fmt(report.total_holevo))
            warn = reports[0].warnings.beta_clamped + sum(
                report.warnings.eigen_negativity for report in reports)
            cells.append(str(warn))
        lines.append(",".join(cells))
    _write(path, lines)


def _write(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_rows(result: SweepResult, output, describe) -> None:
    """Write the rows to the CSV file ``output``, or print each row with
    ``describe(reports)`` when no file is given."""
    if output:
        emit_csv(result, output)
        print(f"wrote {len(result.rows)} rows to {output}")
        return
    for row in result.rows:
        if row.error:
            print(f"{_fmt(row.value)}: error: {row.error}")
        else:
            print(f"{_fmt(row.value)}: {describe(row.reports)}")


def _cmd_skr(args) -> int:
    scenario = _load(args)
    cases = _parse_cases(args.cases)
    reports = experiments.evaluate_scenario(scenario, cases)
    print(f"branches: {len(next(iter(reports.values())).rates.skr)}")
    for case in cases:
        rep = reports[case]
        print(f"case {case.value}: skr = {_fmt(rep.total_skr)} bits/use"
              f"  (holevo = {_fmt(rep.total_holevo)},"
              f" warnings = {rep.warnings.total})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    spec = SweepSpec(variable=SweepVariable(args.variable),
                     grid=_parse_grid(args.grid),
                     base=scenario, cases=_parse_cases(args.cases))
    _emit_rows(experiments.run_sweep(spec), args.output, lambda reports: "  ".join(
        f"{c.value}={_fmt(reports[c].total_skr)}" for c in spec.cases))
    return EXIT_OK


def _cmd_optimize_phase(args) -> int:
    scenario = _load(args)
    for case in _parse_cases(args.cases):
        opt = experiments.optimal_phase(scenario, case, resolution=args.resolution)
        print(f"case {case.value}: phi* = {_fmt(opt.phi_star)} rad"
              f" ({_fmt(math.degrees(opt.phi_star))} deg),"
              f" skr = {_fmt(opt.skr_star)} bits/use")
    return EXIT_OK


def _cmd_max_distance(args) -> int:
    scenario = _load(args)
    cases = _parse_cases(args.cases)

    def reach(probe, case):
        return experiments.max_secure_distance(probe, case, tolerance=args.tolerance,
                                               d_min=args.d_min, d_max=args.d_max)

    if not (args.grid or args.output):
        for case in cases:
            print(f"case {case.value}: max secure distance = {_fmt(reach(scenario, case))} m")
        return EXIT_OK
    # without a grid, one row at the scenario's own carrier frequency
    frequencies = _parse_grid(args.grid) if args.grid else (scenario.carrier_frequency,)
    lines = [",".join(["frequency_hz"] + [f"max_distance_m_{c.value}" for c in cases])]
    for f_c in frequencies:
        probe = experiments.scenario_with_frequency(scenario, f_c)
        lines.append(",".join([_fmt(f_c)] + [_fmt(reach(probe, case)) for case in cases]))
    if args.output:
        _write(args.output, lines)
        print(f"wrote {len(frequencies)} rows to {args.output}")
    else:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_baseline(args) -> int:
    scenario = _load(args)
    distances = _parse_grid(args.grid) if args.grid else None
    _emit_rows(experiments.no_ris_baseline(scenario, distances), args.output,
               lambda reports: f"skr = {_fmt(reports[AncillaCase.DIRECT].total_skr)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    results = oracle.run_verification(args.draws, seed=args.seed)
    if args.draws == 0:
        print("warning: no checks run (zero draws)")
        return EXIT_OK
    failed = False
    for check in results:
        status = "ok" if check.passed else "FAIL"
        print(f"{check.name}: max deviation {check.max_deviation:.3e}"
              f" (tolerance {check.tolerance:.1e}) {status}")
        failed |= not check.passed
    return EXIT_NUMERIC if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ris-cvqkd",
                     description="Secret key rate of a RIS-assisted THz MIMO "
                                 "CV-QKD link with a direct path")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cases=True):
        p.add_argument("--config", help="scenario config file (key = value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        if cases:
            p.add_argument("--cases", default="d,g,f",
                           help="comma-separated storage cases (d,g,f)")

    p = sub.add_parser("skr", help="evaluate the key rate for one scenario")
    common(p)
    p.set_defaults(fn=_cmd_skr)

    p = sub.add_parser("sweep", help="sweep one variable over a grid")
    common(p)
    p.add_argument("--variable", required=True,
                   choices=[v.value for v in SweepVariable])
    p.add_argument("--grid", required=True, metavar="START:STOP:COUNT",
                   help=f"COUNT points, at most {_MAX_GRID_POINTS}")
    p.add_argument("--output", help="CSV output path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("optimize-phase", help="search the optimal common phase")
    common(p)
    p.add_argument("--resolution", type=float, default=math.pi / 256,
                   help="phase grid step in radians, at least pi / 2**16")
    p.set_defaults(fn=_cmd_optimize_phase)

    p = sub.add_parser("max-distance", help="largest distance with positive rate")
    common(p)
    p.add_argument("--tolerance", type=float, default=0.01, help="meters")
    p.add_argument("--d-min", type=float, default=0.5)
    p.add_argument("--d-max", type=float, default=200.0)
    p.add_argument("--grid", metavar="START:STOP:COUNT",
                   help=f"optional carrier-frequency grid (Hz), at most {_MAX_GRID_POINTS} points")
    p.add_argument("--output", help="CSV output path")
    p.set_defaults(fn=_cmd_max_distance)

    p = sub.add_parser("baseline", help="key rate with the RIS path removed")
    common(p, cases=False)
    p.add_argument("--grid", metavar="START:STOP:COUNT",
                   help=f"distance grid in meters, at most {_MAX_GRID_POINTS} points")
    p.add_argument("--output", help="CSV output path")
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("verify", help="closed forms versus the numeric oracle")
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
