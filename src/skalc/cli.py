"""Command-line front end.

Subcommands map one-to-one onto the library surface:

* mmi        multivariate interaction value and its finest optimal partition
* rco        minimal total discussion rate for omniscience, with rates
* capacity   closed-form trade-off curves for pairwise sources
* sandwich   lower/upper bounds on the budgeted key rate over a grid
* two-user   one-way curves for a two-user pmf source
* simulate   finite-blocklength linear schemes and their verification

Exit codes: 0 success, 2 invalid input, 3 declined resource caps, 4 a failed
internal self-check (always a bug).  All numeric output goes through one
formatter (exact rationals as "p/q", floats to 12 significant digits) so a
given (input, seed) pair produces byte-identical output.

A command imports the capacity, curves, protocol_sim and two_user modules
only when it uses them, so ``mmi`` and ``rco`` load none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import InternalCheckError, ResourceCapError, ValidationError
from .mmi import DEFAULT_USER_CAP, mmi
from .omniscience import rco
from .source_model import _read_json, format_number, load_source, parse_rational

GRID_CAP = 10_000


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"grid must be 'start:stop:step', got {text!r}")
    start = parse_rational(parts[0])
    if start < 0:
        raise ValidationError("grid values must be nonnegative")
    if len(parts) == 1:
        return [start]
    stop, step = (parse_rational(p) for p in parts[1:])
    if step <= 0:
        raise ValidationError("grid step must be positive")
    if stop < start:
        raise ValidationError("grid stop must not precede start")
    if (stop - start) / step > GRID_CAP:
        raise ValidationError(f"grid would exceed {GRID_CAP} points")
    out = []
    v = start
    while v <= stop:
        out.append(v)
        v += step
    return out


def _load_curve(path: str):
    from .curves import CapacityCurve

    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("points")
    if not isinstance(data, list) or not data:
        raise ValidationError("curve file must hold a list of [x, y] pairs")
    pts = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError("curve points must be [x, y] pairs")
        pair = []
        for v in item:
            if isinstance(v, str) or isinstance(v, int):
                pair.append(parse_rational(v))
            elif isinstance(v, float):
                pair.append(v)
            else:
                raise ValidationError(f"bad curve coordinate {v!r}")
        pts.append(tuple(pair))
    return CapacityCurve(tuple(pts))


def _emit_json(data) -> None:
    print(json.dumps(data, sort_keys=True))


def _partition_json(partition):
    return [sorted(block) for block in partition]


def _cmd_mmi(args) -> int:
    source = load_source(args.source)
    result = mmi(source, cap=args.cap)
    _emit_json({
        "mmi": format_number(result.value),
        "finest": _partition_json(result.finest),
        "minimizers": len(result.minimizers),
    })
    return 0


def _cmd_rco(args) -> int:
    source = load_source(args.source)
    result = rco(source)
    _emit_json({
        "rco": format_number(result.value),
        "rates": {u: format_number(r) for u, r in result.witness.rates.items()},
    })
    return 0


def _cmd_capacity(args) -> int:
    from . import capacity as cap_mod

    source = load_source(args.source)
    curves = cap_mod.pin_curves(source)
    _emit_json({
        "cap": format_number(curves.cap),
        "alpha_s": format_number(curves.alpha_s),
        "r_s": format_number(curves.r_s),
        "compressed": [[format_number(x), format_number(y)] for x, y in curves.compressed.points],
        "constrained": [[format_number(x), format_number(y)] for x, y in curves.constrained.points],
    })
    return 0


def _cmd_sandwich(args) -> int:
    from . import capacity as cap_mod

    source = load_source(args.source)
    grid = _parse_grid(args.grid)
    upper = _load_curve(args.cs_upper) if args.cs_upper else None
    result = cap_mod.sandwich(source, grid, cs_upper=upper)
    lines = ["alpha,lower,upper,tight"]
    for row in result.rows:
        lines.append(",".join([
            format_number(row.alpha),
            format_number(row.lower),
            format_number(row.upper),
            "1" if row.tight else "0",
        ]))
    print("\n".join(lines))
    return 0


def _cmd_two_user(args) -> int:
    from . import two_user  # numpy is loaded only for this command

    source = load_source(args.source)
    try:
        grid = [float(g) for g in _parse_grid(args.grid)]
    except OverflowError:
        raise ValidationError(f"grid {args.grid!r} leaves the float range") from None
    sweep = two_user.run_sweep(source, seed=args.seed)
    if args.mode == "compressed":
        points = two_user.compressed_curve_one_sided(sweep, grid)
    else:
        points = two_user.constrained_curve_one_way(sweep, grid)
    lines = ["x,value"]
    for pt in points:
        lines.append(f"{format_number(pt.x)},{format_number(pt.value)}")
    print("\n".join(lines))
    if args.emit_witness:
        payload = {
            "mode": args.mode,
            "seed": args.seed,
            "mutual_info": format_number(sweep.mutual_info),
            "runs": len(sweep.channels),
            "converged_runs": sum(ch.converged for ch in sweep.channels),
            "points": [
                {
                    "x": format_number(pt.x),
                    "value": format_number(pt.value),
                    "converged": pt.converged,
                    "witness": [
                        [format_number(v) for v in row] for row in pt.witness.matrix
                    ] if pt.witness else None,
                }
                for pt in points
            ],
        }
        with open(args.emit_witness, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_simulate(args) -> int:
    from . import protocol_sim

    source = load_source(args.source)
    if args.scheme == "tree":
        built = protocol_sim.tree_packing_scheme(source, args.blocklength)
        extra = {"trees": len(built.trees)}
    else:
        built = protocol_sim.random_binning_omniscience(source, args.blocklength, args.seed)
        extra = {
            "achieved": built.achieved,
            "rates": {u: format_number(r) for u, r in sorted(built.rates.items())},
        }
    report = built.report
    data = {
        "mode": args.scheme,
        "n": args.blocklength,
        "seed": args.seed,
        "key_bits": report.key_bits,
        "transcript_bits": report.transcript_bits,
        "recoverable": dict(sorted(report.recoverable.items())),
        "secret": report.perfectly_secret,
        "key_uniform": report.key_uniform,
        **extra,
    }
    if args.dump_scheme:
        data["scheme"] = json.loads(protocol_sim.scheme_to_json(built.scheme))
    _emit_json(data)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so it exits 2 with an
    ``error:`` line like every other invalid input; subcommand parsers share
    the class."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skalc", description="secret-key rates for correlated sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mmi", help="multivariate interaction and finest optimal partition")
    p.add_argument("source")
    p.add_argument("--cap", type=int, default=DEFAULT_USER_CAP,
                   help="largest user count to accept, from 2 to the hard limit 12")
    p.set_defaults(fn=_cmd_mmi)

    p = sub.add_parser("rco", help="minimal total discussion for omniscience")
    p.add_argument("source")
    p.set_defaults(fn=_cmd_rco)

    p = sub.add_parser("capacity", help="closed-form curves for pairwise sources")
    p.add_argument("source")
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("sandwich", help="bounds on the budgeted key rate over a grid")
    p.add_argument("source")
    p.add_argument("--grid", required=True, help="start:stop:step, inclusive, rationals allowed")
    p.add_argument("--cs-upper", help="JSON file with a trusted rate-domain upper bound curve")
    p.set_defaults(fn=_cmd_sandwich)

    p = sub.add_parser("two-user", help="one-way curves for a two-user pmf source")
    p.add_argument("source")
    p.add_argument("--mode", choices=["compressed", "constrained"], default="compressed")
    p.add_argument("--grid", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-witness", help="write witness channels to this JSON file")
    p.set_defaults(fn=_cmd_two_user)

    p = sub.add_parser("simulate", help="finite-blocklength linear schemes")
    p.add_argument("source")
    p.add_argument("--scheme", choices=["tree", "binning"], required=True)
    p.add_argument("-n", "--blocklength", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-scheme", action="store_true")
    p.set_defaults(fn=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building one leaves reference cycles (argparse
    # formatters and their sections) that only a full garbage collection
    # frees, so a parser per call grew a long-running caller's memory with
    # its call count.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
