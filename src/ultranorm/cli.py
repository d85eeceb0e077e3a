"""Batch command-line surface: one subcommand per library operation.

Output is compact JSON by default (machine-readable, byte-deterministic for
identical inputs) or an indented text rendering with --format text, where
exact rationals gain a decimal approximation for display.  Exit codes:
0 success, 1 domain error (structured error JSON on stdout), 2 usage error,
3 internal error: a bug, reported as {"error": {"type": "internal", ...}} on
stdout with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import betweenness, oracle, sampling
from .errors import ParseError, UltranormError
from .fields import FieldSpec, check_valuation_axioms
from .isometry import ProbeMap, decompose, sphere_shift_map, verify_isometry
from .spaces import NormSpec, Vector, check_norm_axioms, distance, norm


def _approx(text: str) -> str:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text
    if value.denominator == 1:
        return text
    try:
        return f"{text} (~{float(value):.6g})"
    except OverflowError:  # beyond float range: the exact value alone
        return text


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                shown = _approx(val) if isinstance(val, str) else json.dumps(val)
                lines.append(f"{pad}{key}: {shown}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "text":
        print("\n".join(_render_text(payload)))
    else:
        print(json.dumps(payload, separators=(",", ":")))


def _read_probes(source: str) -> ProbeMap:
    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read probe file {source!r}: {exc}") from None
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"probe input is not JSON: {exc}") from None
    return ProbeMap.from_json(obj)


def _vec(args, name: str) -> Vector:
    return Vector.parse(args.field, getattr(args, name))


# -- subcommand handlers (each returns the JSON payload) -----------------------


def _cmd_norm(args) -> dict:
    return {"value": str(norm(_vec(args, "vec"), args.norm))}


def _cmd_distance(args) -> dict:
    return {"value": str(distance(_vec(args, "x"), _vec(args, "y"), args.norm))}


def _cmd_between(args) -> dict:
    result = betweenness.is_metrically_between(
        _vec(args, "x"), _vec(args, "z"), _vec(args, "y"))
    return {"between": result}


def _cmd_segment(args) -> dict:
    seg = betweenness.segment(_vec(args, "x"), _vec(args, "y"), args.cap)
    return seg.to_json_dict()


def _cmd_minimize(args) -> dict:
    minimum, seg = betweenness.minimize_two_point(
        _vec(args, "a"), _vec(args, "c"), args.cap)
    return {
        "minimum": str(minimum),
        "witnesses": [[str(c) for c in p.coords] for p in seg.points],
        "k": seg.k,
    }


def _cmd_verify(args) -> dict:
    return verify_isometry(_read_probes(args.probes), args.norm).to_json_dict()


def _cmd_decompose(args) -> dict:
    return decompose(_read_probes(args.probes)).to_json_dict()


def _cmd_counterexample(args) -> dict:
    e0 = _vec(args, "e0")
    v0 = _vec(args, "v0")
    if args.probes:
        points = list(_read_probes(args.probes).domain)
    elif args.values:
        points = sampling.grid_from_values(args.field, e0.dim, args.values.split(","))
    else:
        raise ParseError("counterexample needs --probes or --values")
    return sphere_shift_map(e0, v0, points, args.norm).to_json_dict()


def _cmd_enumerate(args) -> dict:
    result = oracle.enumerate_isometries(
        args.q, args.n, args.norm, centred=args.centred, cap=args.cap)
    return result.to_json_dict(timing=args.timing)


def _cmd_check_betweenness(args) -> dict:
    report = oracle.exhaustive_betweenness_check(args.q, args.n, args.cap)
    return report.to_json_dict(timing=args.timing)


def _cmd_check_axioms(args) -> dict:
    import random

    rng = random.Random(args.seed)
    pairs = [
        (sampling.random_scalar(args.field, rng), sampling.random_scalar(args.field, rng))
        for _ in range(args.samples)
    ]
    payload = {"valuation": check_valuation_axioms(args.field, pairs).to_json_dict()}
    if args.norm is not None:
        triples = sampling.norm_axiom_samples(args.field, args.dim, args.samples, rng)
        payload["norm"] = check_norm_axioms(args.norm, args.field, triples).to_json_dict()
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultranorm",
        description="Exact taxicab-norm geometry over ultrametric valued fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        return cmd

    # field/norm strings are parsed in main() so malformed values surface as
    # structured domain errors (exit 1), not argparse usage errors (exit 2)
    field_kw = dict(required=True, metavar="FIELD",
                    help="padic:p, gf:q, or trivial:q")
    norm_kw = dict(metavar="NORM", help="one, sup, or wsup:w1,w2,...")

    cmd = add("norm", _cmd_norm, "norm of a vector")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--norm", required=True, **norm_kw)
    cmd.add_argument("--vec", required=True, help="comma-separated scalars")

    cmd = add("distance", _cmd_distance, "distance between two vectors")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--norm", required=True, **norm_kw)
    cmd.add_argument("--x", required=True)
    cmd.add_argument("--y", required=True)

    cmd = add("between", _cmd_between, "taxicab metric betweenness of z w.r.t. x, y")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--x", required=True)
    cmd.add_argument("--z", required=True)
    cmd.add_argument("--y", required=True)

    cmd = add("segment", _cmd_segment, "enumerate the metric segment of x, y")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--x", required=True)
    cmd.add_argument("--y", required=True)
    cmd.add_argument("--cap", type=int, default=None, help="max points (default 2^16)")

    cmd = add("minimize", _cmd_minimize, "minimize ||c-b|| + ||b-a|| over b")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--c", required=True)
    cmd.add_argument("--cap", type=int, default=None)

    cmd = add("verify", _cmd_verify, "verify a probe map preserves distances")
    cmd.add_argument("--norm", required=True, **norm_kw)
    cmd.add_argument("--probes", required=True, help="probe JSON file, or - for stdin")

    cmd = add("decompose", _cmd_decompose, "recover the axial form of a probe map")
    cmd.add_argument("--probes", required=True, help="probe JSON file, or - for stdin")

    cmd = add("counterexample", _cmd_counterexample,
              "sup-norm sphere-shift isometry as a probe map")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--e0", required=True, help="shift vector")
    cmd.add_argument("--v0", required=True, help="vector whose sphere is shifted")
    cmd.add_argument("--norm", default=NormSpec.sup(), **norm_kw)
    cmd.add_argument("--probes", default=None, help="probe JSON file, or - for stdin")
    cmd.add_argument("--values", default=None,
                     help="comma-separated scalar values; probes = full product grid")

    cmd = add("enumerate", _cmd_enumerate, "brute-force all isometries of F_q^n")
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--norm", default=NormSpec.one(), **norm_kw)
    cmd.add_argument("--centred", action="store_true", help="only maps fixing 0")
    cmd.add_argument("--cap", type=int, default=None, help="max points (default 9)")
    cmd.add_argument("--timing", action="store_true", help="include wall-clock duration")

    cmd = add("check-betweenness", _cmd_check_betweenness,
              "exhaustively compare metric and coordinate betweenness")
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--cap", type=int, default=None, help="max triples (default 10^7)")
    cmd.add_argument("--timing", action="store_true")

    cmd = add("check-axioms", _cmd_check_axioms,
              "randomized valuation (and norm) axiom sweep")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--norm", default=None, **norm_kw)
    cmd.add_argument("--dim", type=int, default=2)
    cmd.add_argument("--samples", type=int, default=500)
    cmd.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if isinstance(getattr(args, "field", None), str):
            args.field = FieldSpec.parse(args.field)
        if isinstance(getattr(args, "norm", None), str):
            args.norm = NormSpec.parse(args.norm)
        _emit(args.handler(args), args.format)
    except UltranormError as exc:
        _emit({"error": exc.to_json_dict()}, args.format)
        return 1
    except Exception as exc:
        import traceback  # here, not at the top: it would slow every start

        traceback.print_exc()
        _emit({"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}},
              args.format)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
