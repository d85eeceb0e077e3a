"""Batch command-line surface: one subcommand per library operation.

Output is compact JSON, byte-deterministic for identical inputs.  Exit codes:
0 success, 1 domain error (structured error JSON on stdout), 2 usage error,
3 internal error: a bug, reported as {"error": {"type": "internal", ...}} on
stdout with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import betweenness, oracle, sampling
from .errors import (DEFAULT_ENUM_CAP, DEFAULT_SPACE_CAP, DEFAULT_TRIPLE_CAP,
                     DEFAULT_ULTRAMETRIC_SPACE_CAP, VERIFY_CAP, EnumerationTooLargeError,
                     InvalidInputError, ParseError, UltranormError, quoted)
from .fields import FieldSpec, check_valuation_axioms
from .isometry import ProbeMap, decompose, sphere_shift_map, verify_isometry
from .spaces import NormSpec, Vector, check_norm_axioms, distance, norm


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(",", ":")))


def _read_probes(source: str) -> ProbeMap:
    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ParseError(
                f"cannot read probe file {quoted(source)}: {exc.strerror}") from None
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"probe input is not JSON: {exc}") from None
    except RecursionError:
        raise ParseError("probe input nests too deeply to parse") from None
    return ProbeMap.from_json(obj)


def _payload(args) -> dict:
    """Run the subcommand; an exact result too long to print is a domain error.
    With --timing, the handler's wall-clock seconds come last, as duration_s."""
    t0 = time.perf_counter()
    try:
        payload = args.handler(args)
    except ValueError as exc:  # int -> str past sys.get_int_max_str_digits()
        if "sys.set_int_max_str_digits" not in str(exc):
            raise
        raise InvalidInputError(
            f"result has a number past the {sys.get_int_max_str_digits()}-digit "
            "limit for printing integers") from None
    if getattr(args, "timing", False):
        payload["duration_s"] = time.perf_counter() - t0
    return payload


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
    return {"minimum": str(minimum), "witnesses": seg.to_json_dict()["segment"], "k": seg.k}


def _read_pairwise_probes(source: str) -> ProbeMap:
    """Read a probe map, refused before any work on it when its probes are too
    many to compare pairwise: verify compares every pair, decompose's tables may."""
    probes = _read_probes(source)
    size = len(probes.domain)
    EnumerationTooLargeError.check(size, 2, VERIFY_CAP, f"{size} probes, squared")
    return probes


def _cmd_verify(args) -> dict:
    return verify_isometry(_read_pairwise_probes(args.probes), args.norm).to_json_dict()


def _cmd_decompose(args) -> dict:
    return decompose(_read_pairwise_probes(args.probes)).to_json_dict()


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
    return result.to_json_dict()


def _cmd_check_betweenness(args) -> dict:
    return oracle.exhaustive_betweenness_check(args.q, args.n, args.cap).to_json_dict()


def _cmd_check_axioms(args) -> dict:
    if args.samples < 0:
        raise InvalidInputError(f"--samples must be nonnegative, got {args.samples}")
    if args.norm is not None and args.dim < 1:
        raise InvalidInputError(f"--dim must be at least 1, got {args.dim}")
    dim = args.dim if args.norm is not None else 1  # only --norm draws vectors
    EnumerationTooLargeError.check(args.samples * dim, 1, DEFAULT_ENUM_CAP,
                                   f"{args.samples} samples x {dim} coordinates")
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
        return cmd

    # field/norm strings are parsed in main() so malformed values surface as
    # structured domain errors (exit 1), not argparse usage errors (exit 2)
    field_kw = dict(required=True, metavar="FIELD",
                    help="padic:p, gf:q, or trivial:q")
    norm_kw = dict(metavar="NORM", help="one, sup, or wsup:w1,w2,...")
    segment_cap_kw = dict(type=int, default=None, help=f"max points (default {DEFAULT_ENUM_CAP})")

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
    cmd.add_argument("--cap", **segment_cap_kw)

    cmd = add("minimize", _cmd_minimize, "minimize ||c-b|| + ||b-a|| over b")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--a", required=True)
    cmd.add_argument("--c", required=True)
    cmd.add_argument("--cap", **segment_cap_kw)

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
    cmd.add_argument("--cap", type=int, default=None,
                     help=f"max points (default {DEFAULT_SPACE_CAP}; "
                          f"{DEFAULT_ULTRAMETRIC_SPACE_CAP} for sup and wsup)")
    cmd.add_argument("--timing", action="store_true", help="append wall-clock duration_s")

    cmd = add("check-betweenness", _cmd_check_betweenness,
              "exhaustively compare metric and coordinate betweenness")
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--cap", type=int, default=None,
                     help=f"max triples (default {DEFAULT_TRIPLE_CAP})")
    cmd.add_argument("--timing", action="store_true", help="append wall-clock duration_s")

    cmd = add("check-axioms", _cmd_check_axioms,
              "randomized valuation (and norm) axiom sweep")
    cmd.add_argument("--field", **field_kw)
    cmd.add_argument("--norm", default=None, **norm_kw)
    cmd.add_argument("--dim", type=int, default=2)
    cmd.add_argument("--samples", type=int, default=500,
                     help=f"samples (x dim with --norm) at most {DEFAULT_ENUM_CAP}")
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
        _emit(_payload(args))
    except UltranormError as exc:
        _emit({"error": exc.to_json_dict()})
        return 1
    except Exception as exc:
        import traceback  # here, not at the top: it would slow every start

        traceback.print_exc()
        _emit({"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}})
        return 3
    return 0
