"""The four workloads: seeded inputs, timed passes and their checks.

Inputs come from the benchmark's own ``random.Random`` and are built only
through public constructors of ``ultranorm`` (``FieldSpec.parse``,
``Vector.make``, ``AffineMap``, ``TableMap.from_residues``,
``AxialIsometry``, ``ProbeMap``), never from ``ultranorm.sampling``.
Expected results are computed here with plain integers and ``Fraction``s,
independently of the library.

A workload runs in whole passes over its inputs.  A pass times its two
stages from outside with ``perf_counter`` and checks every operation.
Library calls go through attributes of the ``ultranorm`` package, looked up
at call time, so the tracer sees them when it is installed.  No call passes
``jobs=`` or ``--jobs``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import calibration
import checkout

U = checkout.import_ultranorm()
import ultranorm.cli  # noqa: E402  (loaded now, so the tracer rebinds its names too)

PRIMARY = "primary"
SECONDARY = "secondary"


class Tally:
    """Per-operation work and time, and check outcomes, of one pass.

    Each operation's time is scaled to nominal host speed
    (``calibration``): by the mean of the speeds read at its ``start``,
    while it runs when it runs in this process, and at the next ``start``
    or ``finish``.  An operation that is a process (``env`` given) is read
    against a bare interpreter start in that environment.
    """

    def __init__(self, env: dict | None = None):
        self.ops: dict[tuple[str, str], tuple[int, float]] = {}
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._env = env
        self._sampler = calibration.Sampler()
        self._speed = 1.0
        self._open: list[tuple] = []     # operations awaiting the next speed reading

    def _read_speed(self) -> float:
        if self._env is None:
            return calibration.speed()
        return calibration.process_speed(self._env)

    def start(self) -> float:
        """Read the host's speed; return the next operation's start time."""
        self._sampler.disarm()
        self._close(self._read_speed())
        if self._env is None:
            self._sampler.arm()
        return perf_counter()

    def add(self, stage: str, op: str, units: int, seconds: float) -> None:
        """Record ``units`` of work that the operation last started did, as
        operation ``op`` of ``stage``."""
        self._sampler.disarm()
        self._open.append((stage, op, units, seconds - self._sampler.paused,
                           self._sampler.speeds))

    def finish(self) -> None:
        self._sampler.disarm()
        self._close(self._read_speed())

    def _close(self, speed: float) -> None:
        for stage, op, units, seconds, speeds in self._open:
            scale = statistics.fmean([self._speed, *speeds, speed])
            self.ops[stage, op] = (units, seconds * scale)
        self._open = []
        self._speed = speed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


# -- exact arithmetic owned by the benchmark ---------------------------------


def padic_abs(a: Fraction, p: int) -> Fraction:
    """|a|_p by counting factors of p."""
    if a == 0:
        return Fraction(0)
    v = 0
    num, den = a.numerator, a.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(p) ** -v


def padic_value(rng: random.Random, p: int, lo: int, hi: int) -> Fraction:
    """A nonzero rational whose p-adic valuation is drawn from [lo, hi]."""
    while True:
        num, den = rng.randint(1, 30), rng.randint(1, 30)
        if num % p and den % p:
            break
    return rng.choice((-1, 1)) * Fraction(num, den) * Fraction(p) ** rng.randint(lo, hi)


def coords_text(v) -> str:
    return ",".join(str(c) for c in v.coords)


# -- padic-segments ----------------------------------------------------------


@dataclass
class SegmentCase:
    label: str
    x: object
    y: object
    k: int
    distance: Fraction
    points: frozenset[str]    # the expected segment, each point as "c1,c2,..."


class PadicSegments:
    """Segments of p-adic pairs, each point re-checked, then the minimizer.

    Every dimension n in 1..12 appears twice, with k = n - n//4 and k = n//2
    differing coordinates, so distance cost (n) and segment size (2^k) vary
    separately while the work of a pass does not depend on the seed.  A
    quarter of the pairs are over padic:2, the rest over padic:3.
    """

    name = "padic-segments"
    runs_processes = False
    stages = (("segment_points_per_s", "segment points enumerated and re-checked per second"),
              ("minimize_pairs_per_s", "two-point minimizations per second"))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        slots = [(n, k) for n in range(1, 5 if tiny else 13) for k in (n - n // 4, n // 2)]
        binary = set(rng.sample(range(len(slots)), len(slots) // 4))
        self.cases = [self._case(rng, i, n, k, 2 if i in binary else 3)
                      for i, (n, k) in enumerate(slots)]
        rng.shuffle(self.cases)

    @staticmethod
    def _case(rng: random.Random, slot: int, n: int, k: int, p: int) -> SegmentCase:
        def coordinate() -> Fraction:
            return Fraction(0) if rng.random() < 0.125 else padic_value(rng, p, -3, 3)

        differ = sorted(rng.sample(range(n), k))
        xs = [coordinate() for _ in range(n)]
        ys = list(xs)
        for i in differ:
            while ys[i] == xs[i]:
                ys[i] = coordinate()
        points = frozenset(
            ",".join(str(ys[i] if i in chosen else xs[i]) for i in range(n))
            for size in range(k + 1)
            for chosen in map(set, itertools.combinations(differ, size)))
        field = U.FieldSpec.parse(f"padic:{p}")
        return SegmentCase(
            label=f"pair {slot}: padic:{p} n={n} k={k}",
            x=U.Vector.make(field, xs), y=U.Vector.make(field, ys), k=k,
            distance=sum((padic_abs(a - b, p) for a, b in zip(xs, ys)), Fraction(0)),
            points=points)

    def warm(self) -> None:
        self._run([c for c in self.cases if c.x.dim <= 2], Tally())

    def run_pass(self, tally: Tally) -> None:
        self._run(self.cases, tally)

    @staticmethod
    def _run(cases: list[SegmentCase], tally: Tally) -> None:
        for case in cases:
            x, y = case.x, case.y
            try:
                t0 = tally.start()
                seg = U.segment(x, y)
                between = [U.is_metrically_between(x, z, y) for z in seg.points]
                tally.add(PRIMARY, case.label, len(seg.points), perf_counter() - t0)
                t0 = tally.start()
                minimum, witnesses = U.minimize_two_point(x, y)
                tally.add(SECONDARY, case.label, 1, perf_counter() - t0)
            except Exception as exc:
                tally.check(False, f"{case.label}: {exc!r}")
                continue
            got = [coords_text(z) for z in seg.points]
            tally.check(seg.k == case.k and len(got) == 2 ** case.k
                        and set(got) == case.points, f"{case.label}: segment")
            for z, flag in zip(got, between):
                tally.check(flag is True, f"{case.label}: {z} not between")
            tally.check(minimum == case.distance and len(witnesses.points) == 2 ** case.k,
                        f"{case.label}: minimum {minimum} != {case.distance}")

    def close(self) -> None:
        pass


# -- finite-oracle -----------------------------------------------------------


@dataclass
class EnumerationCase:
    q: int
    n: int
    norm: str
    centred: bool
    cap: int | None
    count: int
    axial: int

    @property
    def label(self) -> str:
        return f"enumerate F_{self.q}^{self.n} {self.norm}" + (" centred" if self.centred else "")


@dataclass
class BetweennessCase:
    q: int
    n: int
    triples: int

    @property
    def label(self) -> str:
        return f"betweenness F_{self.q}^{self.n}"


def axial_count(q: int, n: int, centred: bool) -> int:
    return math.factorial(n) * math.factorial(q - 1 if centred else q) ** n


class FiniteOracle:
    """The isometry search with its classification, then betweenness checks.

    Over F_q the one-norm isometries are the n!(q!)^n axial maps.  Under the
    sup norm every bijection of F_2^2 is an isometry: 24 maps, 8 of them
    axial.  The seed only shuffles the order of the fixed list of spaces.
    """

    name = "finite-oracle"
    runs_processes = False
    stages = (("enumerate_maps_per_s", "isometries found and classified per second"),
              ("triples_per_s", "betweenness triples per second"))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        if tiny:
            spaces = [(2, 2, "one", False, None), (2, 2, "one", True, None),
                      (2, 2, "sup", False, None)]
            triples = [(2, 2), (3, 1)]
        else:
            spaces = [(3, 3, "one", False, 27), (2, 3, "one", False, None),
                      (2, 3, "one", True, None), (2, 4, "one", False, 16),
                      (2, 2, "sup", False, None)]
            triples = [(3, 2), (5, 2)]
        self.enumerations = []
        for q, n, norm, centred, cap in spaces:
            axial = axial_count(q, n, centred)
            count = math.factorial(q ** n) if norm == "sup" else axial
            self.enumerations.append(EnumerationCase(q, n, norm, centred, cap, count, axial))
        self.betweenness = [BetweennessCase(q, n, (q ** n) ** 3) for q, n in triples]
        rng.shuffle(self.enumerations)
        rng.shuffle(self.betweenness)
        self.norms = {"one": U.NormSpec.parse("one"), "sup": U.NormSpec.parse("sup")}

    def warm(self) -> None:
        U.enumerate_isometries(2, 2, self.norms["one"])
        U.exhaustive_betweenness_check(2, 1)

    def run_pass(self, tally: Tally) -> None:
        for case in self.enumerations:
            kwargs = {"centred": case.centred}
            if case.cap is not None:
                kwargs["cap"] = case.cap
            try:
                t0 = tally.start()
                result = U.enumerate_isometries(case.q, case.n, self.norms[case.norm], **kwargs)
                t1 = perf_counter()
            except Exception as exc:
                tally.check(False, f"{case.label}: {exc!r}")
                continue
            found = len(result.isometries)
            tally.add(PRIMARY, case.label, found, t1 - t0)
            tally.check(found == case.count and len(set(result.isometries)) == found,
                        f"{case.label}: {found} isometries, expected {case.count}")
            tally.check(result.axial == case.axial,
                        f"{case.label}: {result.axial} axial, expected {case.axial}")
        for case in self.betweenness:
            try:
                t0 = tally.start()
                report = U.exhaustive_betweenness_check(case.q, case.n)
                t1 = perf_counter()
            except Exception as exc:
                tally.check(False, f"{case.label}: {exc!r}")
                continue
            tally.add(SECONDARY, case.label, case.triples, t1 - t0)
            tally.check(report.triples == case.triples and report.mismatches == 0,
                        f"{case.label}: {report.mismatches} mismatches in {report.triples}")

    def close(self) -> None:
        pass


# -- decompose-roundtrip -----------------------------------------------------


@dataclass
class DecomposeCase:
    label: str
    probes: object
    images: list | None       # expected replay; None when decompose must fail


@dataclass
class VerifyCase:
    label: str
    probes: object
    norm: object
    ok: bool
    pairs: int


class DecomposeRoundtrip:
    """``decompose`` on axial maps and on non-axial ones; ``verify_isometry``.

    Axial maps over F_5^3 (complete 125-point tables, table tau) and over
    padic:3 on a 48-point product grid (affine tau) must decompose and replay
    exactly.  F_5^3 maps with two images swapped, and sphere-shift maps under
    sup, must raise DecompositionError with a witness.  The p-adic axial maps
    preserve both norms; a sphere shift preserves sup but not one.
    """

    name = "decompose-roundtrip"
    runs_processes = False
    stages = (("roundtrips_per_s", "decompose calls per second, with replay checks"),
              ("verify_pairs_per_s", "probe pairs checked by verify_isometry per second"))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        maps = 1 if tiny else 4
        q, n = (3, 2) if tiny else (5, 3)
        self.decompose: list[DecomposeCase] = []
        self.verify: list[VerifyCase] = []
        self.norms = [U.NormSpec.parse("one"), U.NormSpec.parse("sup")]

        gf = U.FieldSpec.parse(f"gf:{q}")
        space = list(itertools.product(range(q), repeat=n))
        domain = tuple(U.Vector.make(gf, x) for x in space)
        for i in range(maps):
            sigma = rng.sample(range(n), n)
            tables = [rng.sample(range(q), q) for _ in range(n)]
            shift = [rng.randrange(q) for _ in range(n)]
            iso = U.AxialIsometry(tuple(sigma),
                                  tuple(U.TableMap.from_residues(gf, t) for t in tables),
                                  U.Vector.make(gf, shift))
            images = [U.Vector.make(gf, [(tables[j][x[sigma[j]]] + shift[j]) % q
                                         for j in range(n)]) for x in space]
            self.decompose.append(DecomposeCase(
                f"gf:{q}^{n} table map {i}",
                U.ProbeMap.from_isometry(iso, domain, complete=True), images))
            a, b = rng.sample(range(len(images)), 2)
            images = list(images)
            images[a], images[b] = images[b], images[a]
            self.decompose.append(DecomposeCase(
                f"gf:{q}^{n} table map {i} with {space[a]} and {space[b]} swapped",
                U.ProbeMap(domain, tuple(images), complete=True), None))

        p = 3
        qp = U.FieldSpec.parse(f"padic:{p}")
        axes = self._axis_values(rng, p, [2, 2] if tiny else [3, 3, 2])
        n = len(axes)
        grid_values = list(itertools.product(*axes))
        grid = [U.Vector.make(qp, x) for x in grid_values]
        pairs = len(grid) * (len(grid) - 1) // 2
        for i in range(maps):
            sigma = rng.sample(range(n), n)
            units = [padic_value(rng, p, 0, 0) for _ in range(n)]
            consts = [padic_value(rng, p, -2, 2) for _ in range(n)]
            shift = [padic_value(rng, p, -2, 2) for _ in range(n)]
            iso = U.AxialIsometry(
                tuple(sigma),
                tuple(U.AffineMap(qp.scalar(u), qp.scalar(c)) for u, c in zip(units, consts)),
                U.Vector.make(qp, shift))
            images = [U.Vector.make(qp, [units[j] * x[sigma[j]] + consts[j] + shift[j]
                                         for j in range(n)]) for x in grid_values]
            probes = U.ProbeMap.from_isometry(iso, grid)
            label = f"padic:{p}^{n} affine map {i}"
            self.decompose.append(DecomposeCase(label, probes, images))
            for spec in self.norms:
                self.verify.append(VerifyCase(f"{label} under {spec}", probes, spec, True, pairs))
        for i in range(maps):
            # ||e0|| <= 1 < 3 = ||v0||: the shifted sphere holds an axis
            # probe of every axis, and one off e0's support leaves its axis
            e0 = [Fraction(0)] * n
            for j in rng.sample(range(n), rng.randint(1, n - 1)):
                e0[j] = padic_value(rng, p, 0, 1)
            v0 = [Fraction(0)] * n
            v0[rng.randrange(n)] = padic_value(rng, p, -1, -1)
            probes = U.sphere_shift_map(U.Vector.make(qp, e0), U.Vector.make(qp, v0), grid,
                                        self.norms[1])
            label = f"padic:{p}^{n} sphere shift {i}"
            self.decompose.append(DecomposeCase(label, probes, None))
            for spec in self.norms:
                self.verify.append(VerifyCase(f"{label} under {spec}", probes, spec,
                                              str(spec) == "sup", pairs))
        rng.shuffle(self.decompose)
        rng.shuffle(self.verify)

    @staticmethod
    def _axis_values(rng: random.Random, p: int, sizes: list[int]) -> list[list[Fraction]]:
        """Per axis: 0, one value of absolute value p, then others."""
        axes = []
        for size in sizes:
            values = [Fraction(0), padic_value(rng, p, -1, -1)]
            while len(values) < size + 1:
                v = padic_value(rng, p, -1, 1)
                if v not in values:
                    values.append(v)
            axes.append(values)
        return axes

    def warm(self) -> None:
        self._run(self.decompose[:2], [], Tally())

    def run_pass(self, tally: Tally) -> None:
        self._run(self.decompose, self.verify, tally)

    @staticmethod
    def _run(decompose: list[DecomposeCase], verify: list[VerifyCase], tally: Tally) -> None:
        for case in decompose:
            try:
                t0 = tally.start()
                try:
                    candidate = U.decompose(case.probes)
                except U.DecompositionError as exc:
                    candidate, witness = None, exc.witness
                if candidate is not None and case.images is not None:
                    mismatches = sum(candidate.apply(x) != y
                                     for x, y in zip(case.probes.domain, case.images))
                t1 = perf_counter()
            except Exception as exc:
                tally.check(False, f"{case.label}: {exc!r}")
                continue
            tally.add(PRIMARY, case.label, 1, t1 - t0)
            if case.images is None:
                tally.check(candidate is None and witness is not None,
                            f"{case.label}: expected DecompositionError with a witness")
            else:
                tally.check(candidate is not None and mismatches == 0,
                            f"{case.label}: replay is not exact")
        for case in verify:
            try:
                t0 = tally.start()
                report = U.verify_isometry(case.probes, case.norm)
                t1 = perf_counter()
            except Exception as exc:
                tally.check(False, f"{case.label}: {exc!r}")
                continue
            tally.add(SECONDARY, case.label, case.pairs, t1 - t0)
            tally.check(report.ok == case.ok and report.pairs_checked == case.pairs,
                        f"{case.label}: ok={report.ok}, {report.pairs_checked} pairs")

    def close(self) -> None:
        pass


# -- cli-oneshot -------------------------------------------------------------


def exact(text: str) -> Callable[[str], bool]:
    return lambda out: out == text + "\n"


def shown(fields: dict) -> Callable[[str], bool]:
    """The output is one JSON object holding ``fields`` (nested dicts match
    by their shown keys)."""
    def within(got, want) -> bool:
        if isinstance(want, dict):
            return isinstance(got, dict) and all(
                key in got and within(got[key], value) for key, value in want.items())
        return got == want

    def check(out: str) -> bool:
        try:
            return within(json.loads(out), fields)
        except json.JSONDecodeError:
            return False
    return check


def sphere_shift_probes(out: str) -> bool:
    """The README's counterexample: the 6x6 grid over padic:3 with the
    sphere ||x||_sup = 3 shifted by e0 = (1, 0)."""
    try:
        obj = json.loads(out)
    except json.JSONDecodeError:
        return False
    values = [Fraction(v) for v in ("0", "1", "2", "3", "1/3", "4/3")]
    want = set()
    for a, b in itertools.product(values, repeat=2):
        on_sphere = max(padic_abs(a, 3), padic_abs(b, 3)) == 3
        image = (a + 1, b) if on_sphere else (a, b)
        want.add(((str(a), str(b)), tuple(str(c) for c in image)))
    got = obj.get("pairs")
    return (obj.get("field") == "padic:3" and obj.get("n") == 2
            and obj.get("complete") is False and isinstance(got, list)
            and len(got) == len(want)
            and {(tuple(x), tuple(y)) for x, y in got} == want)


@dataclass
class CliCommand:
    argv: list[str]
    exit_code: int
    expect: Callable[[str], bool]
    save_as: str | None = None    # write stdout to this file in the work dir

    @property
    def label(self) -> str:
        return "ultranorm " + " ".join(self.argv)


PROBES = "probes.json"


def readme_commands() -> list[CliCommand]:
    """The README's CLI examples, in README order.

    The README elides the decompose output after the message; the message
    it shows names probe 0,1, but the first axis probe on the shifted sphere
    ||x||_sup = 3 is 0,1/3, which is what is checked here.
    """
    return [
        CliCommand(["norm", "--field", "padic:3", "--norm", "one", "--vec", "9,1/3"], 0,
                   exact('{"value":"28/9"}')),
        CliCommand(["segment", "--field", "padic:3", "--x", "0,0", "--y", "9,1/3"], 0,
                   exact('{"segment":[["0","0"],["9","0"],["0","1/3"],["9","1/3"]],"k":2}')),
        CliCommand(["enumerate", "--q", "3", "--n", "2", "--norm", "one"], 0,
                   exact('{"q":3,"n":2,"norm":"one","centred":false,"isometries":72,'
                         '"axial":72,"formula":72,"match":true,"attempts":1629,'
                         '"non_axial":0}')),
        CliCommand(["check-betweenness", "--q", "2", "--n", "3"], 0,
                   exact('{"q":2,"n":3,"triples":512,"mismatches":0,"ok":true,'
                         '"witnesses":[]}')),
        CliCommand(["counterexample", "--field", "padic:3", "--e0", "1,0", "--v0", "1/3,0",
                    "--values", "0,1,2,3,1/3,4/3"], 0, sphere_shift_probes, save_as=PROBES),
        CliCommand(["verify", "--norm", "sup", "--probes", PROBES], 0,
                   shown({"norm": "sup", "probes": 36, "pairs_checked": 630, "ok": True})),
        CliCommand(["decompose", "--probes", PROBES], 1,
                   shown({"error": {"type": "decomposition-failure",
                                    "message": "image of axis probe 0,1/3 is not on a "
                                               "single axis"}})),
    ]


class CliOneshot:
    """Fresh ``python -m ultranorm`` processes, one at a time, cycling
    through the README's examples; counterexample writes the probe file that
    verify and decompose read.  The seed rotates where the cycle starts."""

    name = "cli-oneshot"
    runs_processes = True    # in run_pass; run_in_process calls cli.main in this process
    stages = (("cli_calls_per_s", "CLI invocations per second over a README cycle"),
              ("enumerate_calls_per_s", "enumerate invocations per second (pool path)"))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.commands = readme_commands()
        start = rng.randrange(len(self.commands))
        self.commands = self.commands[start:] + self.commands[:start]
        self.env = checkout.env()
        checkout.WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=checkout.WORK))

    def warm(self) -> None:
        # one process to read the bytecode cache, and the probe file
        tally = Tally()
        for cmd in readme_commands():
            if cmd.argv[0] in ("norm", "counterexample"):
                self._run(cmd, tally)
        tally.finish()

    def _run(self, cmd: CliCommand, tally: Tally) -> float | None:
        try:
            t0 = tally.start()
            done = subprocess.run([sys.executable, "-m", "ultranorm", *cmd.argv],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            seconds = perf_counter() - t0
        except (OSError, subprocess.TimeoutExpired) as exc:
            tally.check(False, f"{cmd.label}: {exc!r}")
            return None
        self._finish(cmd, done.returncode, done.stdout, tally)
        return seconds

    def _finish(self, cmd: CliCommand, code: int, out: str, tally: Tally) -> None:
        if cmd.save_as and code == 0:
            (self.workdir / cmd.save_as).write_text(out, encoding="utf-8")
        tally.check(code == cmd.exit_code and cmd.expect(out),
                    f"{cmd.label}: exit {code}, stdout {out[:120]!r}")

    def run_pass(self, tally: Tally) -> None:
        for cmd in self.commands:
            seconds = self._run(cmd, tally)
            if seconds is None:
                continue
            tally.add(PRIMARY, cmd.label, 1, seconds)
            tally.latencies_ms.append(seconds * 1000)
            if cmd.argv[0] == "enumerate":
                tally.add(SECONDARY, cmd.label, 1, seconds)

    def run_in_process(self, tally: Tally) -> None:
        """The same cycle through ``ultranorm.cli.main`` in this process,
        stdout captured; probe paths point into the work dir."""
        for cmd in self.commands:
            argv = [str(self.workdir / a) if a == PROBES else a for a in cmd.argv]
            out = io.StringIO()
            try:
                t0 = tally.start()
                with contextlib.redirect_stdout(out):
                    code = U.cli.main(argv)
                seconds = perf_counter() - t0
            except Exception as exc:
                tally.check(False, f"{cmd.label}: {exc!r}")
                continue
            tally.add(PRIMARY, cmd.label, 1, seconds)
            tally.latencies_ms.append(seconds * 1000)
            self._finish(cmd, code, out.getvalue(), tally)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            checkout.WORK.rmdir()


WORKLOADS = {w.name: w for w in (PadicSegments, FiniteOracle, DecomposeRoundtrip, CliOneshot)}
