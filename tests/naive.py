"""Independent reference implementations used as oracles by the test suite.

Nothing here imports the package under test.  Everything is written the
"obvious slow way" straight from the definitions: valuations by counting
prime factors, segments by filtering whole spaces against the metric
equation, isometry groups by filtering all bijections.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def count_factor(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    n = abs(n)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def padic_abs(x: Fraction, p: int) -> Fraction:
    """|x|_p with the normalization |p|_p = 1/p."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = count_factor(x.numerator, p) - count_factor(x.denominator, p)
    return Fraction(p) ** (-v)


def trivial_abs(x) -> Fraction:
    return Fraction(0) if x == 0 else Fraction(1)


def one_norm(coords, absval) -> Fraction:
    return sum((absval(c) for c in coords), Fraction(0))


def sup_norm(coords, absval) -> Fraction:
    return max(absval(c) for c in coords)


def weighted_sup_norm(coords, absval, weights) -> Fraction:
    return max(Fraction(w) * absval(c) for w, c in zip(weights, coords))


def hamming(xs, ys) -> int:
    return sum(1 for a, b in zip(xs, ys) if a != b)


def metric_between(x, z, y, dist) -> bool:
    """d(x,y) = d(x,z) + d(z,y), taken literally."""
    return dist(x, y) == dist(x, z) + dist(z, y)


def segment_by_filter(space, x, y, dist):
    """Every point of `space` satisfying the metric equation for x, y."""
    return [z for z in space if metric_between(x, z, y, dist)]


def gf_space(q: int, n: int):
    return list(itertools.product(range(q), repeat=n))


def gf_one_dist(q: int):
    def dist(xs, ys):
        return Fraction(hamming(xs, ys))
    return dist


def gf_sup_dist(q: int):
    def dist(xs, ys):
        return Fraction(0) if xs == ys else Fraction(1)
    return dist


def isometries_by_filter(space, dist):
    """All bijections of `space` preserving `dist`, as image tuples.

    Brute force over every permutation; only usable for tiny spaces.
    """
    points = list(space)
    index = list(range(len(points)))
    found = []
    for perm in itertools.permutations(index):
        if all(
            dist(points[i], points[j]) == dist(points[perm[i]], points[perm[j]])
            for i in index
            for j in index
            if i < j
        ):
            found.append(tuple(perm))
    return found


def wreath_order(q: int, n: int, centred: bool = False) -> int:
    """n! * (q!)^n, with one coordinate-map orbit pinned when centred."""
    per_axis = math.factorial(q - 1) if centred else math.factorial(q)
    return math.factorial(n) * per_axis**n


def is_axial(perm, q: int, n: int) -> bool:
    """Whether points[i] -> points[perm[i]] is an axial map of F_q^n.

    `points` is gf_space(q, n), in lexicographic order.  Axial means: for
    some permutation s of the axes and bijections g_j of F_q (a translation
    folds into the g_j), output coordinate j of every image is
    g_j(input coordinate s[j]).  Every s is tried.
    """
    space = gf_space(q, n)
    for s in itertools.permutations(range(n)):
        tables = [{} for _ in range(n)]
        consistent = all(
            tables[j].setdefault(x[s[j]], space[perm[i]][j]) == space[perm[i]][j]
            for i, x in enumerate(space)
            for j in range(n)
        )
        if consistent and all(sorted(t.values()) == list(range(q)) for t in tables):
            return True
    return False
