"""Seeded inputs and independent answer checks for the three workloads.

Nothing here imports qball: inputs and expected answers are built from
first principles, so a wrong answer from the program cannot also hide
in its own reference.

* sweep    - ``qball verify --max-n 6 --workers 1``; every pass is the same
             164 rows, checked against a reference recorded at the seed
             commit (the sweep universe is fixed by N, so the seed is unused).
* classify - ``classify_surgery(a, t)`` over the 165 canonical strings of
             ``enumerate_strings(6, 0)`` times t in {-2..2}; the seed only
             shuffles the 825 queries, which changes which query pays for a
             memoized search but not the total work.
* bundle   - ``classify_torus_bundle(normalize_monodromy(M))`` on seeded
             SL(2,Z) conjugates of +-string_matrix(a)^p; the sizes follow a
             fixed stratified schedule so that every seed costs about the same.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "classify", "bundle")

SWEEP_MAX_N = 6
SWEEP_ARGV = ["verify", "--max-n", str(SWEEP_MAX_N), "--workers", "1"]
CLASSIFY_MAX_LEN = 6
TWISTS = (-2, -1, 0, 1, 2)

REF_DIR = Path(__file__).resolve().parent / "ref"
SWEEP_REF = REF_DIR / "sweep.json"
CLASSIFY_REF = REF_DIR / "classify.json"

# bundle schedule: sizes sit on log grids, so short strings dominate the
# count while the long ones (membership cost grows about 6x per
# doubling) still appear a fixed number of times.
# Sizes are kept below what the package handles (strings of length 128,
# exponents of 10^5 work) so that a pass of 192 matrices takes about two
# seconds: the per-item best over many passes and a dense middle of the
# cost distribution are what make the median repeat from seed to seed.
MAX_STRING_LEN = 64
MAX_POWER = 80
MAX_CONJ_EXPONENT = 10**4
SMALL_EXPONENT = 100
SLOT_REPEATS = 4  # 192 items
CONJ_SCRAMBLE = 29  # coprime to the number of slots
GOLDEN = (math.sqrt(5) - 1) / 2
STRATA = 8
SIGNS = (1, -1)
KINDS = ("random", "s2c", "power")


def seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# strings and matrices, written independently of the package


def canonical(a) -> tuple[int, ...]:
    """Lexicographic minimum over rotations and reversals."""
    a = tuple(a)
    r = a[::-1]
    return min(min(a[k:] + a[:k], r[k:] + r[:k]) for k in range(len(a)))


def _mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def block_product(a):
    """T^-a_n S ... T^-a_1 S, each factor [[a_i, 1], [-1, 0]]."""
    m = ((1, 0), (0, 1))
    for x in reversed(a):
        m = _mul(m, ((x, 1), (-1, 0)))
    return m


def _inverse(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def is_s2c(a) -> bool:
    """S2c membership read off the cyclic block structure.

    Split a cyclically into blocks (3 + x, 2^[r]).  The S2c template
    (3+x_1, 2^[x_2], 3+x_3, ..., 3+x_{2k+1}, 2^[x_1], 3+x_2, ..., 2^[x_{2k+1}])
    has m = 2k+1 blocks, and the run after block t equals the excess of
    block t+k+1.  That condition is invariant under rotation, so it is
    tested once per orientation.
    """
    a = tuple(a)
    if max(a) < 3:
        return False
    for s in (a, a[::-1]):
        start = next(i for i, x in enumerate(s) if x >= 3)
        s = s[start:] + s[:start]
        blocks = []
        for x in s:
            if x >= 3:
                blocks.append([x - 3, 0])
            else:
                blocks[-1][1] += 1
        m = len(blocks)
        if m % 2 == 0:
            continue
        k = (m - 1) // 2
        if all(blocks[t][1] == blocks[(t + k + 1) % m][0] for t in range(m)):
            return True
    return False


def s2c_template(xs) -> tuple[int, ...]:
    m = len(xs)
    out: list[int] = []
    j = 0
    for _ in range(m):
        out.append(3 + xs[j])
        out.extend([2] * xs[(j + 1) % m])
        j = (j + 2) % m
    return tuple(out)


# ---------------------------------------------------------------------------
# bundle inputs


def _log_grid(j: float, count: int, top: float) -> int:
    """round(top ** (j / count)): point j of a log-spaced grid ending at top."""
    return max(1, round(top ** (j / count)))


def _entries(n: int) -> list[int]:
    """The n quantiles of the entry law P(2) = 1/2, P(3) = 1/4, ...

    Strings draw only the order of these entries, so two seeds give
    strings with the same entries, the same number of 2s and about the
    same membership and normal-form cost.  The median quantile is 3, so
    every string has an entry >= 3.
    """
    return [min(12, 2 + int(math.log2(n / (n - i - 0.5)))) for i in range(n)]


def _random_string(rng, n: int) -> tuple[int, ...]:
    s = _entries(n)
    rng.shuffle(s)
    return tuple(s)


def _random_s2c(rng, n: int, u: float) -> tuple[int, ...]:
    """An S2c string of length n with 2k+1 blocks, k = u * max.

    Membership cost triples between few and many blocks, so u comes from
    the schedule; the 2-run lengths are the quantiles of an exponential
    law, in an order drawn from rng.
    """
    k = int(u * ((n - 1) // 2 + 1))
    m = 2 * k + 1
    weights = [math.log(m / (m - i - 0.5)) for i in range(m)]
    xs = [int((n - m) * w / sum(weights)) for w in weights]
    for i in range(n - m - sum(xs)):
        xs[-1 - i % m] += 1
    rng.shuffle(xs)
    s = s2c_template(xs)
    if rng.random() < 0.5:
        s = s[::-1]
    r = rng.randrange(len(s))
    return s[r:] + s[:r]


def _conjugator(rng, e: int):
    """S T^e S T^f in random order, with 1 <= f < SMALL_EXPONENT.

    The normal form walks about |e| steps when e is negative and one
    when it is positive, so e comes from the schedule and f is positive.
    """
    exps = [e, rng.randrange(1, SMALL_EXPONENT)]
    rng.shuffle(exps)
    c = ((1, 0), (0, 1))
    for x in exps:
        c = _mul(_mul(c, ((0, 1), (-1, 0))), ((1, x), (0, 1)))
    return c


def bundle_items(seed: int) -> list[dict]:
    """The bundle inputs for a seed, with their expected classes.

    Per-item cost spans three decades, so everything that sets it follows
    a fixed schedule: 64 items of each kind, half of each sign, with sizes
    on a log grid; entry multisets; S2c block counts; and one conjugator
    exponent per item from a log grid up to MAX_CONJ_EXPONENT with
    alternating sign.  The seed draws the order of the entries, the
    rotation, the reflection and the small conjugator letter.  Drawing
    the sizes too would make the median and the throughput depend on the
    seed.  Nothing is filtered: a matrix the program cannot normalize is
    counted as failed, not replaced.
    """
    rng = seed_rng("bundle", seed)
    slots = [(kind, j, sign, r) for r in range(SLOT_REPEATS) for kind in KINDS for j in range(STRATA) for sign in SIGNS]
    items = []
    for i, (kind, j, sign, r) in enumerate(slots):
        # the signs and repeats take the quarter steps of the size grid, so
        # no two items of a kind share a size and the costs have no gaps
        step = j + 1 - ((0 if sign > 0 else SLOT_REPEATS) + r) / (2 * SLOT_REPEATS)
        if kind == "power":
            p = _log_grid(step, STRATA, MAX_POWER)
            base = _random_string(rng, 1 + j % 2)
        else:
            p = 1
            n = _log_grid(step, STRATA, MAX_STRING_LEN)
            if kind == "random":
                base = _random_string(rng, n)
            else:
                base = _random_s2c(rng, n, (i * GOLDEN) % 1.0)
        m = ((1, 0), (0, 1))
        for _ in range(p):
            m = _mul(m, block_product(base))
        if sign < 0:
            m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
        # a fixed scramble pairs each slot with one exponent grid point
        cj = (i * CONJ_SCRAMBLE) % len(slots)
        e = (-1) ** cj * _log_grid(cj + 0.5, len(slots), MAX_CONJ_EXPONENT)
        c = _conjugator(rng, e)
        matrix = _mul(_mul(c, m), _inverse(c))
        items.append(
            {
                "kind": kind,
                "matrix": [list(matrix[0]), list(matrix[1])],
                "sign": sign,
                "string": list(canonical(base * p)),
            }
        )
    rng.shuffle(items)
    return items


def expected_bundle_verdict(sign: int, string) -> tuple[str, list[str]]:
    if sign < 0:
        return "NotBounds", ["hyperbolic-negative"]
    if is_s2c(string):
        return "Bounds", ["hyperbolic-S2c"]
    return "NotBounds", ["hyperbolic-not-S2c"]


# ---------------------------------------------------------------------------
# classify inputs


def classify_queries(seed: int) -> list[tuple[list[int], int]]:
    ref = load_json(CLASSIFY_REF)
    queries = [(q["string"], q["t"]) for q in ref["queries"]]
    seed_rng("classify", seed).shuffle(queries)
    return queries
