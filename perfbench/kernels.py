"""Cyclotomic micro-kernels: cost of one field operation by conductor.

Operands are drawn from the benchmark seed: elements of Q(zeta_m) with three
random terms and small rational coefficients, kept only when their canonical
conductor is exactly m.  A `Fraction` add gives the baseline that the
scalar layer is measured against.  Each figure is the median over five
timed repetitions of the per-operation time in microseconds.
"""

import random
import statistics
import time
from fractions import Fraction

CONDUCTORS = (1, 4, 20, 28, 60)
OPERANDS = 64
REPEATS = 5
MIN_REPEAT_S = 0.02


def _fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _element(rng, m):
    from refleig.cyclotomic import Cyclotomic

    while True:
        terms = {}
        for _ in range(1 if m == 1 else 3):
            k = rng.randrange(m)
            terms[k] = terms.get(k, 0) + _fraction(rng)
        x = Cyclotomic(m, terms)
        if x and x.order == m:
            return x


def _per_op_us(op, operands):
    """Median over repeats of the time per call of op(a, b), in microseconds."""
    pairs = list(zip(operands, operands[1:] + operands[:1]))
    clock = time.perf_counter
    t = clock()
    for a, b in pairs:
        op(a, b)
    loops = max(1, int(MIN_REPEAT_S / max(clock() - t, 1e-9)) + 1)
    samples = []
    for _ in range(REPEATS):
        t = clock()
        for _ in range(loops):
            for a, b in pairs:
                op(a, b)
        samples.append((clock() - t) / (loops * len(pairs)) * 1e6)
    return statistics.median(samples)


def run(seed):
    """All kernel figures, keyed by their per-layer metric names."""
    rng = random.Random(seed)
    out = {}
    operands = {m: [_element(rng, m) for _ in range(OPERANDS)] for m in CONDUCTORS}
    for m in CONDUCTORS:
        out[f"cyclotomic.add_us.c{m}"] = _per_op_us(lambda a, b: a + b, operands[m])
        out[f"cyclotomic.mul_us.c{m}"] = _per_op_us(lambda a, b: a * b, operands[m])
    out["cyclotomic.inverse_us.c28"] = _per_op_us(lambda a, _b: a.inverse(), operands[28])
    out["cyclotomic.embed_us.c28"] = _per_op_us(lambda a, _b: a.embed(128), operands[28])
    fractions = [_fraction(rng) for _ in range(OPERANDS)]
    out["cyclotomic.fraction_add_us"] = _per_op_us(lambda a, b: a + b, fractions)
    return out
