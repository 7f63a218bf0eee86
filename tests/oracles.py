"""Naive reference implementations used as independent oracles.

Everything here is deliberately written with plain Python loops and the math
and fractions modules only -- no shared code with the library's fast paths -- so a test that
compares the two is a genuine cross-check.
"""

import math
from fractions import Fraction


def pair_distances(design, q=1):
    n = len(design)
    k = len(design[0])
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if q == 1:
                d = sum(abs(design[i][c] - design[j][c]) for c in range(k))
            else:
                d = math.sqrt(sum((design[i][c] - design[j][c]) ** 2 for c in range(k)))
            out.append(d)
    return out


def phi_p(design, p=15, q=1):
    return sum(d ** (-p) for d in pair_distances(design, q)) ** (1.0 / p)


def phi_from_distances(distances, p=15):
    return sum(d ** (-p) for d in distances) ** (1.0 / p)


def maxpro_psi(design):
    n = len(design)
    k = len(design[0])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            prod = 1.0
            for c in range(k):
                prod *= (design[i][c] - design[j][c]) ** 2
            total += 1.0 / prod
    npairs = n * (n - 1) / 2
    return (total / npairs) ** (1.0 / k)


def pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def correlations(design):
    n = len(design)
    k = len(design[0])
    cols = [[design[r][c] for r in range(n)] for c in range(k)]
    return [[pearson(cols[a], cols[b]) for b in range(k)] for a in range(k)]


def avg_abs_cor(design):
    k = len(design[0])
    C = correlations(design)
    vals = [abs(C[a][b]) for a in range(k) for b in range(a + 1, k)]
    return sum(vals) / len(vals)


def max_abs_cor(design):
    k = len(design[0])
    C = correlations(design)
    return max(abs(C[a][b]) for a in range(k) for b in range(a + 1, k))


def avg_sq_cor(design):
    k = len(design[0])
    C = correlations(design)
    vals = [C[a][b] ** 2 for a in range(k) for b in range(a + 1, k)]
    return sum(vals) / len(vals)


def williams(a, n):
    """Williams transform of a residue a in 0..n-1."""
    return 2 * a if 2 * a < n else 2 * (n - a) - 1


def exact_correlation(x, y):
    """Pearson correlation of two columns that permute the same levels, as a
    Fraction: equal levels give equal variances, so r = cov / var exactly."""
    n = len(x)
    cx = [n * a - sum(x) for a in x]  # n times the centered levels: integers
    cy = [n * b - sum(y) for b in y]
    return Fraction(sum(a * b for a, b in zip(cx, cy)), sum(a * a for a in cx))


def butler_greedy(n, k):
    """Butler's (2001) Williams design, rows i = 1..n: column g = 1..k holds
    w((g*i + s) mod n) + 1 for the first shift s that minimizes the largest
    absolute correlation among the columns chosen so far and the new one."""
    cols = []
    worst = Fraction(0)
    for g in range(1, k + 1):
        best = None
        for s in range(n):
            col = [williams((g * i + s) % n, n) + 1 for i in range(1, n + 1)]
            score = max([worst] + [abs(exact_correlation(c, col)) for c in cols])
            if best is None or score < best[0]:
                best = (score, col)
        worst = best[0]
        cols.append(best[1])
    return [list(row) for row in zip(*cols)]
