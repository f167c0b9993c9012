"""Published coefficient values, frozen as golden test data.

The library must *derive* all of these; they are asserted here and nowhere
else.  Keys are (m, k).
"""

from fractions import Fraction as F

from entropy_bounds import LaurentPoly

TABLE_A = {
    (1, 1): F(1),
    (1, 2): F(1, 6),
    (2, 2): F(3, 2),
    (2, 3): F(5, 3),
    (2, 4): F(1, 20),
    (3, 3): F(5),
    (3, 4): F(35, 2),
    (3, 5): F(17, 5),
    (3, 6): F(1, 42),
    (4, 4): F(105, 4),
    (4, 5): F(210),
    (4, 6): F(2275, 18),
    (4, 7): F(167, 21),
    (4, 8): F(1, 72),
}

TABLE_B = {
    (1, 1): F(1, 6),
    (2, 1): F(-1, 12),
    (2, 2): F(5, 24),
    (2, 3): F(1, 60),
    (3, 1): F(-1, 12),
    (3, 2): F(-1, 24),
    (3, 3): F(103, 180),
    (3, 4): F(13, 40),
    (3, 5): F(1, 210),
    (4, 1): F(-1, 12),
    (4, 2): F(-1, 24),
    (4, 3): F(-19, 360),
    (4, 4): F(201, 80),
    (4, 5): F(12367, 2520),
    (4, 6): F(571, 1008),
    (4, 7): F(1, 504),
}


def loglaurent(log_coeff, terms) -> LaurentPoly:
    """sum_e terms[e] q^e + log_coeff log q, as a LaurentPoly over (q, log q)."""
    return LaurentPoly([((e, 0), c) for e, c in terms.items()] + [((0, 1), log_coeff)])


# order-1 and order-2 binomial coefficient functions of q, published closed
# forms with p eliminated via p = 1 - q
BINOMIAL_B = {
    (1, 1): loglaurent(F(-1, 2), {1: F(1, 3), -1: F(-1, 6), 0: F(-1, 6)}),
    (2, 1): loglaurent(0, {-1: F(1, 12), 0: F(-1, 6), 1: F(1, 12)}),  # p^2/(12q)
    (2, 2): loglaurent(F(3, 2), {1: F(-1, 2), -1: F(17, 12), -2: F(-5, 24), 0: F(-17, 24)}),
    (2, 3): loglaurent(-3, {1: F(6, 5), -1: F(-5, 2), -2: F(3, 8), -3: F(-1, 60), 0: F(113, 120)}),
}

BINOMIAL_A = {
    (1, 1): loglaurent(2, {1: -1, -1: 1}),
    (1, 2): loglaurent(-4, {1: 2, -1: F(-7, 3), -2: F(1, 6), 0: F(1, 6)}),
    (2, 2): loglaurent(-9, {1: 3, -1: -9, -2: F(3, 2), 0: F(9, 2)}),
    (2, 3): loglaurent(78, {1: -26, -1: 83, -2: -18, -3: F(5, 3), 0: F(-122, 3)}),
    (2, 4): loglaurent(
        -72, {1: 24, -1: -78, -2: 18, -3: F(-31, 15), -4: F(1, 20), 0: F(2281, 60)}
    ),
}

# constants of the order-1 closed-form binomial entropy bound, in u = pq
STIRLING_C1 = loglaurent(F(-3, 2), {0: F(13, 12), -1: F(-5, 6)})
STIRLING_C2 = loglaurent(4, {0: F(-7, 3), -1: F(8, 3), -2: F(-1, 6)})
STIRLING_C3 = loglaurent(0, {0: F(-1, 360)})
STIRLING_C4 = loglaurent(F(1, 2), {0: F(1, 12), -1: F(1, 6)})

# quoted gap values of the order-1..3 large-mean bounds at lambda = 10, 20
FIGURE_GAPS = {
    (1, 10): 0.1,
    (1, 20): 0.05,
    (2, 10): 0.017,
    (2, 20): 0.004,
    (3, 10): 0.0068,
    (3, 20): 0.00074,
}
