"""Predicates on cyclotomic elements that only the tests ask for."""


def is_integral(a) -> bool:
    """True iff the element is an algebraic integer: its canonical form has
    denominator 1, since the basis of Z[zeta_n] it is written in is integral."""
    return a.den == 1
