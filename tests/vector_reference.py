"""T's coupled image and displacement on Vectors, with norm and no rows:
the reference that the row-based checkers and certify are compared against."""
from proxcycle import ProductPoint, coupled, pair_distance


def coupled_image(T, p, side):
    """(T(x, y), T(y, x)) for p = (x, y) on the given side."""
    return ProductPoint(*coupled(T.evaluator, p.first, p.second, side))


def displacement(T, p, side):
    """Product distance from p to its coupled image."""
    return pair_distance(T.space, p, coupled_image(T, p, side))
