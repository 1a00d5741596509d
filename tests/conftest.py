from fractions import Fraction

import pytest

from latticesums.families import a2_directions, hurwitz_a1, hurwitz_a2, triangle
from latticesums.genfun import clear_coefficient_table
from latticesums.lattice import clear_arrangement_table


@pytest.fixture(autouse=True)
def _empty_coefficient_table():
    # no test may read a coefficient, or the data of a list of directions,
    # that an earlier test computed
    clear_coefficient_table()
    clear_arrangement_table()


@pytest.fixture(scope="session")
def a1_alpha1():
    return hurwitz_a1(1)


@pytest.fixture(scope="session")
def triangle_rational():
    return triangle(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))


@pytest.fixture(scope="session")
def generic_y2():
    return (Fraction(1, 7), Fraction(1, 11))
