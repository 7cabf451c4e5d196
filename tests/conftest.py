import pytest

from oddsymplectic.superalgebra import Chart


@pytest.fixture
def c2():
    return Chart.darboux(2)
