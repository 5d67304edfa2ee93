import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from proxcert import reference_solution
from proxcert.experiments import gen_lasso


@pytest.fixture(scope="session")
def small_lasso():
    """Seeded n=20, m=50 LASSO shared across tests."""
    return gen_lasso(n=20, m=50, seed=7)


@pytest.fixture(scope="session")
def small_lasso_ref(small_lasso):
    x_star, f_star = reference_solution(small_lasso)
    return x_star, f_star


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
