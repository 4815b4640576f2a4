from __future__ import annotations

import numpy as np
import pytest

from helpers import cubic_conic_system


@pytest.fixture(scope="session")
def cubic_conic():
    return cubic_conic_system()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
