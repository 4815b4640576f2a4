import numpy as np
import pytest

from helpers import random_sparse_system


def test_random_sparse_system_rejects_more_terms_than_its_box():
    # A box [0, 1]^2 holds 4 points: 5 terms raise before any draw, and 4
    # fill each support with the whole box.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="exceeds the 4 points"):
        random_sparse_system(rng, n=2, min_terms=2, max_terms=5, box=1)
    assert rng.bit_generator.state == state
    system = random_sparse_system(rng, n=2, min_terms=4, max_terms=4, box=1)
    assert [len(s.points) for s in system.supports] == [4, 4]
