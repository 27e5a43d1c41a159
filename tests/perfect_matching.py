"""What a pairing must be, as the tests check it.

``Configuration`` trusts its caller, so each producer of pairs (the
sampler and ``apply_deletion``) is checked here instead.  Rows may come in
any order and either end first; ``matching_key`` compares canonical forms."""

import numpy as np


def assert_perfect_matching(cfg):
    """An (m, 2) array whose 2m ids are the points 0..2m-1, each exactly
    once."""
    pairs = cfg.pairs
    m = cfg.seq.total_points // 2
    assert pairs.shape == (m, 2), f"pairs array has shape {pairs.shape}, expected ({m}, 2)"
    assert np.array_equal(np.sort(pairs.ravel()), np.arange(cfg.seq.total_points)), (
        "a point id is out of range or matched more than once"
    )
