"""The canonical form of a pairing, as the tests check it.

``Configuration`` trusts its caller, so each producer of pairs (the
sampler, ``apply_deletion``, the parsers) is checked here instead."""

import numpy as np


def assert_canonical(cfg):
    """u < v in each row, rows by strictly increasing u, and the 2m ids
    are the points 0..2m-1, each exactly once."""
    pairs = cfg.pairs
    m = cfg.seq.total_points // 2
    assert pairs.shape == (m, 2), f"pairs array has shape {pairs.shape}, expected ({m}, 2)"
    u, v = pairs[:, 0], pairs[:, 1]
    assert np.all(u < v) and np.all(np.diff(u) > 0), "pairs are not in canonical order"
    assert np.array_equal(np.sort(pairs.ravel()), np.arange(cfg.seq.total_points)), (
        "a point id is out of range or matched more than once"
    )
