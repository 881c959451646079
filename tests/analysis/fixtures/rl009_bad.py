"""RL002 bad (library scope): repro.rng entry points fed literals."""

from ..rng import derive_seed, ensure_rng


def helper(n, seed):
    rng = ensure_rng(12345)  # literal re-seed: detaches from the experiment
    alt = ensure_rng(None)  # ignores the seed parameter it was given
    child = derive_seed(7, "helper")  # literal root for a derived stream
    return rng, alt, child
