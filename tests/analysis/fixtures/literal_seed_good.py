"""literal_seed fixture (library scope): seeds flow from the caller (clean)."""

from ..rng import derive_seed, ensure_rng


def helper(n, seed):
    rng = ensure_rng(seed)
    child = ensure_rng(derive_seed(seed, "helper"))
    return rng, child


def fresh_entropy():
    # No seed parameter to ignore: ensure_rng(None) is the documented
    # "give me OS entropy" escape hatch.
    return ensure_rng(None)
