"""raw_rng fixture — seeds threaded through repro.rng (clean)."""

from repro.rng import derive_seed, ensure_rng


def make_stream(seed):
    return ensure_rng(derive_seed(seed, "fixture"))
