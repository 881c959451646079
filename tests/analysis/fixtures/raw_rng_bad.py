"""raw_rng fixture — every raw RNG spelling: the imports and the calls."""

import random
import numpy as np
import numpy.random as npr
from random import shuffle
from numpy.random import default_rng


def make_streams():
    a = random.Random(3)
    b = np.random.default_rng()
    c = npr.normal()
    shuffle([1, 2])
    d = default_rng(5)
    return a, b, c, d
