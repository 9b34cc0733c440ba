"""Fixed draws for the bit-for-bit laws of the float kernels.

A law compares a kernel with its numpy reference in tests/refimpl.py on
a few hundred draws. Generating them one hypothesis example at a time
cost about a hundred times the comparisons themselves, so these laws
take their draws from a seeded numpy generator, all at once, and keep
their named cases first. The value spaces are those of the hypothesis
strategies the laws used: positive floats 10^e with e in [-323, 308],
offsets that are 0.0 or a positive float of either sign, signed values
that add -0.0, booleans, choices and uniform floats. A quarter of the
exponents, and a fifth of the uniform floats, are the ends of their
range (and 10^0 = 1), where a uniform draw seldom lands. A law compares
outcomes: a value's repr (hex_outcome: its float.hex) or the type and
message of the error raised.
"""

import numpy as np

#: exponents drawn a quarter of the time: the ends of [-323, 308], the
#: smallest normal power and 10^0 = 1
EDGE_EXPONENTS = (-323.0, -308.0, 0.0, 308.0)


class Draws:
    """Python values from one seeded generator, one call at a time."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def flag(self):
        return bool(self._rng.random() < 0.5)

    def choice(self, values):
        return values[int(self._rng.integers(len(values)))]

    def uniform(self, lo, hi):
        # an end of [lo, hi] one time in five, else uniform
        if self._rng.random() < 0.2:
            return self.choice((lo, hi))
        return float(self._rng.uniform(lo, hi))

    def positive(self):
        # 10^e, e in [-323, 308]: from the subnormals to 1e308
        e = self.choice(EDGE_EXPONENTS) if self._rng.random() < 0.25 else self.uniform(-323.0, 308.0)
        return 10.0**e

    def offset(self):
        # 0.0 one time in five, else a positive float of either sign
        if self._rng.random() < 0.2:
            return 0.0
        return self.choice((-1.0, 1.0)) * self.positive()

    def signed(self):
        # as offset, with -0.0 as often as +0.0
        if self._rng.random() < 0.2:
            return self.choice((0.0, -0.0))
        return self.choice((-1.0, 1.0)) * self.positive()


def draws(seed, n, make):
    """n values of make(d), d one Draws of the seed, in order."""
    d = Draws(seed)
    return [make(d) for _ in range(n)]


def outcome(f):
    """The repr of f()'s value, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return repr(f())
    except Exception as e:
        return type(e), str(e)


def _hex(v):
    # float.hex of a float, through tuples; None stays None
    return tuple(map(_hex, v)) if isinstance(v, tuple) else v if v is None else float.hex(v)


def hex_outcome(f):
    """outcome of f() with each float as float.hex, so that -0.0 differs from 0.0."""
    return outcome(lambda: _hex(f()))
