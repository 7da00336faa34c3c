"""``_unit_draws``: a run of cost draws in one C call leaves the module's
Mersenne stream exactly where the per-draw loop would."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.runtime import _unit_draws

_BAND = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("draws"), st.integers(0, 5000), _BAND, _BAND),
        st.tuples(st.just("random")),
        st.tuples(st.just("uniform"), _BAND, _BAND),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.text(), steps=_STEPS)
def test_unit_draws_are_the_serial_draws(seed, steps):
    """Any seed string, any run length on either side of the helper's
    crossover, interleaved any way with the scalar loops' own ``random()``
    / ``uniform()`` calls: same values, same ``getstate()`` after every
    step. A byte-order slip in the word view would change every value."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for kind, *args in steps:
        if kind == "draws":
            n, low, worst = args
            rolls = np.asarray(_unit_draws(ours, n), dtype=np.float64)
            assert rolls.shape == (n,)
            # the columnar loop's charge, against Module.account's
            charged = low + (worst - low) * rolls
            assert charged.tolist() == [
                theirs.uniform(low, worst) for _ in range(n)
            ]
        elif kind == "random":
            assert ours.random() == theirs.random()
        else:
            assert ours.uniform(*args) == theirs.uniform(*args)
        assert ours.getstate() == theirs.getstate()


def test_unit_draws_values_are_random_itself():
    """The raw values, not only the scaled charge, at both branch sizes."""
    for n in (1, 7, 64, 127, 128, 129, 270, 4096):
        ours, theirs = random.Random(f"23/m{n}"), random.Random(f"23/m{n}")
        assert np.asarray(_unit_draws(ours, n)).tolist() == [
            theirs.random() for _ in range(n)
        ]
        assert ours.getstate() == theirs.getstate()
