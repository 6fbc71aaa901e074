"""The float text of corpus and forecast CSVs against ``repr``.

`blockreg.corpus._float_reprs` renders a row of floats with orjson's
shortest round-trip formatter and must give, for every float64, the
string ``repr`` gives, in UTF-8: orjson writes the same digits, but in its own
notation below 1e-4 and from 1e16 up, and null for NaN and the
infinities, so those values take ``repr``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockreg.corpus import _float_reprs


def oracle(row: np.ndarray) -> list[bytes]:
    return [repr(float(x)).encode() for x in row]


@settings(max_examples=300, deadline=None)
@given(
    row=arrays(np.float64, st.integers(0, 600), elements=st.floats()),
    start=st.integers(0, 3),
    step=st.sampled_from([1, 2, 3, -1]),
)
@example(row=np.empty(0), start=0, step=1)  # [], not [""]
def test_texts_are_repr(row, start, step):
    # NaN, the infinities, signed zeros, subnormals and huge values all
    # come from st.floats(); a stepped slice is not contiguous.
    view = row[start::step]
    assert _float_reprs(view) == oracle(view)


def test_texts_are_repr_on_random_bits_and_powers_of_ten():
    rng = np.random.default_rng(20261021)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    powers = 10.0 ** np.arange(-5, 18)
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    row = np.concatenate([bits.view(np.float64), edges, -edges])
    assert _float_reprs(row) == oracle(row)
