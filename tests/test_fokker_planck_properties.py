"""Property test: over random drift pulses in t, fp_solve either keeps a
non-negative unit mass or raises FPStabilityError."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gridsde.fokker_planck import FPStabilityError, fp_solve  # noqa: E402


@st.composite
def heights(draw):
    """|A| <= 200 keeps a solve at dx = 1/16 to a few thousand substeps; one
    draw in five is +-1e300, whose bound is below the float resolution of t."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from([1e300, -1e300]))
    return draw(st.floats(-200.0, 200.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(height=heights(), center=st.floats(0.0, 1.0), width=st.floats(0.005, 0.3))
def test_pulse_in_t_keeps_unit_mass_or_raises(height, center, width):
    drift = f"{height!r}*bump((t-{center!r})/{width!r})"
    try:
        fp = fp_solve(drift, "1", 0.0, (-3.0, 3.0), 1 / 16)
    except FPStabilityError:
        return
    assert all(abs(m - 1.0) <= 1e-6 for m in fp.masses)
    assert float(fp.values.min()) >= -1e-12
