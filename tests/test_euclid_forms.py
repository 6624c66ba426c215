"""The two Euclidean divisions of the lemma, d - 1 = m*s + eps and
s - 1 = w*(r-2) + v, as LemmaInput computes them."""

from hypothesis import given
from hypothesis import strategies as st

from flagbound.hilbert_profiles import HilbertProfile
from flagbound.lemma_engine import LemmaInput


def _lemma_input(r, d, s):
    # the profile saturates at step 1 <= m
    return LemmaInput(
        r=r, d=d, s=s, point_profile=HilbertProfile(s, (1, s)), allow_small_degree=True
    )


@given(st.integers(min_value=3, max_value=1000), st.data())
def test_m_epsilon_reconstruction(r, data):
    s = data.draw(st.integers(min_value=r - 1, max_value=10**6))
    d = data.draw(st.integers(min_value=s + 1, max_value=10**9))
    inp = _lemma_input(r, d, s)
    assert 0 <= inp.eps < s
    assert d - 1 == inp.m * s + inp.eps


@given(st.integers(min_value=3, max_value=1000), st.data())
def test_w_v_reconstruction(r, data):
    s = data.draw(st.integers(min_value=r - 1, max_value=10**6))
    inp = _lemma_input(r, s + 1, s)
    v = s - 1 - inp.w * (r - 2)
    assert 0 <= v < r - 2
