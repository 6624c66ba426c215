import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagbound._backend import (
    backend_name,
    deficiency_sum,
    truncated_section_sum,
    weighted_deficiency_sum,
)
from flagbound.errors import ValidationError

REPO = Path(__file__).resolve().parents[1]


def _deficiency_by_loop(stable, modulus):
    # reference: one Python step per term i = 1, 2, ... until i*modulus + 1 >= stable
    acc = 0
    i = 1
    while i * modulus + 1 < stable:
        acc += stable - (i * modulus + 1)
        i += 1
    return acc


def _weighted_by_loop(stable, modulus):
    acc = 0
    i = 1
    while i * modulus + 1 < stable:
        acc += (i - 1) * (stable - (i * modulus + 1))
        i += 1
    return acc


def _truncated_by_loop(d, m, point_values, deltas):
    # reference: h1(i) summed afresh at every step from its definition
    def point(j):
        return point_values[min(j, len(point_values) - 1)]

    def h1(i):
        return sum(point(j) for j in range(i + 1)) + sum(deltas[:i])

    return sum(d - h1(i) for i in range(1, m + 1)), h1(m)


def test_pure_kernels_frozen():
    assert deficiency_sum(7, 3) == 3
    assert deficiency_sum(5, 1) == 6
    assert weighted_deficiency_sum(9, 2) == 8
    acc, last = truncated_section_sum(50, 7, [1, 4, 7], [])
    assert (acc, last) == (168, 47)


def test_truncated_sum_extends_profile_and_deltas():
    # profile extends by its stable value, deltas by zero
    acc, last = truncated_section_sum(50, 7, [1, 4, 7], [0, 1])
    assert last == 48  # one extra section from the delta
    assert acc == 168 - 6  # six steps saw the raised count


# edges: stable <= 0, stable <= modulus + 1 (no term), one and two terms
@given(
    st.integers(min_value=-50, max_value=3000),
    st.integers(min_value=1, max_value=40),
)
@example(-7, 3)
@example(0, 1)
@example(1, 1)
@example(4, 3)
@example(5, 3)
@example(8, 3)
@settings(max_examples=150)
def test_deficiency_dispatch_agrees(stable, modulus):
    expected = _deficiency_by_loop(stable, modulus)
    assert deficiency_sum(stable, modulus) == expected


@given(
    st.integers(min_value=-50, max_value=1500),
    st.integers(min_value=1, max_value=40),
)
@example(-7, 3)
@example(0, 1)
@example(1, 1)
@example(4, 3)
@example(8, 3)
@example(11, 3)
@settings(max_examples=150)
def test_weighted_dispatch_agrees(stable, modulus):
    expected = _weighted_by_loop(stable, modulus)
    assert weighted_deficiency_sum(stable, modulus) == expected


@given(st.integers(min_value=2**65, max_value=2**71))
@example(2**70 - 1)
@example(2**69)
@settings(max_examples=50)
def test_deficiency_kernels_at_2_pow_70(modulus):
    # far past int64; at most 32 terms, so the reference loop stays short
    stable = 2**70
    assert deficiency_sum(stable, modulus) == _deficiency_by_loop(stable, modulus)
    assert weighted_deficiency_sum(stable, modulus) == _weighted_by_loop(stable, modulus)


@pytest.mark.parametrize("kernel", [deficiency_sum, weighted_deficiency_sum])
@pytest.mark.parametrize("modulus", [0, -3])
def test_modulus_below_one_is_refused(kernel, modulus):
    # the terms never saturate: range() would raise or sum nothing
    with pytest.raises(ValidationError, match="modulus"):
        kernel(50, modulus)


@given(st.data())
@settings(max_examples=100)
def test_truncated_dispatch_agrees(data):
    stable = data.draw(st.integers(min_value=1, max_value=60))
    # bounded on purpose: a loop that draws until it reaches `stable` need never end
    inner = data.draw(
        st.lists(st.integers(min_value=1, max_value=max(1, stable - 1)), max_size=20)
    )
    profile = [1, *sorted(inner)]
    if profile[-1] < stable:
        profile.append(stable)
    deltas = data.draw(st.lists(st.integers(min_value=0, max_value=5), max_size=6))
    m = data.draw(st.integers(min_value=len(profile), max_value=len(profile) + 30))
    d = data.draw(st.integers(min_value=(m + 2) * (stable + 6), max_value=10**7))
    assert truncated_section_sum(d, m, profile, deltas) == _truncated_by_loop(
        d, m, profile, deltas
    )


def test_huge_inputs_take_the_pure_path():
    # far past int64: the sums stay exact on unbounded ints
    stable = 2**40
    got = deficiency_sum(stable, 2**39)
    assert got == 2**39 - 1  # one deficient step, then saturation
    big_d = 2**70
    acc, last = truncated_section_sum(big_d, 3, [1, 4, 7], [])
    assert acc == 3 * big_d - (5 + 12 + 19)
    assert last == 19


def test_backend_name_is_pure():
    assert backend_name() == "pure"


def test_bench_kernels_smoke():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    # one timing row per (kernel, size) case: two sizes of each kernel
    names = [line.split()[0] for line in out.stdout.splitlines() if line.strip()]
    for kernel in ("deficiency_sum", "weighted_deficiency_sum", "truncated_section_sum"):
        assert names.count(kernel) == 2, out.stdout
    # and one row per powering threshold, each timing both arithmetic paths
    assert names.count("compare_radical_exact") == 10, out.stdout
