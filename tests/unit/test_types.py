"""Round/wave arithmetic and quorum sizes (paper §2, §5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import (
    byzantine_quorum,
    fault_tolerance,
    round_of_wave,
    share_instance,
    validity_quorum,
    wave_of_round,
    wave_round_index,
)


class TestQuorums:
    def test_paper_configuration_n4(self):
        assert fault_tolerance(4) == 1
        assert byzantine_quorum(4) == 3
        assert validity_quorum(4) == 2

    def test_paper_configuration_n3f_plus_1(self):
        for f in range(1, 20):
            n = 3 * f + 1
            assert fault_tolerance(n) == f
            assert byzantine_quorum(n) == 2 * f + 1
            assert validity_quorum(n) == f + 1

    def test_non_canonical_n_rounds_down(self):
        assert fault_tolerance(5) == 1
        assert fault_tolerance(6) == 1
        assert fault_tolerance(7) == 2

    def test_single_process(self):
        assert fault_tolerance(1) == 0
        assert byzantine_quorum(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fault_tolerance(0)

    @given(st.integers(min_value=1, max_value=3_000))
    def test_quorum_intersection_property(self, f):
        """For canonical n = 3f+1, two 2f+1 quorums intersect in >= f+1."""
        n = 3 * f + 1
        quorum = byzantine_quorum(n)
        assert 2 * quorum - n >= fault_tolerance(n) + 1

    @given(st.integers(min_value=1, max_value=10_000))
    def test_byzantine_minority_below_third(self, n):
        assert 3 * fault_tolerance(n) < n


class TestWaveArithmetic:
    def test_first_wave_rounds(self):
        """Paper §5: wave 1 is rounds 1..4."""
        assert [round_of_wave(1, k) for k in (1, 2, 3, 4)] == [1, 2, 3, 4]

    def test_second_wave_rounds(self):
        assert [round_of_wave(2, k) for k in (1, 2, 3, 4)] == [5, 6, 7, 8]

    def test_figure2_waves(self):
        """Figure 2: wave 2's last round is 8, wave 3's is 12."""
        assert round_of_wave(2, 4) == 8
        assert round_of_wave(3, 4) == 12

    def test_round_index_boundaries(self):
        with pytest.raises(ValueError):
            round_of_wave(1, 0)
        with pytest.raises(ValueError):
            round_of_wave(1, 5)
        with pytest.raises(ValueError):
            round_of_wave(0, 1)

    def test_wave_of_round_rejects_round_zero(self):
        with pytest.raises(ValueError):
            wave_of_round(0)

    def test_custom_wave_length(self):
        assert round_of_wave(2, 1, wave_length=3) == 4
        assert wave_of_round(4, wave_length=3) == 2

    def test_share_instance_is_the_first_round_of_the_next_wave(self):
        """Footnote 1: round(w + 1, 1) carries the share of coin instance w."""
        carried = {r: share_instance(r, wave_length=4) for r in range(1, 14)}
        assert {r: w for r, w in carried.items() if w is not None} == {
            5: 1,
            9: 2,
            13: 3,
        }

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=4),
    )
    def test_roundtrip(self, wave, k):
        r = round_of_wave(wave, k)
        assert wave_of_round(r) == wave
        assert wave_round_index(r) == k

    @given(st.integers(min_value=1, max_value=100_000))
    def test_every_round_in_exactly_one_wave(self, r):
        w = wave_of_round(r)
        k = wave_round_index(r)
        assert round_of_wave(w, k) == r
