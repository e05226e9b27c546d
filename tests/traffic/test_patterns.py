"""Traffic pattern correctness: anchors + bijectivity properties."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.traffic.patterns import (
    EXTENDED_PATTERN_NAMES,
    PATTERN_NAMES,
    TrafficPattern,
    bit_complement,
    bit_reversal,
    matrix_transpose,
    neighbor,
    perfect_shuffle,
    tornado,
)

POW2_SQUARE = st.sampled_from([16, 64, 256, 1024])


class TestAnchors:
    def test_bit_reversal_known_values(self):
        assert bit_reversal(0b0001, 16) == 0b1000
        assert bit_reversal(0b1010, 16) == 0b0101
        assert bit_reversal(0, 256) == 0

    def test_matrix_transpose_swaps_halves(self):
        # 16 nodes = 4x4 grid: node (row=0, col=1) -> (row=1, col=0).
        assert matrix_transpose(0b0001, 16) == 0b0100

    def test_matrix_transpose_equals_grid_transpose(self):
        n, side = 64, 8
        for src in range(n):
            r, c = src // side, src % side
            assert matrix_transpose(src, n) == c * side + r

    def test_perfect_shuffle_rotates_left(self):
        assert perfect_shuffle(0b1000, 16) == 0b0001
        assert perfect_shuffle(0b0011, 16) == 0b0110

    def test_bit_complement(self):
        assert bit_complement(0, 256) == 255
        assert bit_complement(0b10101010, 256) == 0b01010101

    def test_neighbor_wraps(self):
        # 16 cores = 4x4: core 3 (end of row 0) wraps to core 0.
        assert neighbor(3, 16) == 0
        assert neighbor(0, 16) == 1

    def test_tornado_half_way(self):
        # 16 cores = 4x4 grid: half-way is 1 hop (side//2 - 1 = 1).
        assert tornado(0, 16) == 1

    def test_odd_bits_transpose_rejected(self):
        with pytest.raises(ValueError):
            matrix_transpose(0, 32)  # 5 address bits

    def test_non_square_neighbor_rejected(self):
        with pytest.raises(ValueError):
            neighbor(0, 32)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            bit_reversal(0, 100)


class TestBijectivity:
    @pytest.mark.parametrize("fn", [bit_reversal, matrix_transpose, perfect_shuffle, bit_complement])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bit_permutations_are_bijections(self, fn, n):
        image = {fn(s, n) for s in range(n)}
        assert image == set(range(n))

    @pytest.mark.parametrize("fn", [neighbor, tornado])
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_grid_permutations_are_bijections(self, fn, n):
        image = {fn(s, n) for s in range(n)}
        assert image == set(range(n))

    @given(POW2_SQUARE, st.integers(min_value=0, max_value=1023))
    def test_bit_reversal_is_involution(self, n, raw_src):
        src = raw_src % n
        assert bit_reversal(bit_reversal(src, n), n) == src

    @given(POW2_SQUARE, st.integers(min_value=0, max_value=1023))
    def test_transpose_is_involution(self, n, raw_src):
        src = raw_src % n
        assert matrix_transpose(matrix_transpose(src, n), n) == src

    @given(POW2_SQUARE, st.integers(min_value=0, max_value=1023))
    def test_complement_is_involution(self, n, raw_src):
        src = raw_src % n
        assert bit_complement(bit_complement(src, n), n) == src


class TestTrafficPattern:
    def test_names(self):
        assert PATTERN_NAMES == ("UN", "BR", "MT", "PS", "NBR")
        for name in EXTENDED_PATTERN_NAMES:
            TrafficPattern(name, 64)  # constructs without error

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            TrafficPattern("XYZ", 64)

    def test_case_insensitive(self):
        assert TrafficPattern("un", 64).name == "UN"

    def test_permutation_table(self):
        p = TrafficPattern("BR", 64)
        assert p.is_permutation
        assert p.fixed_destination(1) == bit_reversal(1, 64)

    def test_uniform_has_no_table(self):
        p = TrafficPattern("UN", 64)
        assert not p.is_permutation
        assert p.fixed_destination(1) is None

    def test_destination_follows_the_permutation(self):
        p = TrafficPattern("PS", 64)
        rnd = random.Random(0)
        assert all(p.destination(s, rnd) == perfect_shuffle(s, 64) for s in range(64))
        assert rnd.getstate() == random.Random(0).getstate()  # nothing drawn

    def test_uniform_destinations_in_range(self):
        p = TrafficPattern("UN", 64)
        # Either kind of stream a source hands over: stdlib or NumPy.
        for rnd in (random.Random(0), np.random.default_rng(0)):
            dsts = [p.destination(0, rnd) for _ in range(1000)]
            assert min(dsts) >= 0 and max(dsts) < 64

    def test_hotspot_bias(self):
        p = TrafficPattern("HOT", 64, hotspot_fraction=0.5, hotspots=[7])
        rnd = random.Random(0)
        dsts = [p.destination(0, rnd) for _ in range(4000)]
        share = dsts.count(7) / len(dsts)
        assert 0.4 < share < 0.6

    @pytest.mark.parametrize("u", [0.0, 0.3 - 2**-54, 0.3, 1 - 2**-53])
    def test_destination_inverts_one_draw_into_range(self, u):
        """Each branch of HOT maps its end of [0, 1) inside the core range."""
        p = TrafficPattern("HOT", 1000, hotspot_fraction=0.3, hotspots=[5, 9, 11])

        class Fixed:
            def random(self):
                return u

        dst = p.destination(0, Fixed())
        if u < 0.3:
            assert dst in (5, 9, 11)
        else:
            assert 0 <= dst < 1000
        assert TrafficPattern("UN", 1000).destination(0, Fixed()) == int(u * 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hotspots": [300]},  # used to die mid-run in inject_packet
            {"hotspots": [0, -1]},  # used to aim silently at core 255
            {"hotspots": []},
            {"hotspot_fraction": 1.5},
            {"hotspot_fraction": -0.1},
        ],
    )
    def test_hotspot_arguments_validated(self, kwargs):
        with pytest.raises(ValueError, match="hotspot"):
            TrafficPattern("HOT", 256, **kwargs)

    def test_pattern_size_mismatch_detected_by_generator(self):
        from repro.traffic import SyntheticTraffic

        with pytest.raises(ValueError, match="sized for"):
            SyntheticTraffic(128, TrafficPattern("UN", 64), 0.1)

    def test_pattern_size_mismatch_detected_by_bursty_generator(self):
        # Used to be accepted: every destination landed in cores 0-63.
        from repro.traffic import BurstyTraffic

        with pytest.raises(ValueError, match="sized for"):
            BurstyTraffic(256, TrafficPattern("UN", 64), 0.05)
