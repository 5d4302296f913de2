"""Bitmask process sets: the bit iterator and the interning table."""

import random
import sys
import threading

import pytest

from repro.sim import bitset
from repro.sim.bitset import full_mask, interned_set, iter_bits, mask_of


def _oracle_bits(mask):
    """Shift-and-test, one bit at a time."""
    bits = []
    index = 0
    while mask >> index:
        if mask >> index & 1:
            bits.append(index)
        index += 1
    return bits


def _random_masks(count=20, width=1000):
    rng = random.Random(20261017)
    return [rng.getrandbits(width) for _ in range(count)]


_EDGE_MASKS = (
    0, 1 << 7, 1 << 8, 1 << 63, 1 << 64, full_mask(1000),
    (1 << 8) - 1, (1 << 9) | 1,
)


class TestIterBits:
    @pytest.mark.parametrize("mask", _EDGE_MASKS + tuple(_random_masks()))
    def test_matches_shift_and_test_oracle(self, mask):
        bits = iter_bits(mask)
        assert isinstance(bits, list)
        assert bits == _oracle_bits(mask)
        assert bits == sorted(set(bits))  # strictly ascending

    def test_round_trips_through_mask_of(self):
        for mask in _EDGE_MASKS + tuple(_random_masks()):
            assert mask_of(iter_bits(mask)) == mask

    def test_narrow_mask_after_wide_one(self):
        # The byte tables grow to the widest mask seen; narrower masks
        # must still read only their own bytes.
        iter_bits(full_mask(1000))
        assert iter_bits(0b101) == [0, 2]
        assert iter_bits(1 << 15) == [15]

    def test_concurrent_table_growth(self, monkeypatch):
        # Threads racing to grow the byte tables from empty must never
        # leave a table at the wrong offset.
        monkeypatch.setattr(bitset, "_BYTE_BITS", [])
        masks = [full_mask(width) for width in range(8, 1000, 37)]
        masks += _random_masks(count=8)
        errors = []

        def worker(order):
            for mask in order:
                if iter_bits(mask) != _oracle_bits(mask):
                    errors.append(mask)

        rng = random.Random(7)
        threads = [
            threading.Thread(
                target=worker, args=(rng.sample(masks, len(masks)),)
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(bitset._BYTE_BITS) == max(
            (mask.bit_length() + 7) >> 3 for mask in masks
        )


class TestInternedSet:
    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        # The table is capped and process-wide; start from an empty one
        # so earlier tests cannot have filled it past the cap.
        monkeypatch.setattr(bitset, "_SET_CACHE", {0: frozenset()})

    def test_equal_masks_share_one_object(self):
        for mask in _EDGE_MASKS + tuple(_random_masks(count=5)):
            first = interned_set(mask)
            again = interned_set(mask_of(iter_bits(mask)))
            assert first is again
            assert first == frozenset(_oracle_bits(mask))

    def test_empty_mask_is_the_empty_set(self):
        assert interned_set(0) == frozenset()
        assert interned_set(0) is interned_set(0)
