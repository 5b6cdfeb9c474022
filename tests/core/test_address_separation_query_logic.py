"""Tests for address separation between the conventional and extended LLC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_separation import AddressSeparator, proportional_split


def _reference_route(separator_args, address):
    """The extended set of ``address``, or -1, in the separator's first form.

    Shares of a 16-unit period in proportion to the two capacities (at least
    one conventional unit, none extended without extended capacity); a
    block's unit of ``granularity_blocks`` blocks picks its LLC, and an
    extended block's index picks its set.
    """
    conventional, extended, block_size, num_sets, granularity = separator_args
    if extended == 0:
        return -1
    conventional_units = max(1, round(conventional / (conventional + extended) * 16))
    block_index = address // block_size
    position = (block_index // granularity) % 16
    if position < conventional_units:
        return -1
    return block_index % num_sets


class TestAddressSeparator:
    def test_no_extended_capacity_routes_everything_conventional(self):
        separator = AddressSeparator(512 * 1024, 0)
        assert all(separator.route(i * 128) == -1 for i in range(1000))

    def test_split_fraction_tracks_capacity_ratio(self):
        separator = AddressSeparator(1 * 1024 * 1024, 3 * 1024 * 1024)
        extended = sum(separator.route(i * 128) >= 0 for i in range(50_000))
        fraction = extended / 50_000
        assert 0.6 < fraction < 0.9  # extended holds 75 % of the capacity

    def test_routing_is_deterministic(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        decisions = [separator.route(i * 128) for i in range(100)]
        assert decisions == [separator.route(i * 128) for i in range(100)]

    def test_extended_decision_carries_set(self):
        separator = AddressSeparator(1024 * 1024, 4 * 1024 * 1024, num_extended_sets=64)
        set_index = next(
            separator.route(i * 128) for i in range(10_000) if separator.route(i * 128) >= 0
        )
        assert 0 <= set_index < 64

    def test_same_block_same_target(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        for block in range(0, 256):
            address = block * 128
            assert separator.route(address) == separator.route(address + 64)

    @given(
        st.tuples(
            st.integers(min_value=1, max_value=1 << 24),
            st.one_of(st.just(0), st.integers(min_value=1, max_value=1 << 26)),
            st.sampled_from((1, 32, 64, 128, 256)),
            st.integers(min_value=1, max_value=512),
            st.integers(min_value=1, max_value=256),
        ),
        st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_route_matches_reference(self, separator_args, addresses):
        separator = AddressSeparator(*separator_args)
        for address in addresses:
            assert separator.route(address) == _reference_route(separator_args, address)

    def test_extended_fraction_property(self):
        separator = AddressSeparator(1024 * 1024, 1024 * 1024)
        assert 0.3 < separator.extended_fraction < 0.7

    def test_negative_address_rejected(self):
        separator = AddressSeparator(1024, 1024)
        with pytest.raises(ValueError):
            separator.route(-1)


class TestProportionalSplit:
    def test_single_region_gets_everything(self):
        assert proportional_split([("register_file", 100)], 4096) == "register_file"

    def test_zero_capacity_region_never_selected(self):
        picks = {
            proportional_split([("register_file", 100), ("l1", 0)], i * 128) for i in range(200)
        }
        assert picks == {"register_file"}

    def test_split_roughly_proportional(self):
        regions = [("register_file", 192 * 1024), ("l1", 64 * 1024)]
        picks = [proportional_split(regions, i * 128) for i in range(10_000)]
        rf_fraction = picks.count("register_file") / len(picks)
        assert 0.6 < rf_fraction < 0.9

    def test_no_regions_rejected(self):
        with pytest.raises(ValueError):
            proportional_split([("a", 0)], 0)
