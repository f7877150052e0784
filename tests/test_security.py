import dataclasses

import pytest
from hypothesis import given, strategies as st

from fogplace.model import FarmGeometry, SecurityLevel, Tier
from fogplace.security import boundary_distances, rate_fog_node, rate_infrastructure

from conftest import make_app, make_cloud, make_fog, make_instance

FARM_100 = FarmGeometry(100.0, 100.0)


class TestBoundaryDistances:
    @pytest.mark.parametrize("position,expected", [
        ((50.0, 50.0), (50.0, 50.0, 50.0, 50.0)),
        ((10.0, 70.0), (10.0, 90.0, 70.0, 30.0)),
        ((0.0, 40.0), (0.0, 100.0, 40.0, 60.0)),
    ])
    def test_examples(self, position, expected):
        assert boundary_distances(position, FARM_100) == expected

    def test_outside_rectangle_raises(self):
        with pytest.raises(ValueError, match="outside"):
            boundary_distances((-5.0, 10.0), FARM_100)


class TestRateFogNode:
    def test_range_past_boundary_rates_low(self):
        node = make_fog("f2", (30.0, 50.0), tx_range=40.0)  # 30 < 40
        assert rate_fog_node(node, FARM_100) is SecurityLevel.LOW

    def test_contained_range_rates_high(self):
        node = make_fog("f1", (50.0, 50.0), tx_range=40.0)
        assert rate_fog_node(node, FARM_100) is SecurityLevel.HIGH

    def test_distance_equal_to_range_rates_high(self):
        # The leak test is strict: a tie means the range stops at the fence.
        node = make_fog("f1", (50.0, 50.0), tx_range=50.0)
        assert rate_fog_node(node, FARM_100) is SecurityLevel.HIGH

    def test_on_boundary_rates_low(self):
        node = make_fog("f3", (0.0, 50.0), tx_range=10.0)
        assert rate_fog_node(node, FARM_100) is SecurityLevel.LOW

    def test_missing_position_raises(self):
        node = dataclasses.replace(make_fog("f1", (1.0, 1.0)), position=None)
        with pytest.raises(ValueError):
            rate_fog_node(node, FARM_100)

    def test_missing_tx_range_raises(self):
        node = dataclasses.replace(make_fog("f1", (1.0, 1.0)), tx_range=None)
        with pytest.raises(ValueError):
            rate_fog_node(node, FARM_100)

    def test_cloud_node_rejected(self):
        with pytest.raises(ValueError):
            rate_fog_node(make_cloud(), FARM_100)

    @given(x=st.floats(min_value=0.0, max_value=100.0),
           y=st.floats(min_value=0.0, max_value=100.0),
           r1=st.floats(min_value=0.1, max_value=200.0),
           r2=st.floats(min_value=0.1, max_value=200.0))
    def test_monotone_in_tx_range(self, x, y, r1, r2):
        lo, hi = sorted((r1, r2))
        rating_lo = rate_fog_node(make_fog("f", (x, y), tx_range=lo), FARM_100)
        rating_hi = rate_fog_node(make_fog("f", (x, y), tx_range=hi), FARM_100)
        if rating_lo is SecurityLevel.LOW:
            assert rating_hi is SecurityLevel.LOW

    @given(x1=st.floats(min_value=0.0, max_value=100.0),
           y1=st.floats(min_value=0.0, max_value=100.0),
           x2=st.floats(min_value=0.0, max_value=100.0),
           y2=st.floats(min_value=0.0, max_value=100.0),
           r=st.floats(min_value=0.1, max_value=200.0))
    def test_moving_inward_never_downgrades(self, x1, y1, x2, y2, r):
        d1 = min(boundary_distances((x1, y1), FARM_100))
        d2 = min(boundary_distances((x2, y2), FARM_100))
        if d2 >= d1:
            r1 = rate_fog_node(make_fog("f", (x1, y1), tx_range=r), FARM_100)
            r2 = rate_fog_node(make_fog("f", (x2, y2), tx_range=r), FARM_100)
            if r1 is SecurityLevel.HIGH:
                assert r2 is SecurityLevel.HIGH

    def test_rating_ignores_costs_and_capacities(self):
        base = make_fog("f", (50.0, 50.0), tx_range=40.0)
        tweaked = dataclasses.replace(base, proc_cost=99.0, stor_cost=99.0, proc_capacity=0.001)
        assert rate_fog_node(base, FARM_100) is rate_fog_node(tweaked, FARM_100)


class TestRateInfrastructure:
    def test_three_way_scheme(self):
        inst = make_instance([make_app()], rated=False)
        assert rate_infrastructure(inst).ratings == {
            "cloud": SecurityLevel.MEDIUM,
            "fog_lo": SecurityLevel.LOW,  # 50 m from the west edge, 100 m range
            "fog_hi": SecurityLevel.HIGH,
        }

    def test_cloud_only(self):
        inst = make_instance([make_app()], nodes=(make_cloud(),), rated=False)
        assert rate_infrastructure(inst).ratings == {"cloud": SecurityLevel.MEDIUM}

    def test_all_interior_fogs_rate_high(self):
        nodes = (make_cloud(),
                 make_fog("f1", (500.0, 500.0)),
                 make_fog("f2", (300.0, 700.0)))
        rated = rate_infrastructure(make_instance([make_app()], nodes=nodes, rated=False))
        for n in rated.nodes:
            if n.tier is Tier.FOG:
                assert rated.ratings[n.id] is SecurityLevel.HIGH

    def test_returns_its_argument_and_rates_eagerly(self):
        inst = make_instance([make_app()], rated=False)
        assert rate_infrastructure(inst) is inst
        outside = make_instance([make_app()], nodes=(make_cloud(), make_fog("f", (5000.0, 1.0))),
                                rated=False)
        with pytest.raises(ValueError, match="outside farm"):
            rate_infrastructure(outside)
