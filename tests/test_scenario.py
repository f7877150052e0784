import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fogplace import scenario
from fogplace.instance_io import instance_to_dict
from fogplace.model import Application, AppModule, SecurityLevel, Tier, validate_instance
from fogplace.scenario import (
    ScenarioConfig,
    config_from_dict,
    generate_instance,
    validate_config,
)


def cfg(**over) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **over)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = generate_instance(cfg(seed=7))
        b = generate_instance(cfg(seed=7))
        assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))

    def test_different_seeds_differ(self):
        a = generate_instance(cfg(seed=1))
        b = generate_instance(cfg(seed=2))
        assert instance_to_dict(a) != instance_to_dict(b)

    def test_apps_nest_across_sizes(self):
        small = generate_instance(cfg(n_apps=3, seed=5))
        large = generate_instance(cfg(n_apps=7, seed=5))
        assert large.apps[:3] == small.apps

    def test_known_stream_values_pinned(self):
        # Frozen draws of seed 0: all 4m + 3 variates of app 0 and one
        # randomly drawn fog position.  Any change to the RNG discipline,
        # the draw order or the mapping onto ranges must show up here.
        assert list(scenario._draws(0, 1, 0, 15)) == [
            0.8897387912781343, 0.5571380502062263, 0.8009080868919721,
            0.9565138174753386, 0.05861516014935442, 0.23640069529958085,
            0.7878121978721646, 0.00030824035715149023, 0.7257230733611507,
            0.6187666612577356, 0.004051573689837662, 0.10830539207922729,
            0.13050471177614809, 0.7617022800784415, 0.9587716588308863,
        ]
        app = generate_instance(cfg(seed=0)).apps[0]
        assert [(m.proc_req, m.mem_req, m.stor_req) for m in app.modules] == [
            (1.8794775825562686, 0.02671414150618679, 0.6660649404886898),
            (2.013027634950677, 0.011758454804480633, 0.3770371559933854),
            (1.6756243957443293, 0.010009247210714545, 0.6275702135609091),
        ]
        assert app.input_traffic == 0.0028562999837732066
        assert app.inter_traffic == (0.1036464163208539, 0.19747485287130456)
        assert app.output_traffic == 0.000565252355888074
        assert app.qos_threshold == 1.2617022800784414
        assert app.security_req is SecurityLevel.HIGH  # u_sec = 0.958... of 3 levels
        fog = generate_instance(cfg(seed=0, n_fog=1, fog_positions=None, tx_ranges=None)).nodes[1]
        assert fog.position == (636.9616873214543, 269.7867137638703)


def reference_instance(c: ScenarioConfig):
    """generate_instance drawn through numpy's scalar calls, one variate at a
    time in the documented order: the definition the block draw must match."""
    import numpy as np

    def stream(domain, index):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([c.seed, domain, index])))

    positions = []
    for f in range(c.n_fog):
        rng = stream(0, f)
        positions.append((rng.uniform(0.0, c.farm_width), rng.uniform(0.0, c.farm_height)))
    forced = 0 if c.alpha is None else math.ceil(c.alpha * c.n_apps)
    apps = []
    for i in range(c.n_apps):
        rng = stream(1, i)
        modules = []
        for _ in range(c.modules_per_app):
            proc = rng.uniform(*c.proc_req_range)
            mem = rng.uniform(*c.mem_req_range)
            stor = rng.uniform(*c.stor_req_range)
            modules.append(AppModule(proc, mem, stor, proc / c.proc_speed_ref))
        input_traffic = rng.uniform(*c.input_traffic_range)
        inter = tuple(rng.uniform(*c.inter_traffic_range) for _ in range(c.modules_per_app - 1))
        output_traffic = rng.uniform(*c.output_traffic_range)
        u_qos, u_sec = rng.random(), rng.random()
        if i < forced:
            sec = SecurityLevel.HIGH
        else:
            levels = 3 if c.alpha is None else 2
            sec = SecurityLevel(1 + min(levels - 1, int(u_sec * levels)))
        apps.append(Application(f"app{i + 1}", tuple(modules), input_traffic, inter, output_traffic,
                                c.min_qos + u_qos * (c.max_qos - c.min_qos), sec))
    # Nodes and links hold no random draw once the positions are fixed.
    fixed = generate_instance(dataclasses.replace(c, fog_positions=tuple(positions), n_apps=0, alpha=None))
    return dataclasses.replace(fixed, apps=tuple(apps))


def numpy_stream(seed, domain, index, n):
    """The bytes of numpy's draw, the definition ``_draws`` reproduces."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, domain, index]))).random(n).tobytes()


class TestStreamKernel:
    ONE_WORD = 2**32 - 1

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**300),
        domain=st.integers(0, 1) | st.integers(0, 2**40),
        index=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64),
        n=st.integers(1, 40),
    )
    @example(seed=0, domain=0, index=0, n=1)
    @example(seed=ONE_WORD, domain=1, index=ONE_WORD, n=15)  # largest values of the memoized path
    @example(seed=2**32, domain=1, index=0, n=15)  # two-word seed: the general path
    @example(seed=7, domain=2**32, index=0, n=2)  # two-word domain: the general path
    @example(seed=7, domain=1, index=2**32, n=15)  # two-word index: the general path
    @example(seed=2**300 - 1, domain=1, index=3, n=40)  # 12 words: mixing past the 4-word pool
    def test_equals_numpy(self, seed, domain, index, n):
        assert scenario._draws.__wrapped__(seed, domain, index, n).tobytes() == numpy_stream(
            seed, domain, index, n)

    def test_memo_hit_equals_miss(self):
        scenario._pool_head.cache_clear()
        first = scenario._draws.__wrapped__(5, 1, 3, 15)
        assert scenario._pool_head.cache_info().misses == 1
        second = scenario._draws.__wrapped__(5, 1, 4, 15)
        assert scenario._pool_head.cache_info().hits == 1
        assert first.tobytes() == numpy_stream(5, 1, 3, 15)
        assert second.tobytes() == numpy_stream(5, 1, 4, 15)

    def test_memo_is_bounded(self):
        assert 0 < scenario._pool_head.cache_info().maxsize <= 4096


def value_range(lo_max=10.0):
    return st.tuples(st.floats(0.0, lo_max), st.floats(0.0, lo_max)).map(sorted).map(tuple)


class TestBlockDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        n_apps=st.integers(0, 5),
        modules_per_app=st.integers(1, 5),
        n_fog=st.integers(0, 4),
        proc=value_range(),
        mem=value_range(1.0),
        traffic=value_range(1e-3),
        qos=value_range(5.0).filter(lambda q: q[0] > 0),
        alpha=st.none() | st.floats(0.0, 1.0),
        farm=st.tuples(st.floats(1.0, 1e4), st.floats(1.0, 1e4)),
    )
    def test_equals_scalar_draws(self, seed, n_apps, modules_per_app, n_fog, proc, mem, traffic,
                                 qos, alpha, farm):
        c = cfg(seed=seed, n_apps=n_apps, modules_per_app=modules_per_app, n_fog=n_fog,
                fog_positions=None, tx_ranges=None, proc_req_range=proc, mem_req_range=mem,
                input_traffic_range=traffic, inter_traffic_range=proc, output_traffic_range=mem,
                min_qos=qos[0], max_qos=qos[1], alpha=alpha, farm_width=farm[0], farm_height=farm[1])
        assert generate_instance(c) == reference_instance(c)

    def test_cold_cache_equals_warm_cache(self):
        c = cfg(seed=11, n_fog=3, fog_positions=None, tx_ranges=None)
        scenario._draws.cache_clear()
        cold = generate_instance(c)
        assert scenario._draws.cache_info().misses == c.n_fog + c.n_apps
        warm = generate_instance(c)
        assert scenario._draws.cache_info().hits == c.n_fog + c.n_apps
        assert cold == warm == reference_instance(c)

    def test_cache_is_bounded(self):
        assert scenario._draws.cache_info().maxsize is not None
        assert 0 < scenario._draws.cache_info().maxsize <= 4096


class TestDrawnValues:
    def test_all_values_inside_ranges(self):
        c = cfg(n_apps=7)
        for seed in range(5):
            inst = generate_instance(dataclasses.replace(c, seed=seed))
            for app in inst.apps:
                for mod in app.modules:
                    assert c.proc_req_range[0] <= mod.proc_req <= c.proc_req_range[1]
                    assert c.mem_req_range[0] <= mod.mem_req <= c.mem_req_range[1]
                    assert c.stor_req_range[0] <= mod.stor_req <= c.stor_req_range[1]
                assert c.input_traffic_range[0] <= app.input_traffic <= c.input_traffic_range[1]
                assert c.output_traffic_range[0] <= app.output_traffic <= c.output_traffic_range[1]
                for t in app.inter_traffic:
                    assert c.inter_traffic_range[0] <= t <= c.inter_traffic_range[1]
                assert c.min_qos <= app.qos_threshold <= c.max_qos

    def test_qos_draws_are_coupled_across_scenarios(self):
        for seed in range(5):
            tight = generate_instance(cfg(max_qos=1.5, seed=seed))
            loose = generate_instance(cfg(max_qos=3.0, seed=seed))
            for a_tight, a_loose in zip(tight.apps, loose.apps):
                assert a_loose.qos_threshold >= a_tight.qos_threshold
                # identical underlying variate: same position in (min, max)
                u_tight = (a_tight.qos_threshold - 0.5) / 1.0
                u_loose = (a_loose.qos_threshold - 0.5) / 2.5
                assert u_tight == pytest.approx(u_loose, rel=1e-12)

    def test_exec_delay_follows_reference_speed(self):
        inst = generate_instance(cfg(seed=3))
        for app in inst.apps:
            for mod in app.modules:
                assert mod.exec_delay == pytest.approx(mod.proc_req / 15.0, rel=1e-12)

    def test_exec_delay_override(self):
        inst = generate_instance(cfg(seed=3, exec_delay_overrides=((0, 1, 0.42),)))
        assert inst.apps[0].modules[1].exec_delay == 0.42
        assert inst.apps[0].modules[0].exec_delay != 0.42


class TestSecurityMix:
    def test_alpha_one_forces_all_high(self):
        inst = generate_instance(cfg(alpha=1.0, seed=4))
        assert all(a.security_req is SecurityLevel.HIGH for a in inst.apps)

    def test_alpha_zero_draws_low_or_medium(self):
        inst = generate_instance(cfg(alpha=0.0, seed=4))
        assert all(a.security_req in (SecurityLevel.LOW, SecurityLevel.MEDIUM)
                   for a in inst.apps)

    def test_unset_alpha_spans_all_levels(self):
        seen = set()
        for seed in range(10):
            for a in generate_instance(cfg(alpha=None, seed=seed)).apps:
                seen.add(a.security_req)
        assert seen == {SecurityLevel.LOW, SecurityLevel.MEDIUM, SecurityLevel.HIGH}

    def test_raising_alpha_only_upgrades(self):
        for seed in range(5):
            grid = [0.0, 0.25, 0.5, 0.75, 1.0]
            runs = [generate_instance(cfg(alpha=a, seed=seed)) for a in grid]
            for lo, hi in zip(runs, runs[1:]):
                for a_lo, a_hi in zip(lo.apps, hi.apps):
                    assert int(a_hi.security_req) >= int(a_lo.security_req)

    def test_forced_count_is_ceiling(self):
        inst = generate_instance(cfg(alpha=0.25, seed=6))  # ceil(0.25 * 7) = 2
        forced = [a for a in inst.apps if a.security_req is SecurityLevel.HIGH]
        assert len(forced) >= 2
        assert all(a.security_req is SecurityLevel.HIGH for a in inst.apps[:2])


class TestInfrastructure:
    def test_price_table_and_delays(self):
        inst = generate_instance(cfg(seed=0))
        cloud, fog = inst.nodes[inst.node_index["cloud"]], inst.nodes[inst.node_index["fog1"]]
        assert cloud.proc_cost == 0.03 and fog.proc_cost == 0.02
        assert cloud.stor_cost == 0.001 and fog.stor_cost == 0.02
        assert cloud.sensor_bw_cost == 3.0 and fog.sensor_bw_cost == 5.0
        assert [n.id for n in inst.nodes] == ["cloud", "fog1", "fog2"]
        assert inst.links.delay == ((0.0, 0.5, 0.5), (0.5, 0.0, 0.01), (0.5, 0.01, 0.0))
        assert inst.links.bw_cost == ((0.0, 3.0, 3.0), (3.0, 0.0, 5.0), (3.0, 5.0, 0.0))

    def test_generated_instances_validate_and_carry_ratings(self):
        for seed in range(5):
            inst = generate_instance(cfg(seed=seed))
            assert validate_instance(inst) == []
            assert set(inst.ratings) == {n.id for n in inst.nodes}

    def test_default_geometry_gives_one_low_one_high(self):
        inst = generate_instance(cfg(seed=0))
        assert inst.ratings["fog1"] is SecurityLevel.LOW
        assert inst.ratings["fog2"] is SecurityLevel.HIGH

    def test_random_positions_land_inside_farm(self):
        c = cfg(n_fog=4, fog_positions=None, tx_ranges=None, seed=9)
        inst = generate_instance(c)
        fogs = [n for n in inst.nodes if n.tier is Tier.FOG]
        assert len(fogs) == 4
        for n in fogs:
            assert inst.farm.contains(n.position)
        again = generate_instance(c)
        assert [n.position for n in again.nodes] == [n.position for n in inst.nodes]


class TestConfigIO:
    def test_every_field_kind_parses(self):
        doc = {"alpha": 0.5, "seed": 12, "exec_delay_overrides": [[1, 2, 0.3]],
               "fog_positions": [[100.0, 200.0], [300.0, 400.0]], "tx_ranges": [80.0, 120.0],
               "proc_req_range": [0.2, 1.5]}
        assert config_from_dict(doc) == cfg(
            alpha=0.5, seed=12, exec_delay_overrides=((1, 2, 0.3),),
            fog_positions=((100.0, 200.0), (300.0, 400.0)), tx_ranges=(80.0, 120.0),
            proc_req_range=(0.2, 1.5))

    def test_integral_float_reads_as_int(self):
        c = config_from_dict({"n_apps": 3.0, "seed": 2.0})
        assert (c.n_apps, c.seed) == (3, 2) and type(c.n_apps) is type(c.seed) is int

    def test_partial_config_uses_defaults(self):
        c = config_from_dict({"n_apps": 4, "max_qos": 3.0})
        assert c.n_apps == 4 and c.max_qos == 3.0
        assert c.fog_proc_cost == 0.02

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            config_from_dict({"n_app": 4})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            validate_config(cfg(alpha=1.5))
        with pytest.raises(ValueError):
            validate_config(cfg(min_qos=2.0, max_qos=1.0))
        with pytest.raises(ValueError):
            validate_config(cfg(fog_positions=((1.0, 1.0),)))  # n_fog = 2
        with pytest.raises(ValueError):
            validate_config(cfg(seed=-1))
