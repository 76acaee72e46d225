"""Tests for the synthetic loop generators."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddg import DdgError
from repro.ddg.analysis import t_dep
from repro.ddg.builders import parse_ddg, serialize_ddg
from repro.ddg.canonical import canonical_digest
from repro.ddg.generators import (
    ADVERSARIAL_DEFAULTS,
    DEFAULT_WEIGHTS,
    DISTANCE_DISTS,
    MODES,
    PROFILES,
    GeneratorConfig,
    GenParams,
    adversarial_params,
    parameterized_ddg,
    random_ddg,
    suite,
    suite1066,
)
from repro.ddg.transforms import scrambled
from repro.machine.presets import coreblocks, deep_unclean, powerpc604
from tests.ddg.nxgraph import to_networkx


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


class TestRandomDdg:
    def test_deterministic_for_seed(self, machine):
        a = random_ddg(random.Random(7), machine)
        b = random_ddg(random.Random(7), machine)
        assert [(o.name, o.op_class) for o in a.ops] == [
            (o.name, o.op_class) for o in b.ops
        ]
        assert [(d.src, d.dst, d.distance) for d in a.deps] == [
            (d.src, d.dst, d.distance) for d in b.deps
        ]

    def test_size_bounds_respected(self, machine):
        config = GeneratorConfig(min_ops=3, max_ops=6)
        rng = random.Random(1)
        for _ in range(50):
            g = random_ddg(rng, machine, config)
            assert 3 <= g.num_ops <= 6

    def test_explicit_num_ops(self, machine):
        g = random_ddg(random.Random(0), machine, num_ops=12)
        assert g.num_ops == 12

    def test_connected(self, machine):
        rng = random.Random(3)
        for _ in range(20):
            g = random_ddg(rng, machine)
            undirected = to_networkx(g).to_undirected()
            assert nx.is_connected(undirected)

    def test_classes_valid_on_machine(self, machine):
        rng = random.Random(5)
        g = random_ddg(rng, machine, num_ops=20)
        g.validate_against(machine)

    def test_always_schedulable(self, machine):
        """Every generated loop must admit some periodic schedule."""
        rng = random.Random(11)
        for _ in range(30):
            g = random_ddg(rng, machine)
            assert t_dep(g, machine) >= 1  # raises on 0-distance cycles

    def test_rejects_bad_num_ops(self, machine):
        with pytest.raises(DdgError):
            random_ddg(random.Random(0), machine, num_ops=0)

    def test_rejects_unusable_weights(self, machine):
        config = GeneratorConfig(class_weights={"vectorfma": 1.0})
        with pytest.raises(DdgError, match="none of the configured"):
            random_ddg(random.Random(0), machine, config)

    def test_weights_filtered_to_machine(self):
        from repro.machine.presets import motivating_machine

        machine = motivating_machine()
        rng = random.Random(2)
        g = random_ddg(rng, machine, num_ops=15)
        used = set(g.classes_used())
        assert used <= {"load", "store", "fadd", "fmul"}


class TestSuite:
    def test_suite_count_and_names(self, machine):
        loops = suite(25, machine, seed=9)
        assert len(loops) == 25
        assert loops[0].name == "loop0000"
        assert loops[24].name == "loop0024"

    def test_suite_reproducible(self, machine):
        a = suite(10, machine, seed=3)
        b = suite(10, machine, seed=3)
        assert all(
            x.num_ops == y.num_ops and x.num_deps == y.num_deps
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self, machine):
        a = suite(10, machine, seed=1)
        b = suite(10, machine, seed=2)
        assert any(x.num_ops != y.num_ops for x, y in zip(a, b))

    def test_suite1066_size(self, machine):
        loops = suite1066(machine)
        assert len(loops) == 1066

    def test_suite1066_size_distribution(self, machine):
        """Mean size should sit in the paper's small-loop regime (~6)."""
        loops = suite1066(machine)
        mean = sum(g.num_ops for g in loops) / len(loops)
        assert 4.0 <= mean <= 10.0

    def test_default_weights_sum_close_to_one(self):
        assert abs(sum(DEFAULT_WEIGHTS.values()) - 1.0) < 0.05


class TestGenParams:
    def test_defaults_validate(self):
        GenParams().validate()

    def test_adversarial_defaults_validate(self):
        adversarial_params().validate()
        assert adversarial_params().mode == "adversarial"

    def test_adversarial_overrides(self):
        p = adversarial_params(max_ops=12, profile="mem")
        assert p.max_ops == 12 and p.profile == "mem"
        assert p.cycles == ADVERSARIAL_DEFAULTS["cycles"]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mode="chaotic"),
            dict(distance_dist="zipf"),
            dict(profile="gpu"),
            dict(min_ops=0),
            dict(min_ops=9, max_ops=3),
            dict(cycles=-1),
            dict(cycle_depth=0),
            dict(max_distance=0),
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(DdgError):
            GenParams(**bad).validate()

    def test_json_round_trip(self):
        p = adversarial_params(cycle_depth=2, size_p=0.3)
        assert GenParams.from_json_dict(p.to_json_dict()) == p

    def test_from_json_rejects_unknown_keys(self):
        doc = GenParams().to_json_dict()
        doc["quantum"] = True
        with pytest.raises(DdgError, match="unknown generator parameter"):
            GenParams.from_json_dict(doc)

    def test_profiles_cover_modes_and_dists(self):
        assert set(MODES) == {"guaranteed", "adversarial"}
        assert "uniform" in DISTANCE_DISTS
        for weights in PROFILES.values():
            assert weights and all(w > 0 for w in weights.values())


def _zero_distance_dag(g):
    intra = nx.DiGraph()
    intra.add_nodes_from(range(g.num_ops))
    intra.add_edges_from(
        (d.src, d.dst) for d in g.deps if d.distance == 0
    )
    return nx.is_directed_acyclic_graph(intra)


class TestParameterizedDdg:
    def test_deterministic_for_seed(self, machine):
        p = GenParams()
        a = parameterized_ddg(random.Random("s:guaranteed:0"), machine, p)
        b = parameterized_ddg(random.Random("s:guaranteed:0"), machine, p)
        assert serialize_ddg(a) == serialize_ddg(b)

    def test_size_bounds(self, machine):
        p = GenParams(min_ops=5, max_ops=9)
        rng = random.Random(0)
        for _ in range(40):
            g = parameterized_ddg(rng, machine, p)
            assert 5 <= g.num_ops <= 9

    def test_guaranteed_connected_no_parallel_edges(self, machine):
        rng = random.Random(17)
        p = GenParams(cycles=2, cycle_depth=3)
        for _ in range(30):
            g = parameterized_ddg(rng, machine, p)
            assert nx.is_connected(to_networkx(g).to_undirected())
            seen = set()
            for d in g.deps:
                assert (d.src, d.dst) not in seen
                seen.add((d.src, d.dst))

    def test_back_edges_carry_distance(self, machine):
        rng = random.Random(23)
        for mode in MODES:
            p = (GenParams(cycles=3, cycle_depth=4) if mode == "guaranteed"
                 else adversarial_params())
            for _ in range(25):
                g = parameterized_ddg(rng, machine, p)
                for d in g.deps:
                    if d.src >= d.dst:
                        assert d.distance >= 1
                assert _zero_distance_dag(g)

    def test_validates_against_machine(self, machine):
        rng = random.Random(5)
        for p in (GenParams(), adversarial_params()):
            parameterized_ddg(rng, machine, p).validate_against(machine)

    def test_profiles_restrict_class_mix(self, machine):
        rng = random.Random(31)
        p = GenParams(profile="mem", min_ops=20, max_ops=30)
        g = parameterized_ddg(rng, machine, p)
        assert set(g.classes_used()) <= set(PROFILES["mem"])

    def test_profiles_filtered_to_machine(self):
        rng = random.Random(8)
        machine = deep_unclean()
        p = GenParams(profile="fp", min_ops=16, max_ops=24)
        g = parameterized_ddg(rng, machine, p)
        assert set(g.classes_used()) <= set(machine.op_classes)

    def test_unit_distance_dist(self, machine):
        p = GenParams(distance_dist="unit", cycles=4, cycle_depth=2)
        rng = random.Random(13)
        for _ in range(20):
            g = parameterized_ddg(rng, machine, p)
            for d in g.deps:
                if d.distance:
                    assert d.distance == 1

    def test_distance_bounded(self, machine):
        for dist in DISTANCE_DISTS:
            p = GenParams(distance_dist=dist, max_distance=2, cycles=4)
            rng = random.Random(29)
            for _ in range(15):
                g = parameterized_ddg(rng, machine, p)
                assert all(d.distance <= 2 for d in g.deps)

    def test_guaranteed_finite_t_dep(self, machine):
        rng = random.Random(41)
        p = GenParams(cycles=2, cycle_depth=3)
        for _ in range(30):
            g = parameterized_ddg(rng, machine, p)
            assert t_dep(g, machine) >= 1

    def test_adversarial_multi_edges_survive_round_trip(self, machine):
        rng = random.Random(3)
        p = adversarial_params(multi_edge_prob=0.6)
        found_parallel = False
        for _ in range(10):
            g = parameterized_ddg(rng, machine, p)
            pairs = [(d.src, d.dst) for d in g.deps]
            found_parallel |= len(pairs) != len(set(pairs))
            assert serialize_ddg(parse_ddg(serialize_ddg(g))) == \
                serialize_ddg(g)
        assert found_parallel

    def test_adversarial_can_disconnect(self):
        machine = coreblocks()
        rng = random.Random(7)
        p = adversarial_params(disconnect_prob=0.9, cycles=0,
                               edge_prob=0.0, min_ops=8, max_ops=8)
        disconnected = any(
            not nx.is_connected(
                to_networkx(parameterized_ddg(rng, machine, p))
                .to_undirected()
            )
            for _ in range(10)
        )
        assert disconnected

    def test_rejects_invalid_params(self, machine):
        with pytest.raises(DdgError):
            parameterized_ddg(
                random.Random(0), machine, GenParams(mode="nope")
            )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100000), st.sampled_from(MODES))
def test_property_parameterized_well_formed(seed, mode):
    """Property: both modes parse, canonicalize and stay acyclic."""
    machine = powerpc604()
    p = GenParams() if mode == "guaranteed" else adversarial_params()
    g = parameterized_ddg(random.Random(seed), machine, p)
    assert _zero_distance_dag(g)
    round_tripped = parse_ddg(serialize_ddg(g))
    assert canonical_digest(round_tripped) == canonical_digest(g)
    assert canonical_digest(
        scrambled(g, random.Random(seed + 1))
    ) == canonical_digest(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100000))
def test_property_no_zero_distance_cycles(seed):
    """Property: generated DDGs never contain a 0-distance cycle."""
    machine = powerpc604()
    g = random_ddg(random.Random(seed), machine)
    intra = nx.DiGraph()
    intra.add_nodes_from(range(g.num_ops))
    intra.add_edges_from(
        (d.src, d.dst) for d in g.deps if d.distance == 0
    )
    assert nx.is_directed_acyclic_graph(intra)
