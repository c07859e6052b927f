import numpy as np
import pytest

from tcconsensus import (
    System,
    X0Policy,
    builtin_scenarios,
    classify_system,
    scenario_by_name,
)

EXPECTED = {
    "ex1": "Consensus",
    "ex2": "Consensus",
    "ex3": "UniqueEquilibrium",
    "ex4": "EquilibriumExists",
    "interval": "Consensus",
    "discarded": "Consensus",
    "sine": "Consensus",
    "necessity-2agent": "Inconclusive",
    "bipartite": "Inconclusive",
}


class TestRegistry:
    def test_names_unique_and_complete(self):
        names = [s.name for s in builtin_scenarios()]
        assert len(names) == len(set(names))
        assert set(names) == set(EXPECTED)

    def test_lookup(self):
        assert scenario_by_name("ex3").name == "ex3"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="ex1"):
            scenario_by_name("ex99")

    def test_registry_order(self):
        assert [s.name for s in builtin_scenarios()] == list(EXPECTED)

    @pytest.mark.parametrize("name", list(EXPECTED) + ["ex99"])
    def test_lookup_builds_only_the_named_system(self, name, monkeypatch):
        built = []
        real = System._compile

        def counted(system, graph, *table):
            built.append(graph.n)
            real(system, graph, *table)

        monkeypatch.setattr(System, "_compile", counted)
        if name not in EXPECTED:
            known = "known scenarios: " + ", ".join(EXPECTED)
            with pytest.raises(KeyError, match=known):
                scenario_by_name(name)
            assert built == []
        else:
            sc = scenario_by_name(name)
            assert sc.name == name and built == [sc.system.n]

    def test_declared_expected_classes(self):
        for s in builtin_scenarios():
            assert s.expected_class == EXPECTED[s.name]

    def test_checks_are_known_monitors(self):
        known = {
            "box_invariance",
            "y_monotone",
            "v_monotone",
            "lemma6",
            "consensus",
            "distance_decay",
        }
        for s in builtin_scenarios():
            assert set(s.checks) <= known
            assert s.expected_check_failures <= set(s.checks)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_classification_matches_expectation(self, name):
        sc = scenario_by_name(name)
        verdict = classify_system(sc.system, hints=sc.ray_hints)
        assert verdict.classification == sc.expected_class


class TestX0Policy:
    def test_fixed(self):
        p = X0Policy("fixed", fixed=(0.5, 1.5))
        x = p.sample(2, seed=9, count=3)
        assert x.shape == (3, 2)
        assert np.all(x == [0.5, 1.5])

    def test_uniform_bounds_and_determinism(self):
        p = X0Policy("uniform", lo=-10.0, hi=10.0)
        a = p.sample(5, seed=1, count=4)
        b = p.sample(5, seed=1, count=4)
        assert a.shape == (4, 5)
        assert a.min() >= -10.0 and a.max() <= 10.0
        assert a.tobytes() == b.tobytes()
        assert not np.allclose(a, p.sample(5, seed=2, count=4))

    def test_blocks(self):
        p = X0Policy(
            "blocks", blocks=(((0, 1, 2), 2.0, 3.0), ((3, 4), -3.0, -2.0))
        )
        x = p.sample(5, seed=0, count=10)
        assert x[:, :3].min() >= 2.0 and x[:, :3].max() <= 3.0
        assert x[:, 3:].min() >= -3.0 and x[:, 3:].max() <= -2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            X0Policy("gaussian").sample(3)

    @pytest.mark.parametrize(
        "blocks",
        [
            (((0, 1), 2.0, 3.0),),  # agents 2 and 3 in no block
            (((0, 1, 2), 2.0, 3.0), ((2, 3), -3.0, -2.0)),  # agent 2 twice
            (((0, 1, 2, 3, 4), 2.0, 3.0),),  # agent 4 does not exist
        ],
    )
    def test_blocks_must_cover_each_agent_once(self, blocks):
        with pytest.raises(ValueError, match="exactly once"):
            X0Policy("blocks", blocks=blocks).sample(4)

    def test_scenario_sample_matches_system_width(self):
        for s in builtin_scenarios():
            x = s.sample_x0(seed=0, count=2)
            assert x.shape == (2, s.system.n)
