import json

import numpy as np
import pytest

from tcconsensus import (
    System,
    X0Policy,
    builtin_scenarios,
    classify_system,
    rhs_batch,
    scenario_by_name,
    seed_stream,
)
from tcconsensus.scenarios import BIPARTITE_BLOCKS

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


def former_sample(kind, n, seed=0, count=1, fixed=None, lo=0.0, hi=0.0, blocks=()):
    """The three-kind sampler the one-box ``X0Policy`` replaced, verbatim:
    the oracle for the box rule."""
    if kind == "fixed":
        return np.tile(np.asarray(fixed, dtype=np.float64), (count, 1))
    if kind == "uniform":
        return seed_stream(seed, count, n, lo, hi)
    if kind == "blocks":
        agents = sorted(i for idx, _, _ in blocks for i in idx)
        if agents != list(range(n)):
            raise ValueError(
                f"blocks must cover each of the {n} agents exactly once, "
                f"got {agents}"
            )
        unit = seed_stream(seed, count, n, 0.0, 1.0)
        out = np.empty((count, n))
        for idx, lo, hi in blocks:
            for i in idx:
                out[:, i] = lo + (hi - lo) * unit[:, i]
        return out
    raise ValueError(f"unknown x0 policy kind {kind!r}")


# each built-in scenario's policy as the three-kind sampler took it
FORMER_POLICIES = {
    "ex1": ("uniform", {"lo": -10.0, "hi": 10.0}),
    "ex2": ("uniform", {"lo": -5.0, "hi": 5.0}),
    "ex3": ("uniform", {"lo": -5.0, "hi": 5.0}),
    "ex4": ("uniform", {"lo": -3.0, "hi": 3.0}),
    "interval": ("uniform", {"lo": -5.0, "hi": 5.0}),
    "discarded": ("uniform", {"lo": -2.4, "hi": 2.4}),
    "sine": ("uniform", {"lo": -3.0, "hi": 3.0}),
    "necessity-2agent": ("fixed", {"fixed": (0.5, 1.5)}),
    "bipartite": (
        "blocks",
        {"blocks": ((BIPARTITE_BLOCKS[0], 2.0, 3.0), (BIPARTITE_BLOCKS[1], -3.0, -2.0))},
    ),
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_pwl_edges_as_their_forms_keep_verdict_and_kernel_bytes(name):
    """Each ungated edge with a piecewise-linear form, replaced by the form
    itself, leaves the verdict and the right-hand side bit for bit as they
    were."""
    sc = scenario_by_name(name)
    forms = {
        edge: fn if fn.is_gate or fn.pwl() is None else fn.pwl()
        for edge, fn in sc.system.constraints.items()
    }
    twin = System(sc.system.graph, forms)
    verdicts = [
        json.dumps(classify_system(s, hints=sc.ray_hints).to_dict(), sort_keys=True)
        for s in (sc.system, twin)
    ]
    assert verdicts[0] == verdicts[1]
    knots = sorted({x for fn in forms.values() if fn.pwl() is not None for x in fn.pwl().xs})
    points = np.concatenate(
        (knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), [0.0, -0.0])
    )
    X = np.vstack(
        (
            np.repeat(points[:, None], sc.system.n, axis=1),
            seed_stream(3, 50, sc.system.n, -6.0, 6.0),
        )
    )
    for m in (1, 20, len(X)):
        assert rhs_batch(twin, X[:m]).tobytes() == rhs_batch(sc.system, X[:m]).tobytes()


class TestX0Policy:
    def test_fixed(self):
        p = X0Policy((0.5, 1.5), (0.5, 1.5))
        x = p.sample(2, seed=9, count=3)
        assert x.shape == (3, 2)
        assert np.all(x == [0.5, 1.5])

    def test_uniform_bounds_and_determinism(self):
        p = X0Policy(-10.0, 10.0)
        a = p.sample(5, seed=1, count=4)
        b = p.sample(5, seed=1, count=4)
        assert a.shape == (4, 5)
        assert a.min() >= -10.0 and a.max() <= 10.0
        assert a.tobytes() == b.tobytes()
        assert not np.allclose(a, p.sample(5, seed=2, count=4))

    def test_blocks(self):
        p = X0Policy((2.0, 2.0, 2.0, -3.0, -3.0), (3.0, 3.0, 3.0, -2.0, -2.0))
        x = p.sample(5, seed=0, count=10)
        assert x[:, :3].min() >= 2.0 and x[:, :3].max() <= 3.0
        assert x[:, 3:].min() >= -3.0 and x[:, 3:].max() <= -2.0

    @pytest.mark.parametrize(
        "lo, hi",
        [
            ((0.0, 1.0, 2.0), 5.0),  # three bounds for four agents
            (0.0, (1.0,)),  # one bound would broadcast: still the wrong width
            ((0.0,) * 5, (1.0,) * 5),
            (((0.0,) * 4,) * 2, 1.0),  # a matrix of bounds
        ],
    )
    def test_a_bound_of_the_wrong_width_raises(self, lo, hi):
        with pytest.raises(ValueError, match="a number or 4 values"):
            X0Policy(lo, hi).sample(4)

    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_matches_the_former_sampler(self, name):
        sc = scenario_by_name(name)
        kind, params = FORMER_POLICIES[name]
        for seed in (0, 1, 2, 5, 7):
            for count in (1, 20, 1000):
                got = sc.sample_x0(seed=seed, count=count)
                want = former_sample(kind, sc.system.n, seed, count, **params)
                assert got.shape == want.shape == (count, sc.system.n)
                assert got.tobytes() == want.tobytes(), (name, seed, count)

    def test_scenario_sample_matches_system_width(self):
        for s in builtin_scenarios():
            x = s.sample_x0(seed=0, count=2)
            assert x.shape == (2, s.system.n)
