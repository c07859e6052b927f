import json
import math
import random

import numpy as np
import pytest

from tcconsensus import Affine, Digraph, Identity, app, build_digraph, System
from tcconsensus.app import (
    _encode_default,
    RunConfig,
    build_report,
    config_from_dict,
    list_scenarios,
    load_config,
    render_report,
    run,
    system_from_dict,
    system_to_dict,
)
from tcconsensus.cli import main
from tcconsensus.errors import ParseError, UnconvergedError, ValidationError
from tcconsensus.scenarios import builtin_scenarios
from test_dynamics import load_netgen, random_catalog_system

CUSTOM_SYSTEM = {
    "weights": [[0.0, 1.0], [1.0, 0.0]],
    "constraints": [
        {"sender": 0, "receiver": 1, "fn": {"variant": "affine", "k": -0.5, "m": 0.0}},
        {"sender": 1, "receiver": 0, "fn": {"variant": "affine", "k": -0.5, "m": 0.0}},
    ],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestConfigLoading:
    def test_scenario_config(self, tmp_path):
        path = write_config(
            tmp_path,
            {"scenario": "ex1", "integration": {"dt": 1e-3, "t_final": 2.0}},
        )
        config = load_config(path)
        assert config.scenario == "ex1"
        assert config.integration.t_final == 2.0

    def test_custom_system_config(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "system": CUSTOM_SYSTEM,
                "x0": [3.0, -2.0],
                "integration": {"dt": 1e-3, "t_final": 1.0},
            },
        )
        config = load_config(path)
        assert config.system.n == 2
        assert config.x0 == (3.0, -2.0)

    def test_both_scenario_and_system_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict(
                {"scenario": "ex1", "system": CUSTOM_SYSTEM, "x0": [0.0, 0.0]}
            )

    def test_neither_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({})

    def test_custom_system_needs_x0(self):
        with pytest.raises(ValidationError):
            config_from_dict({"system": CUSTOM_SYSTEM})

    def test_x0_length_checked(self):
        with pytest.raises(ValidationError):
            config_from_dict({"system": CUSTOM_SYSTEM, "x0": [1.0, 2.0, 3.0]})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            config_from_dict({"scenario": "ex1", "turbo": True})

    def test_unknown_analysis_key(self):
        with pytest.raises(ValidationError, match="unknown analysis keys"):
            config_from_dict({"scenario": "ex1", "analysis": {"vibes": True}})

    def test_seed_must_be_int(self):
        with pytest.raises(ValidationError, match="seed"):
            config_from_dict({"scenario": "ex1", "seed": "zero"})

    def test_unknown_constraint_variant(self):
        bad = json.loads(json.dumps(CUSTOM_SYSTEM))
        bad["constraints"][0]["fn"] = {"variant": "warp-drive"}
        with pytest.raises(Exception):
            config_from_dict({"system": bad, "x0": [0.0, 0.0]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.json")

    def test_bad_json_cites_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:3"):
            load_config(path)

    def test_round_trip(self):
        config = config_from_dict(
            {
                "system": CUSTOM_SYSTEM,
                "x0": [1.0, -1.0],
                "integration": {"dt": 1e-3, "t_final": 1.0},
                "seed": 5,
                "analysis": {"equilibrium": True},
            }
        )
        again = config_from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_system_round_trip(self):
        sys_ = system_from_dict(CUSTOM_SYSTEM)
        assert system_from_dict(system_to_dict(sys_)).constraints == sys_.constraints


class TestBuildReport:
    def test_scenario_expectations(self):
        config = config_from_dict(
            {"scenario": "necessity-2agent"}
        )
        report, traj, ok = build_report(config)
        assert ok
        assert report["verdict_matches_expected"]
        assert report["checks_match_expected"]
        assert not report["monitors"]["distance_decay"]["passed"]
        assert traj is not None

    def test_analyze_mode_skips_integration(self):
        config = config_from_dict({"scenario": "ex3"})
        report, traj, ok = build_report(config, mode="analyze")
        assert traj is None and "final_state" not in report
        assert report["verdict"]["classification"] == "UniqueEquilibrium"

    def test_equilibrium_mode(self):
        config = config_from_dict(
            {
                "system": CUSTOM_SYSTEM,
                "x0": [4.0, -4.0],
                "integration": {"dt": 1e-3, "t_final": 1.0},
            }
        )
        report, _, _ = build_report(config, mode="equilibrium")
        assert report["equilibrium"]["point"] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_report_renders_to_json(self):
        config = config_from_dict({"scenario": "necessity-2agent"})
        report, _, _ = build_report(config)
        text = render_report(report)
        assert json.loads(text)["expectations_met"] is True


def ref_jsonify(obj):
    """The renderer's former pre-walk, kept as the oracle for its content."""
    if isinstance(obj, dict):
        return {str(k): ref_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def canonical(text):
    # re-dumping keeps int/float/bool apart, which == on parsed values does not
    return json.dumps(json.loads(text), sort_keys=True)


def reference_text(report):
    return json.dumps(ref_jsonify(report), indent=2, sort_keys=True) + "\n"


RING_CATALOG = (
    {"variant": "saturation", "lo": -1.0, "hi": 1.0},
    {"variant": "interval_projection", "p": -1.0, "q": 1.0, "rho": 0.5},
    {"variant": "interval_projection", "p": -1.5, "q": 1.5, "rho": 0.25},
    {"variant": "gated_identity", "lo": -2.0, "hi": 2.0},
    {
        "variant": "piecewise_linear",
        "knots": [[-1.0, -1.0], [1.0, 1.0]],
        "left_slope": 0.0,
        "right_slope": -1.5,
    },
)


def ring_plus_random(n=60, extra=3, seed=7):
    """Directed ring plus ``extra`` random in-edges per agent, one function
    record per edge."""
    rng = random.Random(seed)
    weights = [[0.0] * n for _ in range(n)]
    constraints = []
    for i in range(n):
        ring = (i - 1) % n
        others = [j for j in range(n) if j not in (i, ring)]
        for j in sorted([ring] + rng.sample(others, extra)):
            weights[i][j] = round(rng.uniform(0.5, 1.5), 6)
            fn = dict(rng.choice(RING_CATALOG))
            constraints.append({"sender": j, "receiver": i, "fn": fn})
    x0 = [rng.uniform(-3.0, 3.0) for _ in range(n)]
    return config_from_dict(
        {
            "system": {"weights": weights, "constraints": constraints},
            "x0": x0,
            "integration": {"dt": 1e-2, "t_final": 0.1},
        }
    )


def int_and_float_ring(n=6):
    """Ring plus chords whose saturation records alternate between integer
    and float bounds: equal as values, different as JSON."""
    weights = [[0.0] * n for _ in range(n)]
    constraints = []
    for i in range(n):
        for j in sorted({(i - 1) % n, (i + 2) % n}):
            weights[i][j] = 1.0 + 0.25 * j
            bound = 1 if len(constraints) % 2 else 1.0
            fn = {"variant": "saturation", "lo": -bound, "hi": bound}
            constraints.append({"sender": j, "receiver": i, "fn": fn})
    return config_from_dict(
        {
            "system": {"weights": weights, "constraints": constraints},
            "x0": [float(v) for v in np.linspace(-2.0, 2.0, n)],
            "integration": {"dt": 1e-2, "t_final": 0.1},
        }
    )


_IDENTITY = {"variant": "identity"}
_MIX = {
    "variant": "mix",
    "first": {"variant": "scaled_sine", "amplitude": 0.8, "phase": 0.0},
    "second": {"variant": "affine", "k": -0.5, "m": 0.0},
    "weight": 0.25,
}
# fn records, pairwise equal or not as written: the loader must share one
# object between two of them exactly when their repr() strings are equal
SHARING_RECORDS = (
    {"variant": "saturation", "lo": -1, "hi": 1},
    {"variant": "saturation", "lo": -1.0, "hi": 1.0},
    {"variant": "saturation", "lo": -1, "hi": np.float64(1.0)},
    {"variant": "affine", "k": 0.5, "m": 0.0},
    {"variant": "affine", "k": 0.5, "m": -0.0},
    {"variant": "affine", "k": 0.5, "m": 0.0},
    {"variant": "affine", "m": 0.0, "k": 0.5},
    json.loads(json.dumps(_MIX)),
    json.loads(json.dumps(_MIX)),
    {**_MIX, "weight": 0.75},
    {"variant": "identity"},
    # built at run time, so not interned: equal to the literal above
    {"".join(["vari", "ant"]): "".join(["iden", "tity"])},
    # marshal writes numpy scalars as their raw bytes, and these two have
    # the same eight bytes
    {"variant": "affine", "k": np.int64(1)},
    {"variant": "affine", "k": np.float64(5e-324)},
    {"variant": "affine", "k": 1},
)

# one fault in the dense form, and the message it raises; an index out of
# range must not wrap around, and the repeated edge named is the one the
# list repeats first
DENSE_FAULTS = {
    "negative-sender": (
        lambda r: r["constraints"][0].update(sender=-1),
        "constraint map must cover the edge set exactly; "
        "missing [(0, 1)], extra [(-1, 1)]",
    ),
    "sender-equals-n": (
        lambda r: r["constraints"][0].update(sender=2),
        "constraint map must cover the edge set exactly; "
        "missing [(0, 1)], extra [(2, 1)]",
    ),
    "index-beyond-int64": (
        lambda r: r["constraints"][0].update(sender=2**70),
        "constraint map must cover the edge set exactly; "
        "missing [(0, 1)], extra [(1180591620717411303424, 1)]",
    ),
    "missing-edge": (
        lambda r: r["constraints"].pop(1),
        "constraint map must cover the edge set exactly; missing [(1, 0)], extra []",
    ),
    "extra-edge": (
        lambda r: r["constraints"].append({"sender": 1, "receiver": 1, "fn": _IDENTITY}),
        "constraint map must cover the edge set exactly; missing [], extra [(1, 1)]",
    ),
    "bool-index": (
        lambda r: r["constraints"][0].update(sender=True),
        "agent index must be an integer, got True",
    ),
    "entry-not-an-object": (
        lambda r: r["constraints"].__setitem__(1, 3),
        "'constraint' must be an object",
    ),
    "entry-missing-fn": (
        lambda r: r["constraints"][1].pop("fn"),
        "system record missing field 'fn'",
    ),
    "integral-float-index": (
        lambda r: r["constraints"][1].update(receiver=0.0),
        "agent index must be an integer, got 0.0",
    ),
    "repeated-pair": (
        lambda r: r.update(
            constraints=[
                {"sender": j, "receiver": i, "fn": _IDENTITY}
                for j, i in ((1, 0), (0, 1), (1, 0), (0, 1))
            ]
        ),
        "repeated constraint record for edge (1, 0)",
    ),
    # as many records as edges, so only the repeat tells them apart
    "repeated-pair-as-many-as-edges": (
        lambda r: r["constraints"][1].update(sender=0, receiver=1),
        "repeated constraint record for edge (0, 1)",
    ),
}


class TestSystemLoading:
    def test_equal_records_load_as_one_object(self):
        fns = ring_plus_random().system.constraints.values()
        assert len(fns) == 60 * 4
        assert len({id(fn) for fn in fns}) == len(RING_CATALOG) == 5

    def test_int_and_float_records_stay_apart(self):
        sys_ = int_and_float_ring().system
        objects = {id(fn): fn for fn in sys_.constraints.values()}
        assert len(objects) == 2
        assert len(set(objects.values())) == 1  # one value
        echo = system_to_dict(sys_)
        edges = echo["edges"]
        for j, i, k in zip(edges["sender"], edges["receiver"], edges["function"]):
            own = sys_.constraints[(j, i)].to_dict()
            assert json.dumps(echo["functions"][k]) == json.dumps(own)
        assert sorted(json.dumps(rec) for rec in echo["functions"]) == sorted(
            [
                json.dumps({"variant": "saturation", "lo": -1, "hi": 1}),
                json.dumps({"variant": "saturation", "lo": -1.0, "hi": 1.0}),
            ]
        )

    def test_numpy_integer_indices_accepted(self):
        record = json.loads(json.dumps(CUSTOM_SYSTEM))
        record["constraints"][0]["sender"] = np.int64(0)
        record["constraints"][0]["receiver"] = np.int32(1)
        assert system_from_dict(record).constraints == system_from_dict(
            CUSTOM_SYSTEM
        ).constraints

    @pytest.mark.parametrize("form", ["dense", "columnar"])
    def test_records_share_an_object_iff_their_reprs_are_equal(self, form):
        records = SHARING_RECORDS
        n = len(records)
        edges = [(j, (j + 1) % n) for j in range(n)]
        if form == "dense":
            weights = [[0.0] * n for _ in range(n)]
            for j, i in edges:
                weights[i][j] = 1.0
            record = {
                "weights": weights,
                "constraints": [
                    {"sender": j, "receiver": i, "fn": fn}
                    for (j, i), fn in zip(edges, records)
                ],
            }
        else:
            record = {
                "agents": n,
                "functions": list(records),
                "edges": {
                    "sender": [j for j, _ in edges],
                    "receiver": [i for _, i in edges],
                    "weight": [1.0] * n,
                    "function": list(range(n)),
                },
            }
        system = system_from_dict(record)
        fns = [system.constraints[edge] for edge in edges]
        for a in range(n):
            for b in range(n):
                same = repr(records[a]) == repr(records[b])
                assert (fns[a] is fns[b]) == same, (records[a], records[b])

    @pytest.mark.parametrize("case", sorted(DENSE_FAULTS))
    def test_dense_fault_messages(self, case):
        edit, message = DENSE_FAULTS[case]
        with pytest.raises(ValidationError) as err:
            system_from_dict(edited(edit))
        assert str(err.value) == message


def edited(edit):
    record = json.loads(json.dumps(CUSTOM_SYSTEM))
    edit(record)
    return record


# CUSTOM_SYSTEM in the columnar form; its two equal records are one object
COLUMNAR_SYSTEM = {
    "agents": 2,
    "functions": [{"variant": "affine", "k": -0.5, "m": 0.0}],
    "edges": {
        "sender": [0, 1],
        "receiver": [1, 0],
        "weight": [1.0, 1.0],
        "function": [0, 0],
    },
}


def columnar(edit):
    """An edit of COLUMNAR_SYSTEM, applied in place of the dense record."""

    def apply(record):
        record.clear()
        record.update(json.loads(json.dumps(COLUMNAR_SYSTEM)))
        edit(record)

    return apply


def set_column(name, position, value):
    return columnar(lambda r: r["edges"][name].__setitem__(position, value))


# one fault in the columnar form, and the message it raises
COLUMNAR_FAULTS = {
    "sender-out-of-range": (
        set_column("sender", 1, 2),
        "sender 2 is out of range [0, 2)",
    ),
    "negative-receiver": (
        set_column("receiver", 0, -1),
        "receiver -1 is out of range [0, 2)",
    ),
    "function-out-of-range": (
        set_column("function", 0, 1),
        "function 1 is out of range [0, 1)",
    ),
    "negative-function-index": (
        set_column("function", 0, -1),
        "function -1 is out of range [0, 1)",
    ),
    "self-loop": (set_column("receiver", 0, 0), "self-loop on agent 0"),
    "repeated-pair": (
        columnar(lambda r: r["edges"].update(sender=[0, 0], receiver=[1, 1])),
        "repeated edge (0, 1)",
    ),
    "zero-weight": (
        set_column("weight", 0, 0.0),
        "edge weights must be finite and positive",
    ),
    "negative-weight": (
        set_column("weight", 1, -1.0),
        "edge weights must be finite and positive",
    ),
    "nan-weight": (
        set_column("weight", 0, float("nan")),
        "edge weights must be finite and positive",
    ),
    "infinite-weight": (
        set_column("weight", 1, math.inf),
        "edge weights must be finite and positive",
    ),
    "unused-function": (
        columnar(lambda r: r["functions"].append({"variant": "identity"})),
        "function 1 is used by no edge",
    ),
    # pair keys sender * agents + receiver would wrap in int64 and read
    # 2**31 -> 5 as 0 -> 5
    "too-many-agents": (
        columnar(
            lambda r: r.update(
                agents=2**33,
                edges={
                    "sender": [0, 2**31],
                    "receiver": [5, 5],
                    "weight": [1.0, 1.0],
                    "function": [0, 0],
                },
            )
        ),
        "'agents' must be at most 3037000499, so that every pair key "
        "sender * agents + receiver fits in int64, got 8589934592",
    ),
    "unequal-columns": (
        columnar(lambda r: r["edges"]["weight"].append(1.0)),
        "edge columns must have equal lengths, got "
        "{'sender': 2, 'receiver': 2, 'weight': 3, 'function': 2}",
    ),
}


MALFORMED_SYSTEMS = {
    "system-key": lambda r: r.update(bogus=3),
    "constraint-key": lambda r: r["constraints"][0].update(weight=2.0),
    "fn-key": lambda r: r["constraints"][0].update(
        fn={"variant": "saturation", "lo": -1, "hi": 1, "bogus": 3}
    ),
    "mix-member-key": lambda r: r["constraints"][0].update(
        fn={
            "variant": "mix",
            "first": {"variant": "identity", "bogus": 3},
            "second": {"variant": "affine", "k": -0.5},
        }
    ),
    "mix-member-not-a-record": lambda r: r["constraints"][0].update(
        fn={"variant": "mix", "first": 3, "second": {"variant": "identity"}}
    ),
    "repeated-edge": lambda r: r["constraints"].append(
        {"sender": 0, "receiver": 1, "fn": {"variant": "identity"}}
    ),
    "float-index": lambda r: r["constraints"][0].update(sender=0.9),
    "integral-float-index": lambda r: r["constraints"][0].update(sender=0.0),
    "bool-index": lambda r: r["constraints"][1].update(sender=True),
    "string-index": lambda r: r["constraints"][0].update(receiver="1"),
    "nan-parameter": lambda r: r["constraints"][0].update(
        fn={"variant": "affine", "k": float("nan")}
    ),
    "infinite-parameter": lambda r: r["constraints"][1].update(
        fn={"variant": "saturation", "lo": -math.inf, "hi": 1}
    ),
    "infinite-knot": lambda r: r["constraints"][0].update(
        fn={"variant": "piecewise_linear", "knots": [[0.0, 0.0], [1.0, math.inf]]}
    ),
    "nan-sample": lambda r: r["constraints"][0].update(
        fn={"variant": "tabulated", "xs": [-1, 0, 1], "ys": [0, float("nan"), 0]}
    ),
    # a function parameter is a number, never a bool, string or null
    "bool-parameter": lambda r: r["constraints"][0].update(
        fn={"variant": "affine", "k": True}
    ),
    "bool-bounds": lambda r: r["constraints"][1].update(
        fn={"variant": "saturation", "lo": False, "hi": True}
    ),
    "bool-sample": lambda r: r["constraints"][0].update(
        fn={"variant": "tabulated", "xs": [0, 1], "ys": [0, True]}
    ),
    "string-knot": lambda r: r["constraints"][0].update(
        fn={"variant": "piecewise_linear", "knots": [[0, 0], [1, "1"]]}
    ),
    "string-parameter": lambda r: r["constraints"][0].update(
        fn={"variant": "affine", "k": "0.5"}
    ),
    "null-parameter": lambda r: r["constraints"][1].update(
        fn={"variant": "affine", "k": None}
    ),
    "list-parameter": lambda r: r["constraints"][1].update(
        fn={"variant": "affine", "k": [0.5, 0.5]}
    ),
    "float32-nan-parameter": lambda r: r["constraints"][0].update(
        fn={"variant": "affine", "k": np.float32("nan")}
    ),
    # list parameters are checked for shape before the variant is built
    "scalar-samples": lambda r: r["constraints"][0].update(
        fn={"variant": "tabulated", "xs": 3, "ys": [0, 1]}
    ),
    "flat-knots": lambda r: r["constraints"][0].update(
        fn={"variant": "piecewise_linear", "knots": [1, 2]}
    ),
    "nested-samples": lambda r: r["constraints"][0].update(
        fn={"variant": "tabulated", "xs": [0, 1], "ys": [[0], [1]]}
    ),
    "three-entry-knot": lambda r: r["constraints"][0].update(
        fn={"variant": "piecewise_linear", "knots": [[0, 1, 2]]}
    ),
    "bool-mix-weight": lambda r: r["constraints"][0].update(
        fn={**_MIX, "weight": True}
    ),
    "gated-mix-member": lambda r: r["constraints"][0].update(
        fn={
            "variant": "mix",
            "first": {"variant": "gated_identity", "lo": -1.0, "hi": 1.0},
            "second": {"variant": "identity"},
        }
    ),
    "dense-bool-weight": lambda r: r.update(weights=[[0, True], [True, 0]]),
    "dense-string-weight": lambda r: r.update(weights=[["0", "1.5"], ["1", 0]]),
    "row-not-a-list": lambda r: r.update(weights=[[0.0, 1.0], 3]),
    "infinite-mix-member": lambda r: r["constraints"][0].update(
        fn={
            "variant": "mix",
            "first": {"variant": "identity"},
            "second": {"variant": "affine", "k": -0.5, "m": -math.inf},
        }
    ),
    "columnar-system-key": columnar(lambda r: r.update(bogus=3)),
    "both-forms": columnar(lambda r: r.update(weights=[[0.0, 1.0], [1.0, 0.0]])),
    "both-forms-partial": columnar(lambda r: r.update(constraints=[])),
    "edges-key": columnar(lambda r: r["edges"].update(bogus=[])),
    "missing-column": columnar(lambda r: r["edges"].pop("weight")),
    "missing-functions": columnar(lambda r: r.pop("functions")),
    "column-not-a-list": columnar(lambda r: r["edges"].update(sender="01")),
    "functions-not-a-list": columnar(
        lambda r: r.update(functions={"variant": "identity"})
    ),
    "unequal-columns": columnar(lambda r: r["edges"]["weight"].append(1.0)),
    "bool-agents": columnar(lambda r: r.update(agents=True)),
    "float-agents": columnar(lambda r: r.update(agents=2.0)),
    "negative-agents": columnar(lambda r: r.update(agents=-1)),
    # np.asarray([True, 1]) is an int array: the type check runs first
    "bool-sender": set_column("sender", 1, True),
    "float-receiver": set_column("receiver", 0, 1.0),
    "string-sender": set_column("sender", 0, "0"),
    "bool-function-index": set_column("function", 0, False),
    "float-function-index": set_column("function", 1, 0.0),
    "sender-out-of-range": set_column("sender", 1, 2),
    "negative-receiver": set_column("receiver", 0, -1),
    "function-out-of-range": set_column("function", 0, 1),
    "negative-function-index": set_column("function", 0, -1),
    "self-loop": set_column("receiver", 0, 0),
    "repeated-pair": columnar(
        lambda r: r["edges"].update(sender=[0, 0], receiver=[1, 1])
    ),
    "zero-weight": set_column("weight", 0, 0.0),
    "negative-weight": set_column("weight", 1, -1.0),
    "nan-weight": set_column("weight", 0, float("nan")),
    "infinite-weight": set_column("weight", 1, math.inf),
    "bool-weight": set_column("weight", 0, True),
    "string-weight": set_column("weight", 0, "1.0"),
    "unused-function": columnar(
        lambda r: r["functions"].append({"variant": "identity"})
    ),
    "columnar-nan-parameter": columnar(
        lambda r: r["functions"][0].update(k=float("nan"))
    ),
    "columnar-fn-key": columnar(lambda r: r["functions"][0].update(bogus=1)),
    "columnar-bool-parameter": columnar(
        lambda r: r["functions"][0].update(m=False)
    ),
}


class TestSystemValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SYSTEMS))
    def test_rejected(self, case):
        record = edited(MALFORMED_SYSTEMS[case])
        with pytest.raises(ValidationError):
            system_from_dict(record)
        with pytest.raises(ValidationError):
            config_from_dict({"system": record, "x0": [0.0, 0.0]})


class TestColumnarFaults:
    @pytest.mark.parametrize("case", sorted(COLUMNAR_FAULTS))
    def test_message(self, case):
        edit, message = COLUMNAR_FAULTS[case]
        with pytest.raises(ValidationError) as err:
            system_from_dict(edited(edit))
        assert str(err.value) == message


def dense_record(system):
    """The former echo, a weight matrix plus one record per edge: the
    oracle for the dense form."""
    return {
        "weights": system.graph.weights.tolist(),
        "constraints": [
            {"sender": j, "receiver": i, "fn": fn.to_dict()}
            for (j, i), fn in sorted(system.constraints.items())
        ],
    }


def sharing(system):
    """Which edges share a function object: each edge maps to the first
    edge, in sorted order, that carries the same object."""
    first = {}
    return {
        key: first.setdefault(id(fn), key)
        for key, fn in sorted(system.constraints.items())
    }


def netgen_config(n=200):
    """The benchmark's seeded ring-plus-random network, as a config."""
    return {
        "system": load_netgen().wide_network(1, n),
        "x0": [3.0 * ((7 * i) % n) / n - 1.5 for i in range(n)],
        "integration": {"dt": 0.01, "t_final": 0.2},
        "seed": 1,
    }


README_CONFIG = {
    "system": {
        "weights": [[0.0, 1.0], [1.0, 0.0]],
        "constraints": [
            {
                "sender": 0,
                "receiver": 1,
                "fn": {"variant": "saturation", "lo": -1.0, "hi": 1.0},
            },
            {
                "sender": 1,
                "receiver": 0,
                "fn": {"variant": "affine", "k": -0.5, "m": 0.0},
            },
        ],
    },
    "x0": [3.0, -2.0],
    "integration": {"dt": 0.001, "t_final": 2.0, "method": "rk4"},
    "seed": 0,
    "analysis": {"classify": True, "equilibrium": False, "monitors": True},
    "output_dir": "results",
}


def dense_config(make):
    """A config maker's config as JSON data with a dense system record."""
    config = make()
    data = json.loads(json.dumps(config.to_dict()))
    data["system"] = dense_record(config.system)
    return data


ECHO_CONFIGS = {
    "readme": lambda: json.loads(json.dumps(README_CONFIG)),
    "int-and-float": lambda: dense_config(int_and_float_ring),
    "ring-plus-random": lambda: dense_config(ring_plus_random),
    "netgen-200": netgen_config,
}

ECHO_SYSTEMS = {
    **{
        f"catalog-{seed}": (lambda seed=seed: random_catalog_system(seed))
        for seed in range(12)
    },
    **{
        name: (lambda make=make: system_from_dict(make()["system"]))
        for name, make in ECHO_CONFIGS.items()
    },
}


class TestColumnarEcho:
    @pytest.mark.parametrize("name", sorted(ECHO_SYSTEMS))
    def test_both_forms_compile_alike(self, name):
        original = ECHO_SYSTEMS[name]()
        echo = system_to_dict(original)
        loaded = system_from_dict(json.loads(json.dumps(echo)))
        dense = system_from_dict(json.loads(json.dumps(dense_record(original))))
        for sys_ in (loaded, dense):
            assert sys_.graph.weights.tobytes() == original.graph.weights.tobytes()
            assert sys_.constraints == original.constraints
            assert sharing(sys_) == sharing(original)
        assert system_to_dict(loaded) == echo == system_to_dict(dense)

    def test_echo_layout(self):
        sys_ = random_catalog_system(3)
        echo = system_to_dict(sys_)
        edges = echo["edges"]
        keys = list(zip(edges["sender"], edges["receiver"]))
        assert echo["agents"] == sys_.n and keys == sorted(sys_.constraints)
        assert edges["weight"] == [sys_.graph.weights[i, j] for j, i in keys]
        # one entry per object, numbered in first-edge order
        assert sorted(set(edges["function"])) == list(range(len(echo["functions"])))
        firsts = [edges["function"].index(k) for k in range(len(echo["functions"]))]
        assert firsts == sorted(firsts)
        for key, k in zip(keys, edges["function"]):
            assert echo["functions"][k] == sys_.constraints[key].to_dict()

    def test_equal_records_in_the_table_share_one_object(self):
        record = json.loads(json.dumps(COLUMNAR_SYSTEM))
        record["functions"].append(dict(record["functions"][0]))
        record["edges"]["function"] = [0, 1]
        sys_ = system_from_dict(record)
        assert len({id(fn) for fn in sys_.constraints.values()}) == 1
        assert system_to_dict(sys_) == COLUMNAR_SYSTEM

    def test_numpy_integer_indices_accepted(self):
        record = json.loads(json.dumps(COLUMNAR_SYSTEM))
        record["agents"] = np.int64(2)
        record["edges"]["sender"] = [np.int32(0), np.int64(1)]
        record["edges"]["function"] = [np.uint8(0), 0]
        record["edges"]["weight"] = [np.float64(1.0), 1]
        got = system_from_dict(record)
        want = system_from_dict(CUSTOM_SYSTEM)
        assert got.constraints == want.constraints
        assert got.graph.weights.tobytes() == want.graph.weights.tobytes()

    def test_edgeless_system(self):
        record = {
            "agents": 3,
            "functions": [],
            "edges": {"sender": [], "receiver": [], "weight": [], "function": []},
        }
        sys_ = system_from_dict(record)
        assert sys_.n == 3 and not sys_.constraints
        assert system_to_dict(sys_) == record

    @pytest.mark.parametrize("mode", ["analyze", "equilibrium", "simulate"])
    @pytest.mark.parametrize("name", sorted(ECHO_CONFIGS))
    def test_echoed_config_reproduces_the_report(self, name, mode):
        data = ECHO_CONFIGS[name]()
        assert "weights" in data["system"]
        report, traj, _ = build_report(config_from_dict(data), mode=mode)
        text = render_report(report)
        echoed = json.loads(text)["config"]
        assert set(echoed["system"]) == {"agents", "functions", "edges"}
        again, traj_again, _ = build_report(config_from_dict(echoed), mode=mode)
        assert render_report(again) == text
        if mode == "simulate":
            assert traj_again.to_csv() == traj.to_csv()


def edgeless(agents):
    return {
        "agents": agents,
        "functions": [],
        "edges": {"sender": [], "receiver": [], "weight": [], "function": []},
    }


class TestGraphIsItsEdges:
    """A loaded system's graph is its edge columns; the ``n x n`` matrix is
    a view that no load or run builds."""

    @pytest.mark.parametrize("form", ["dense", "columnar"])
    def test_a_run_never_builds_the_matrix(self, form):
        data = netgen_config()
        if form == "columnar":
            data["system"] = system_to_dict(system_from_dict(data["system"]))
        config = config_from_dict(json.loads(json.dumps(data)))
        for mode in ("analyze", "equilibrium", "simulate"):
            build_report(config, mode=mode)
        assert "weights" not in config.system.graph.__dict__

    @pytest.mark.parametrize("n", [50, 200])
    def test_both_forms_load_identical_columns(self, n):
        dense = system_from_dict(netgen_config(n)["system"])
        echo = json.loads(json.dumps(system_to_dict(dense)))
        columnar = system_from_dict(echo)
        assert columnar.graph.n == dense.graph.n == n
        for name in ("senders", "receivers", "weight"):
            got, want = getattr(columnar.graph, name), getattr(dense.graph, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_a_million_edgeless_agents_load(self):
        assert system_from_dict(edgeless(10**6)).n == 10**6

    def test_more_agents_than_memory_holds_is_a_config_error(self, tmp_path, capsys):
        with pytest.raises(ValidationError, match="at most 3037000499"):
            system_from_dict(edgeless(10**15))
        path = write_config(
            tmp_path,
            {"system": edgeless(10**15), "x0": [], "integration": {"dt": 0.1, "t_final": 1}},
        )
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_arrays_memory_cannot_hold_are_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # an agent count under the pair-key limit whose graph arrays do not
        # fit: the allocation fails as numpy's would, without allocating
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(Digraph, "from_edges", out_of_memory)
        with pytest.raises(ValidationError, match="Unable to allocate"):
            system_from_dict(edgeless(1000))
        path = write_config(
            tmp_path,
            {"system": edgeless(1000), "x0": [], "integration": {"dt": 0.1, "t_final": 1}},
        )
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 22.4 GiB for an array\n"


BAD_FIELDS = {
    "string-record-stride": {"integration": {"record_stride": "5"}},
    "fractional-record-stride": {"integration": {"record_stride": 2.5}},
    "bool-record-stride": {"integration": {"record_stride": True}},
    "bool-dt": {"integration": {"dt": True}},
    "bool-t-final": {"integration": {"t_final": False}},
    "bool-seed": {"seed": True},
    "float-seed": {"seed": 3.0},
    "nan-dt": {"integration": {"dt": float("nan")}},
    "infinite-dt": {"integration": {"dt": math.inf}},
    "infinite-t-final": {"integration": {"t_final": math.inf}},
    "string-dt": {"integration": {"dt": "0.01"}},
    "string-analysis-flag": {"analysis": {"equilibrium": "false"}},
    "integer-analysis-flag": {"analysis": {"classify": 1}},
    "null-analysis-flag": {"analysis": {"monitors": None}},
    "numeric-output-dir": {"output_dir": 5},
    "list-scenario": {"scenario": ["ex1"]},
    "string-and-bool-x0-entries": {"x0": ["1.5", True, 0, 0, 0]},
    "bool-x0-entry": {"x0": [1.5, True, 0.0, 0.0, 0.0]},
    "string-x0": {"x0": "12345"},
    "huge-integer-x0-entry": {"x0": [10**400, 0, 0, 0, 0]},
}


class TestConfigFields:
    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_bad_field_exits_two(self, tmp_path, capsys, case):
        data = {"scenario": "ex1", "integration": {"dt": 0.01, "t_final": 0.1}}
        for key, value in BAD_FIELDS[case].items():
            data[key] = {**data[key], **value} if key == "integration" else value
        path = write_config(tmp_path, data)
        with pytest.raises(ValidationError):
            load_config(path)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-final", "inf")])
    def test_bad_override_exits_two(self, capsys, flag, value):
        assert main(["scenario", "ex1", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integer_fields_accepted(self):
        config = config_from_dict(
            {
                "scenario": "ex1",
                "integration": {"dt": 1, "t_final": 2, "record_stride": 5},
                "analysis": {"equilibrium": True},
                "output_dir": "out",
            }
        )
        assert config.integration.dt == 1.0 and config.integration.record_stride == 5
        assert config.equilibrium is True and config.output_dir == "out"

    def test_x0_accepts_integers_and_numpy_numbers(self):
        x0 = [1, 2.5, np.float32(0.5), np.int64(-3), np.float64(0.25)]
        config = config_from_dict({"scenario": "ex1", "x0": x0})
        assert config.x0 == (1.0, 2.5, 0.5, -3.0, 0.25)
        assert all(type(v) is float for v in config.x0)
        # the seed and the integration horizon follow the same rule
        data = {
            "scenario": "ex1",
            "seed": np.int64(3),
            "integration": {"dt": np.int64(1), "t_final": np.float32(2.5)},
        }
        config = config_from_dict(data)
        assert config.seed == 3 and type(config.seed) is int
        spec = config.integration
        assert (spec.dt, spec.t_final) == (1.0, 2.5)
        assert type(spec.dt) is float and type(spec.t_final) is float


SCENARIO_NAMES = [s.name for s in builtin_scenarios()]


class TestRenderReport:
    @pytest.mark.parametrize("mode", ["simulate", "analyze"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_report_content_unchanged(self, name, mode):
        config = config_from_dict(
            {"scenario": name, "integration": {"dt": 1e-3, "t_final": 0.25}}
        )
        report, _, _ = build_report(config, mode=mode)
        assert canonical(render_report(report)) == canonical(reference_text(report))

    @pytest.mark.parametrize(
        "make, mode",
        [
            pytest.param(ring_plus_random, "analyze", id="analyze"),
            pytest.param(ring_plus_random, "equilibrium", id="equilibrium"),
            pytest.param(int_and_float_ring, "analyze", id="int-and-float-analyze"),
            pytest.param(
                int_and_float_ring, "equilibrium", id="int-and-float-equilibrium"
            ),
        ],
    )
    def test_custom_report_content_unchanged(self, make, mode):
        report, _, _ = build_report(make(), mode=mode)
        assert canonical(render_report(report)) == canonical(reference_text(report))

    def test_numpy_values_and_frozensets(self):
        values = {
            "int": np.int64(3),
            "float": np.float64(0.1),
            "float32": np.float32(0.5),
            "array": np.arange(3),
            "matrix": np.array([[1.0, 2.5], [np.inf, -0.0]]),
            "set": frozenset({3, 1, 2}),
        }
        report = dict(values, deep={"a": {"b": {"c": dict(values)}}})
        text = render_report(report)
        assert canonical(text) == canonical(reference_text(report))
        assert json.loads(text)["deep"]["a"]["b"]["c"]["set"] == [1, 2, 3]
        # the oracle rejected numpy bools; they now render as JSON booleans
        flags = {"flag": np.bool_(True), "deep": {"a": {"b": {"c": [np.bool_(False)]}}}}
        assert canonical(render_report(flags)) == canonical(
            '{"flag": true, "deep": {"a": {"b": {"c": [false]}}}}'
        )

    def test_edge_column_on_one_line(self):
        config = ring_plus_random()
        report, _, _ = build_report(config, mode="analyze")
        lines = render_report(report).splitlines()
        echo = system_to_dict(config.system)
        # depth 4: report > config > system > edges > column
        for name in ("function", "receiver", "sender"):
            column = json.dumps(echo["edges"][name])
            assert " " * 8 + f'"{name}": {column},' in lines
        weights = " " * 8 + '"weight": ' + json.dumps(echo["edges"]["weight"])
        assert weights in lines
        # and report > config > system > functions > record
        fn = json.dumps(echo["functions"][1], sort_keys=True)
        assert " " * 8 + fn + "," in lines

    def test_rendering_is_deterministic(self):
        report, _, _ = build_report(ring_plus_random(), mode="analyze")
        assert render_report(report).encode() == render_report(report).encode()


def former_echo(system):
    """The echo as it was built from the weight matrix, the oracle for the
    stored table: the edges are the nonzero entries of the transposed
    matrix, and the functions are grouped by object identity."""
    weights_t = system.graph.weights.T
    senders, receivers = np.nonzero(weights_t)
    fns = [system.constraints[key] for key in zip(senders.tolist(), receivers.tolist())]
    ids = np.fromiter(map(id, fns), dtype=np.uint64, count=len(fns))
    _, first, obj_of_edge = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return {
        "agents": system.n,
        "functions": [fns[e].to_dict() for e in first[order].tolist()],
        "edges": {
            "sender": senders.tolist(),
            "receiver": receivers.tolist(),
            "weight": weights_t[senders, receivers].tolist(),
            "function": rank[obj_of_edge].tolist(),
        },
    }


def complete_system(n, fns):
    """A complete digraph whose edges, in sorted ``(sender, receiver)``
    order, take the functions of ``fns`` in turn; the map lists them in
    reverse."""
    w = 1.0 + np.add.outer(np.arange(n), 0.5 * np.arange(n)) / n
    np.fill_diagonal(w, 0.0)
    g = build_digraph(w)
    keys = sorted(g.edges())
    return System(g, {key: fns[k % len(fns)] for k, key in reversed(list(enumerate(keys)))})


class TestEchoReadsTheTable:
    @pytest.mark.parametrize("name", sorted(ECHO_SYSTEMS) + ["netgen-50"])
    def test_matches_the_former_echo(self, name):
        make = ECHO_SYSTEMS.get(name) or (
            lambda: system_from_dict(netgen_config(50)["system"])
        )
        assert_former_echo(make())

    def test_scenarios_match_the_former_echo(self):
        for scenario in builtin_scenarios():
            assert_former_echo(scenario.system)

    def test_one_object_on_many_edges(self):
        fn = Affine(-0.5)
        echo = assert_former_echo(complete_system(6, [fn]))
        assert echo["functions"] == [fn.to_dict()]
        assert echo["edges"]["function"] == [0] * 30

    def test_identity_not_value_decides_the_functions(self):
        a, b, c = Affine(0.5), Affine(0.5), Affine(0.5)
        assert a == b == c and a is not b
        sys_ = complete_system(5, [c, b, a, b])
        echo = assert_former_echo(sys_)
        assert len(echo["functions"]) == 3
        assert echo["edges"]["function"][:5] == [0, 1, 2, 1, 0]
        assert [id(fn) for fn in sys_._edges[4]] == [id(c), id(b), id(a)]


def assert_former_echo(system):
    got, want = system_to_dict(system), former_echo(system)
    assert got == want and json.dumps(got) == json.dumps(want)
    return got


def per_scalar_render(report):
    """The renderer as it was, one encoder call per scalar of an indented
    list: the oracle for the bytes of :func:`render_report`."""
    encoder = json.JSONEncoder(sort_keys=True, default=_encode_default)

    def render(obj, depth, out):
        if depth > 3 or not isinstance(obj, (dict, list, tuple)) or not obj:
            out.append(encoder.encode(obj))
            return
        if isinstance(obj, dict):
            items = [(encoder.encode(str(k)) + ": ", obj[k]) for k in sorted(obj)]
            brackets = "{}"
        else:
            items = [("", v) for v in obj]
            brackets = "[]"
        pad = "\n" + "  " * (depth + 1)
        out.append(brackets[0])
        for i, (prefix, value) in enumerate(items):
            out.append(("," if i else "") + pad + prefix)
            render(value, depth + 1, out)
        out.append("\n" + "  " * depth + brackets[1])

    out = []
    render(report, 0, out)
    return "".join(out) + "\n"


SCALARS = [
    1, -0.0, 2.5, 1e300, math.inf, -math.inf, math.nan, True, None, "a\u00e9\"\n",
    np.int64(3), np.int32(-7), np.uint8(200), np.float64(0.1), np.float32(0.5),
    np.bool_(False), 2**70,
]
SYNTHETIC_REPORTS = {
    "scalars": {"x": SCALARS, "deep": {"a": {"b": SCALARS}}},
    "depth-3-and-4": {
        "a": {"b": {"c": [1.5, 2, None], "d": [[1, 2], [3.5]]}},
        "e": [[[1, 2], [3]], [[4.0]]],
    },
    "empty": {"a": [], "b": {"c": [], "d": {"e": [], "f": [[]]}}, "g": [[], [1]]},
    "tuples": {"a": (1, 2.0), "b": [(1, 2), (3,)]},
    "arrays": {
        "a": [np.arange(3), np.arange(2.0)],
        "b": np.array([[1.0, 2.5], [np.inf, -0.0]]),
        "c": [1, np.array(2.0), 3],
        "d": {"e": [np.float64(1.0), np.zeros(0)]},
    },
    "sets": {"a": [frozenset({3, 1}), frozenset()], "b": [1, frozenset({2})]},
    "mixed": {"a": [1, [2, 3], {"k": [4]}, "s"], "b": [{"x": 1.0}, 2]},
}


class TestRenderBytes:
    """An indented list of scalars takes one encoder call; the bytes are
    those of one call per scalar."""

    @pytest.mark.parametrize("mode", ["analyze", "equilibrium", "simulate"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_reports(self, name, mode):
        config = config_from_dict(
            {"scenario": name, "integration": {"dt": 1e-3, "t_final": 0.25}}
        )
        report, _, _ = build_report(config, mode=mode)
        assert render_report(report) == per_scalar_render(report)

    @pytest.mark.parametrize("mode", ["analyze", "equilibrium", "simulate"])
    @pytest.mark.parametrize("n", [50, 200])
    def test_netgen_reports(self, n, mode):
        report, _, _ = build_report(config_from_dict(netgen_config(n)), mode=mode)
        assert render_report(report) == per_scalar_render(report)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_REPORTS))
    def test_synthetic_reports(self, name):
        report = SYNTHETIC_REPORTS[name]
        assert render_report(report) == per_scalar_render(report)

    def test_arrays_and_sets_in_a_list_stay_one_line_each(self):
        text = render_report({"a": [np.arange(3), frozenset({2, 1})]})
        assert text == '{\n  "a": [\n    [0, 1, 2],\n    [1, 2]\n  ]\n}\n'


def strict_loads(text):
    """``json.loads`` that refuses NaN and the infinities, as RFC 8259 does."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


class TestReportsAreStrictJson:
    @pytest.mark.parametrize("mode", ["analyze", "simulate"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_reports(self, name, mode):
        config = config_from_dict(
            {"scenario": name, "integration": {"dt": 1e-3, "t_final": 0.05}}
        )
        report, _, _ = build_report(config, mode=mode)
        strict_loads(render_report(report))

    def test_vacuous_chord_slope_condition_has_no_witness(self):
        report, _, _ = build_report(
            config_from_dict({"scenario": "discarded"}), mode="analyze"
        )
        entry = strict_loads(render_report(report))["verdict"]["conditions"][
            "strict_quotient_off_fixed_set"
        ]
        assert entry["status"] == "pass" and entry["witness"] is None
        assert entry["note"].startswith("vacuous")


    @pytest.mark.parametrize("seed", [None] + list(range(8)))
    def test_custom_system_analyze_reports(self, tmp_path, seed):
        # seed None: the 2-agent identity ring, whose zone is the real line
        if seed is None:
            system = {**COLUMNAR_SYSTEM, "functions": [{"variant": "identity"}]}
        else:
            system = system_to_dict(random_catalog_system(seed))
        config = config_from_dict(
            {
                "system": system,
                "x0": [0.5 * k for k in range(system["agents"])],
                "integration": {"dt": 0.01, "t_final": 0.1},
            }
        )
        assert run(config, mode="analyze", out_dir=tmp_path) < 2
        report = strict_loads((tmp_path / "report.json").read_text())
        if seed is None:
            assert report["verdict"]["consensus_zone"] == [[None, None]]

    def test_failed_solve_records_nulls(self, monkeypatch):
        def unconverged(system, x0):
            raise UnconvergedError("no equilibrium", best=None, residual=math.inf)

        monkeypatch.setattr(app, "solve_equilibrium", unconverged)
        config = config_from_dict({"scenario": "ex2"})
        report, _, ok = build_report(config, mode="equilibrium")
        record = strict_loads(render_report(report))["equilibrium"]
        assert record == {"error": "no equilibrium", "best": None, "residual": None}
        assert not ok and report["expectations_met"] is False


class TestRun:
    def test_failed_equilibrium_leaves_its_report(self, tmp_path, capsys):
        config = config_from_dict(
            {
                "system": {
                    **COLUMNAR_SYSTEM,
                    "functions": [{"variant": "affine", "k": 2, "m": 0}],
                },
                "x0": [3, -2],
                "integration": {"dt": 0.01, "t_final": 1.0},
            }
        )
        assert run(config, mode="equilibrium", out_dir=tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no equilibrium within tol 1e-10; best residual")
        record = strict_loads((tmp_path / "out" / "report.json").read_text())[
            "equilibrium"
        ]
        assert record["error"] == err[len("error: ") :].rstrip("\n")
        assert len(record["best"]) == 2 and record["residual"] > 1e-10

    def test_equilibrium_without_in_edges_leaves_its_report(self, tmp_path, capsys):
        # agent 2 sends to agent 0 but receives from no one
        system = {
            "agents": 3,
            "functions": [{"variant": "identity"}],
            "edges": {
                "sender": [0, 1, 2],
                "receiver": [1, 0, 0],
                "weight": [1.0, 1.0, 1.0],
                "function": [0, 0, 0],
            },
        }
        config = config_from_dict(
            {
                "system": system,
                "x0": [1.0, 2.0, 3.0],
                "integration": {"dt": 0.01, "t_final": 1.0},
            }
        )
        assert run(config, mode="equilibrium", out_dir=tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: agents without in-edges: [2]\n"
        report = strict_loads((tmp_path / "out" / "report.json").read_text())
        assert report["equilibrium"] == {"error": "agents without in-edges: [2]"}

    def test_run_writes_artifacts(self, tmp_path):
        config = config_from_dict({"scenario": "necessity-2agent"})
        code = run(config, out_dir=tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["expectations_met"] is True
        csv = (tmp_path / "out" / "trajectory.csv").read_text()
        assert csv.startswith("t,x_1,x_2")

    def test_run_is_deterministic(self, tmp_path):
        config = config_from_dict({"scenario": "necessity-2agent", "seed": 3})
        run(config, out_dir=tmp_path / "a")
        run(config, out_dir=tmp_path / "b")
        for name in ("report.json", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_unmet_expectation_exits_one(self, tmp_path):
        # necessity scenario with the consensus check forced via a custom
        # system would be involved; instead shorten bipartite so the expected
        # consensus failure still holds (exit 0), then flip by comparing a
        # plain consensus scenario truncated to t=0 (spread stays large)
        config = config_from_dict(
            {"scenario": "ex2", "integration": {"dt": 1e-3, "t_final": 0.01}}
        )
        assert run(config, out_dir=tmp_path / "o") == 1

    def test_divergence_keeps_artifacts(self, tmp_path, capsys):
        ring = {
            "weights": [[0.0, 1.0], [1.0, 0.0]],
            "constraints": [
                {"sender": 0, "receiver": 1, "fn": {"variant": "affine", "k": -3.0}},
                {"sender": 1, "receiver": 0, "fn": {"variant": "affine", "k": -3.0}},
            ],
        }
        config = config_from_dict(
            {
                "system": ring,
                "x0": [1.0, -1.0],
                "integration": {"dt": 1e-2, "t_final": 30.0},
            }
        )
        assert run(config, out_dir=tmp_path / "out") == 2
        assert "divergence detected" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        div = report["divergence"]
        assert set(div) == {"t_detected", "t_last_recorded", "worst_agent"}
        assert 0.0 < div["t_last_recorded"] < div["t_detected"] < 30.0
        assert div["worst_agent"] in (0, 1)
        assert "final_state" not in report and report["expectations_met"] is False
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("t,x_1,x_2")
        assert float(rows[-1].split(",")[0]) == div["t_last_recorded"]

    def test_report_records_integrated_horizon(self):
        config = config_from_dict(
            {
                "system": CUSTOM_SYSTEM,
                "x0": [1.0, -1.0],
                "integration": {"dt": 0.003, "t_final": 0.01},
            }
        )
        report, traj, _ = build_report(config)
        assert report["t_end"] == 3 * 0.003 == traj.times[-1]
        assert report["config"]["integration"]["t_final"] == 0.01

    def test_list_scenarios(self):
        listed = list_scenarios()
        assert [s["name"] for s in listed][:2] == ["ex1", "ex2"]
        assert all({"name", "agents", "expected_class"} <= set(s) for s in listed)


class TestWideNetwork:
    """The benchmark's n=200 network scatters by receiver slots, not by the
    dense block, and keeps the outcomes it had on the block."""

    def test_outcomes(self):
        config = config_from_dict(netgen_config())
        assert config.system._block is None
        verdict = build_report(config, mode="analyze")[0]["verdict"]
        assert verdict["classification"] == "Consensus"
        assert verdict["conditions"]["admissible_rays"]["status"] == "pass"
        eq = build_report(config, mode="equilibrium")[0]["equilibrium"]
        assert (eq["method"], eq["iterations"]) == ("picard", 24)

    @pytest.mark.parametrize("mode", ["analyze", "equilibrium", "simulate"])
    def test_reruns_are_byte_identical(self, tmp_path, mode):
        config = config_from_dict(netgen_config())
        for tag in ("a", "b"):
            assert run(config, mode=mode, out_dir=tmp_path / tag) < 2
        names = ["report.json"] + ["trajectory.csv"] * (mode == "simulate")
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert any(s["name"] == "ex4" for s in out)

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["scenario", "ex99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario 'ex99'; known scenarios: ex1, ")

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_run_with_overrides(self, tmp_path):
        out = tmp_path / "artifacts"
        code = main(
            [
                "scenario",
                "necessity-2agent",
                "--t-final",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "trajectory.csv").exists()

    def test_analyze_from_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "ex3"}), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0

    @pytest.mark.parametrize("mode", ["simulate", "analyze", "equilibrium"])
    @pytest.mark.parametrize("x0", [[1.0, 2.0], [0.5] * 6])
    def test_scenario_x0_of_wrong_length_exits_two(self, tmp_path, capsys, mode, x0):
        # ex2 has five agents
        path = write_config(tmp_path, {"scenario": "ex2", "x0": x0})
        assert main([mode, str(path), "--out", str(tmp_path / "out")]) == 2
        want = f"error: x0 has {len(x0)} entries for the 5-agent scenario 'ex2'\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "out").exists()
