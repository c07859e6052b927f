import json
import math
import random

import numpy as np
import pytest

from tcconsensus import Affine, Identity, build_digraph, System
from tcconsensus.app import (
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
from tcconsensus.errors import ParseError, ValidationError
from tcconsensus.scenarios import builtin_scenarios

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
        for rec in echo["constraints"]:
            own = sys_.constraints[(rec["sender"], rec["receiver"])].to_dict()
            assert json.dumps(rec["fn"]) == json.dumps(own)
        assert {json.dumps(rec["fn"]) for rec in echo["constraints"]} == {
            json.dumps({"variant": "saturation", "lo": -1, "hi": 1}),
            json.dumps({"variant": "saturation", "lo": -1.0, "hi": 1.0}),
        }

    def test_numpy_integer_indices_accepted(self):
        record = json.loads(json.dumps(CUSTOM_SYSTEM))
        record["constraints"][0]["sender"] = np.int64(0)
        record["constraints"][0]["receiver"] = np.int32(1)
        assert system_from_dict(record).constraints == system_from_dict(
            CUSTOM_SYSTEM
        ).constraints


def edited(edit):
    record = json.loads(json.dumps(CUSTOM_SYSTEM))
    edit(record)
    return record


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
    "gated-mix-member": lambda r: r["constraints"][0].update(
        fn={
            "variant": "mix",
            "first": {"variant": "gated_identity", "lo": -1.0, "hi": 1.0},
            "second": {"variant": "identity"},
        }
    ),
    "infinite-mix-member": lambda r: r["constraints"][0].update(
        fn={
            "variant": "mix",
            "first": {"variant": "identity"},
            "second": {"variant": "affine", "k": -0.5, "m": -math.inf},
        }
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

    def test_weight_row_on_one_line(self):
        config = ring_plus_random()
        report, _, _ = build_report(config, mode="analyze")
        row = config.system.graph.weights[5].tolist()
        # depth 4: report > config > system > weights > row
        assert " " * 8 + json.dumps(row) + "," in render_report(report).splitlines()

    def test_rendering_is_deterministic(self):
        report, _, _ = build_report(ring_plus_random(), mode="analyze")
        assert render_report(report).encode() == render_report(report).encode()


class TestRun:
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
