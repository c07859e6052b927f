"""Config ingestion and run orchestration: load a JSON run configuration,
execute simulate/analyze/equilibrium pipelines, and emit deterministic CSV
trajectories and JSON reports.

A custom system is read as a dense weight matrix or as a columnar edge
table (:func:`system_from_dict`); only the dense record's own checks read
an ``n x n`` matrix, and a columnar record costs ``O(n + E)``. Reports
echo their config with the system always in the columnar form
(:func:`system_to_dict`); an echoed config reproduces its report.

Exit code convention: 0 when every expectation attached to the run is met
(or there are none), 1 when an expectation fails, 2 on configuration or
runtime errors.
"""

from __future__ import annotations

import dataclasses
import json
import marshal
import math
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import constraints as _constraints
from .analysis import classify_system
from .dynamics import IntegrationSpec, System, attach_channels, integrate, monitor_trajectory
from .dynamics import _edge_order
from .equilibrium import solve_equilibrium
from .errors import (
    ConfigError,
    NonFiniteStateError,
    ParseError,
    TCConsensusError,
    UnconvergedError,
    ValidationError,
)
from .graph import INTEGER, NUMBER, Digraph, build_digraph, check_numbers
from .scenarios import Scenario, builtin_scenarios, scenario_by_name

_TOP_LEVEL_KEYS = {
    "scenario",
    "system",
    "x0",
    "integration",
    "seed",
    "analysis",
    "output_dir",
}
_ANALYSIS_DEFAULTS = (("classify", True), ("equilibrium", False), ("monitors", True))
_ANALYSIS_KEYS = {key for key, _ in _ANALYSIS_DEFAULTS}
_INTEGRATION_KEYS = {f.name for f in dataclasses.fields(IntegrationSpec)}
_DENSE_KEYS = {"weights", "constraints"}
_COLUMNAR_KEYS = {"agents", "functions", "edges"}
_EDGE_COLUMNS = ("sender", "receiver", "weight", "function")
# the largest n with n * n - 1, the largest pair key, in int64
_MAX_AGENTS = math.isqrt(2**63)
_CONSTRAINT_KEYS = {"sender", "receiver", "fn"}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A validated run request: exactly one of a built-in scenario name or a
    custom system (see :func:`system_from_dict` for its two record forms)."""

    scenario: str | None = None
    system: System | None = None
    x0: tuple[float, ...] | None = None
    integration: IntegrationSpec | None = None
    seed: int = 0
    classify: bool = True
    equilibrium: bool = False
    monitors: bool = True
    output_dir: str | None = None

    def __post_init__(self):
        if (self.scenario is None) == (self.system is None):
            raise ValidationError(
                "exactly one of 'scenario' and 'system' must be present"
            )
        if self.system is not None and self.x0 is None:
            raise ValidationError("a custom system requires an explicit 'x0'")
        if self.x0 is not None and self.system is not None:
            if len(self.x0) != self.system.n:
                raise ValidationError(
                    f"x0 has {len(self.x0)} entries for a {self.system.n}-agent system"
                )

    def to_dict(self) -> dict:
        out: dict = {"seed": self.seed}
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.system is not None:
            out["system"] = system_to_dict(self.system)
        if self.x0 is not None:
            out["x0"] = list(self.x0)
        if self.integration is not None:
            out["integration"] = dataclasses.asdict(self.integration)
        out["analysis"] = {key: getattr(self, key) for key, _ in _ANALYSIS_DEFAULTS}
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def system_to_dict(system: System) -> dict:
    """The system as a columnar JSON record: ``agents``, a ``functions``
    table and four parallel ``edges`` columns in sorted ``(sender,
    receiver)`` order. Each distinct function object is serialized once, in
    first-edge order, and each edge's ``function`` is its index in that
    table, so the record is O(E), not n x n. The record is the system's
    graph and function column, read back as they are stored (see
    :class:`System`)."""
    graph = system.graph
    function, fns = system._edges
    return {
        "agents": system.n,
        "functions": [fn.to_dict() for fn in fns],
        "edges": {
            "sender": graph.senders.tolist(),
            "receiver": graph.receivers.tolist(),
            "weight": graph.weight.tolist(),
            "function": function.tolist(),
        },
    }


def _check_keys(record, allowed: set[str], what: str) -> None:
    if not isinstance(record, dict):
        raise ValidationError(f"'{what}' must be an object")
    unknown = set(record) - allowed
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown)}")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"'{what}' must be a list")
    return value


def _column(values: list, name: str, kinds: tuple) -> np.ndarray:
    # np.asarray would read True as 1 and 0.0 as 0: check the types first
    check_numbers(values, name, kinds, ValidationError)
    try:
        return np.array(values, dtype=np.int64 if kinds is INTEGER else np.float64)
    except OverflowError as err:  # an integer beyond the dtype's range
        raise ValidationError(f"{name} out of range: {err}") from err


def _load_fns(records: list) -> tuple[list[_constraints.ConstraintFn], np.ndarray]:
    """Load ``fn`` records as a list of objects, one per distinct record as
    written, each parsed once, in first-use order, and the index of each
    record's object in that list, as an integer array. Two records share an
    object if and only if their ``repr()`` strings are equal.

    The memo key is the record's marshal (format 2) bytes, which for the
    types JSON produces are equal exactly when the ``repr`` strings are
    (types, float bits and key order included; format 3 would mark
    interned strings). A key whose record does not load back equal from it
    exposes another type, and then every record is keyed by ``repr``."""
    try:
        keys = list(map(marshal.dumps, records, repeat(2)))
        # distinct keys in first-use order, each with its last record
        distinct = dict(zip(keys, records))
        exact = all(map(_loads_back, distinct.keys(), distinct.values()))
    except ValueError:  # a type marshal cannot write
        exact = False
    if not exact:
        keys = list(map(repr, records))
        distinct = dict(zip(keys, records))
    objects = list(map(_constraints.from_dict, distinct.values()))
    position = dict(zip(distinct, range(len(distinct))))
    return objects, np.fromiter(map(position.__getitem__, keys), np.intp, len(keys))


def _loads_back(key: bytes, record) -> bool:
    try:
        return bool(marshal.loads(key) == record)
    except ValueError:  # an array compared elementwise
        return False


def _agent_indices(values: list) -> list[int]:
    if check_numbers(values, "agent index", INTEGER, ValidationError) <= {int}:
        return values
    return list(map(int, values))


def _dense_system(record: dict) -> System:
    """Compile the dense form: the ``constraints`` entries' types, keys and
    indices are checked over whole columns (a failed check names the first
    bad entry), and their ``(sender, receiver)`` pairs must be the
    matrix's edges, each once, as a constraint map's keys must."""
    rows = _list(record["weights"], "weights")
    if not all(map(isinstance, rows, repeat(list))):
        for row in rows:
            _list(row, "weights row")
    graph = build_digraph(rows)
    entries = _list(record["constraints"], "constraints")
    if not (
        all(map(isinstance, entries, repeat(dict)))
        and all(map(_CONSTRAINT_KEYS.issuperset, entries))
    ):
        for entry in entries:
            _check_keys(entry, _CONSTRAINT_KEYS, "constraint")
    senders, receivers, fns = (
        list(map(itemgetter(name), entries)) for name in ("sender", "receiver", "fn")
    )
    senders, receivers = _agent_indices(senders), _agent_indices(receivers)
    objects, index = _load_fns(fns)
    order = _edge_order(graph, zip(senders, receivers), (senders, receivers))
    return System._from_table(graph, index[order], objects, order)


def _columnar_system(record: dict) -> System:
    """Compile the columnar form: the ``edges`` columns, checked as whole
    arrays and sorted into the graph's edges, with each ``function`` index
    mapped to its loaded object."""
    n = record["agents"]
    check_numbers([n], "'agents'", INTEGER, ValidationError)
    if n < 1:
        raise ValidationError(f"'agents' must be a positive integer, got {n!r}")
    if n > _MAX_AGENTS:
        raise ValidationError(
            f"'agents' must be at most {_MAX_AGENTS}, so that every pair key "
            f"sender * agents + receiver fits in int64, got {n!r}"
        )
    objects, fn_index = _load_fns(_list(record["functions"], "functions"))
    edges = record["edges"]
    _check_keys(edges, set(_EDGE_COLUMNS), "edges")
    lengths = {name: len(_list(edges[name], name)) for name in _EDGE_COLUMNS}
    if len(set(lengths.values())) > 1:
        raise ValidationError(f"edge columns must have equal lengths, got {lengths}")
    senders, receivers, index = (
        _column(edges[name], name, INTEGER)
        for name in ("sender", "receiver", "function")
    )
    weights = _column(edges["weight"], "weight", NUMBER)
    for name, column, bound in (
        ("sender", senders, n),
        ("receiver", receivers, n),
        ("function", index, len(fn_index)),
    ):
        bad = column[(column < 0) | (column >= bound)]
        if bad.size:
            raise ValidationError(f"{name} {bad[0]} is out of range [0, {bound})")
    loops = senders[senders == receivers]
    if loops.size:
        raise ValidationError(f"self-loop on agent {loops[0]}")
    graph, order = Digraph.from_edges(n, senders, receivers, weights)
    senders, receivers = graph.senders, graph.receivers
    repeated = (senders[1:] == senders[:-1]) & (receivers[1:] == receivers[:-1])
    if repeated.any():
        k = repeated.argmax()
        raise ValidationError(f"repeated edge {(int(senders[k]), int(receivers[k]))}")
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise ValidationError("edge weights must be finite and positive")
    unused = np.flatnonzero(np.bincount(index, minlength=len(fn_index)) == 0)
    if unused.size:
        raise ValidationError(f"function {unused[0]} is used by no edge")
    return System._from_table(graph, fn_index[index[order]], objects, order)


def system_from_dict(record: dict) -> System:
    """Validate a system record and compile it into a :class:`System`.

    The record is dense (``weights`` plus ``constraints``) or columnar (as
    :func:`system_to_dict` writes it), never both; the README's "JSON
    config" section gives both forms and what each rejects. The two forms
    compile to the same graph, function column and object sharing: ``fn``
    records equal as written load as one object (:func:`_load_fns`). Every
    rejection is a ``ValidationError``, also a system too large for memory
    and an ``agents`` count above 3037000499, whose pair keys ``sender *
    agents + receiver`` would not fit in int64.
    """
    if not isinstance(record, dict):
        raise ValidationError("'system' must be an object")
    columnar = not _COLUMNAR_KEYS.isdisjoint(record)
    if columnar and not _DENSE_KEYS.isdisjoint(record):
        raise ValidationError(
            "a system record is either dense ('weights', 'constraints') or "
            "columnar ('agents', 'functions', 'edges'), not both"
        )
    _check_keys(record, _COLUMNAR_KEYS if columnar else _DENSE_KEYS, "system")
    try:
        return _columnar_system(record) if columnar else _dense_system(record)
    except KeyError as err:
        raise ValidationError(f"system record missing field {err}") from err
    # MemoryError: an ``agents`` count whose arrays memory cannot hold
    except (TypeError, ValueError, OverflowError, MemoryError) as err:
        raise ValidationError(str(err)) from err


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")

    system = None
    if "system" in data:
        system = system_from_dict(data["system"])

    integration = None
    if "integration" in data:
        rec = data["integration"]
        _check_keys(rec, _INTEGRATION_KEYS, "integration")
        if "dt" not in rec or "t_final" not in rec:
            raise ValidationError("'integration' requires 'dt' and 't_final'")
        try:
            integration = IntegrationSpec(**rec)
        except (ValueError, OverflowError) as err:
            raise ValidationError(str(err)) from err

    analysis = data.get("analysis", {})
    _check_keys(analysis, _ANALYSIS_KEYS, "analysis")
    flags = {key: analysis.get(key, default) for key, default in _ANALYSIS_DEFAULTS}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ValidationError(
                f"analysis {key} must be true or false, got {value!r}"
            )

    scenario = data.get("scenario")
    if scenario is not None and not isinstance(scenario, str):
        raise ValidationError(f"scenario must be a string, got {scenario!r}")

    x0 = data.get("x0")
    if x0 is not None:
        x0 = tuple(_column(_list(x0, "x0"), "x0 entry", NUMBER).tolist())
        if not all(math.isfinite(v) for v in x0):
            raise ValidationError("x0 must be finite")

    seed = data.get("seed", 0)
    check_numbers([seed], "seed", INTEGER, ValidationError)

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ValidationError(f"output_dir must be a string, got {output_dir!r}")

    return RunConfig(
        scenario=scenario,
        system=system,
        x0=x0,
        integration=integration,
        seed=int(seed),
        output_dir=output_dir,
        **flags,
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# run pipeline


def _resolve(config: RunConfig) -> tuple[System, Scenario | None, IntegrationSpec, np.ndarray]:
    if config.scenario is not None:
        try:
            scn = scenario_by_name(config.scenario)
        except KeyError as err:
            raise ConfigError(err.args[0]) from err
        spec = config.integration or scn.integration
        if config.x0 is not None:
            if len(config.x0) != scn.system.n:
                raise ValidationError(
                    f"x0 has {len(config.x0)} entries for the "
                    f"{scn.system.n}-agent scenario {scn.name!r}"
                )
            x0 = np.asarray(config.x0, dtype=np.float64)
        else:
            x0 = scn.sample_x0(config.seed)[0]
        return scn.system, scn, spec, x0
    spec = config.integration
    if spec is None:
        raise ValidationError("a custom system requires an 'integration' section")
    return config.system, None, spec, np.asarray(config.x0, dtype=np.float64)


def build_report(config: RunConfig, mode: str = "simulate"):
    """Execute the pipeline for ``config`` and return
    ``(report_dict, trajectory_or_None, expectations_met)``.

    ``mode`` is one of ``simulate`` (integrate + monitors + analysis),
    ``analyze`` (no integration), ``equilibrium`` (solve only).

    A simulation that diverges returns its partial trajectory and a report
    whose ``divergence`` record holds the detection time, the last recorded
    time and the (0-based) agent with the largest ``|x|`` at that time, in
    place of the final state and the monitor outcomes. A failed solve
    leaves its ``error`` and, out of budget, its ``best`` point and
    ``residual`` (``None`` when there is none) in the ``equilibrium`` record.
    """
    system, scn, spec, x0 = _resolve(config)
    hints = scn.ray_hints if scn is not None else ()
    report: dict = {
        "config": config.to_dict(),
        "mode": mode,
    }
    ok = True

    verdict = None
    if config.classify and mode in ("simulate", "analyze"):
        verdict = classify_system(system, hints=hints)
        report["verdict"] = verdict.to_dict()
        if scn is not None:
            verdict_ok = verdict.classification == scn.expected_class
            report["expected_class"] = scn.expected_class
            report["verdict_matches_expected"] = verdict_ok
            ok = ok and verdict_ok

    equilibrium = None
    needs_eq = config.equilibrium or mode == "equilibrium" or (
        scn is not None and "v_monotone" in scn.checks
    )
    if needs_eq:
        try:
            equilibrium = solve_equilibrium(system, x0)
            report["equilibrium"] = {
                "point": equilibrium.point.tolist(),
                "residual": equilibrium.residual,
                "method": equilibrium.method,
                "iterations": equilibrium.iterations,
            }
        except UnconvergedError as err:
            report["equilibrium"] = {
                "error": str(err),
                "best": None if err.best is None else err.best.tolist(),
                "residual": err.residual if math.isfinite(err.residual) else None,
            }
        except TCConsensusError as err:
            report["equilibrium"] = {"error": str(err)}
        if mode == "equilibrium" and "error" in report["equilibrium"]:
            ok = False

    traj = None
    if mode == "simulate":
        box = scn.box_spec if scn is not None else None
        eq_point = None if equilibrium is None else equilibrium.point
        eq_spec = scn.eq_spec if scn is not None else None
        try:
            traj = integrate(system, x0, spec)
        except NonFiniteStateError as err:
            if err.partial is None:
                raise
            traj = err.partial
            report["divergence"] = {
                "t_detected": err.time,
                "t_last_recorded": float(traj.times[-1]),
                "worst_agent": int(np.abs(traj.final_state()).argmax()),
            }
            ok = False
        else:
            report["final_state"] = traj.final_state().tolist()
            report["t_end"] = spec.steps() * spec.dt
            report["final_spread"] = float(traj.spread()[-1])
            if config.monitors and scn is not None and scn.checks:
                mon = monitor_trajectory(
                    traj, system, scn.checks, box, eq_point, eq_spec
                )
                report["monitors"] = {
                    name: {"passed": r.passed, "value": r.value, "detail": r.detail}
                    for name, r in mon.items()
                }
                failures = {name for name, r in mon.items() if not r.passed}
                expected = set(scn.expected_check_failures)
                report["expected_check_failures"] = sorted(expected)
                report["checks_match_expected"] = failures == expected
                ok = ok and failures == expected
        if "monitors" not in report:  # else they attached the same channels
            attach_channels(traj, box=box, equilibrium=eq_point, eq_spec=eq_spec)

    report["expectations_met"] = ok
    return report, traj, ok


def _encode_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Without ``indent`` the encoder runs on the C fast path; any ``indent``
# sends every node through the pure-Python encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, default=_encode_default)
_INDENTED_DEPTH = 3
# a list of scalars at depth d is one call of the encoder whose item
# separator starts a line indented for depth d + 1, still on the C path
_LIST_ENCODERS = [
    json.JSONEncoder(
        sort_keys=True,
        default=_encode_default,
        separators=(",\n" + "  " * (depth + 1), ": "),
    )
    for depth in range(_INDENTED_DEPTH + 1)
]
# types the encoders write as one token: an array or a frozenset element
# becomes a list, whose items would take the line separator
_SCALARS = (str, int, float, type(None), np.number, np.bool_)


def _render(obj, depth: int, out: list[str]) -> None:
    if depth > _INDENTED_DEPTH or not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(_ENCODER.encode(obj))
        return
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        items = [(_ENCODER.encode(str(k)) + ": ", obj[k]) for k in sorted(obj)]
        brackets = "{}"
    elif all(issubclass(t, _SCALARS) for t in set(map(type, obj))):
        text = _LIST_ENCODERS[depth].encode(obj)
        out.append("[" + pad + text[1:-1] + "\n" + "  " * depth + "]")
        return
    else:
        items = [("", v) for v in obj]
        brackets = "[]"
    out.append(brackets[0])
    for i, (prefix, value) in enumerate(items):
        out.append(("," if i else "") + pad + prefix)
        _render(value, depth + 1, out)
    out.append("\n" + "  " * depth + brackets[1])


def render_report(report: dict) -> str:
    """Render a report as JSON with sorted keys.

    Containers down to depth 3 (the report itself is depth 0) are indented
    by two spaces per level; each deeper container goes on one line, so an
    edge column or a function record of the echoed system, or a condition
    witness, is one line. Numpy arrays and scalars render as lists and
    numbers, frozensets as sorted lists.
    """
    out: list[str] = []
    _render(report, 0, out)
    out.append("\n")
    return "".join(out)


def run(config: RunConfig, mode: str = "simulate", out_dir=None) -> int:
    """Run the pipeline, write artifacts, and return the exit status.

    A simulation that diverges still writes ``report.json`` (with its
    ``divergence`` record) and the partial ``trajectory.csv``, then exits 2;
    so does an ``equilibrium`` run whose solve fails, with its report.
    """
    import sys

    try:
        report, traj, ok = build_report(config, mode=mode)
    except TCConsensusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    status = 0 if ok else 1
    if "divergence" in report:
        t = report["divergence"]["t_detected"]
        print(f"error: divergence detected at t={t:.6g}", file=sys.stderr)
        status = 2
    if mode == "equilibrium" and "error" in report["equilibrium"]:
        print(f"error: {report['equilibrium']['error']}", file=sys.stderr)
        status = 2

    target = out_dir or config.output_dir
    if target is not None:
        try:
            target = Path(target)
            target.mkdir(parents=True, exist_ok=True)
            (target / "report.json").write_text(
                render_report(report), encoding="utf-8"
            )
            if traj is not None:
                (target / "trajectory.csv").write_text(
                    traj.to_csv(), encoding="utf-8"
                )
        except OSError as err:
            print(f"error: {target}: {err}", file=sys.stderr)
            return 2
    return status


def list_scenarios() -> list[dict]:
    return [
        {
            "name": s.name,
            "agents": s.system.n,
            "expected_class": s.expected_class,
            "description": s.description,
        }
        for s in builtin_scenarios()
    ]
