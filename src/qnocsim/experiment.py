"""Experiment orchestration: configs, sweeps, CSV/JSON artifacts, plot data.

Configuration is a flat key-value text format with dotted keys::

    workload = synthetic
    mesh.width = 4
    timing.t_epr = 10
    sim.strategy = both
    sweep.cr = fixed:1,random:6
    sweep.requests = 5,10
    synthetic.depth = 5
    sweep.seeds = 1,2,3

``#`` starts a comment. A file sets each key at most once, and no list item
may be empty or repeat another. Command-line flags override file values. The
synthetic workload has one key per sweep axis: ``sweep.cr`` (default
``fixed:3``), ``sweep.requests`` (required) and ``synthetic.depth`` (without
it, one request per layer); every other workload rejects all three. Every
number written to an artifact comes straight out of the engine or the
generators; this module only arranges runs and formats rows.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

from .benchgen import CrMode, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic
from .circuit import Circuit, ParseError, parse_circuit
from .engine import SimConfig, SimReport, run
from .protocol import ProtocolError, TimingConfig
from .strategy import STRATEGIES
from .topology import MeshTopology

TEXT_COLUMNS = ("workload", "strategy", "cr_mode")
# SimReport totals that are columns under their field names, in column order.
REPORT_COLUMNS = ("comm_delay_sum", "comm_delay_critical", "total_delay", "original_depth", "expanded_depth",
                  "congestion_events", "max_core_occupancy")
CSV_COLUMNS = [*TEXT_COLUMNS, "num_requests", "seed", *REPORT_COLUMNS]

BENCHMARK_WORKLOADS = ("qft", "cuccaro", "mcmt", "qv")

DEFAULTS = {
    "workload": "synthetic",
    "mesh.width": "4",
    "mesh.height": "4",
    "sim.n_per_core": "2",
    "sim.m_per_core": "2",
    "sim.strategy": "both",
    "sim.seed": "1",
    "sim.pipeline_hops": "false",
    "timing.t_epr": "10",
    "timing.t_meas": "2",
    "timing.t_classical": "1",
    "timing.t_correct": "1",
    "timing.t_gate": "2",
    "timing.p_bsm": "1",
    "qft.qubits": "32",
    "cuccaro.bits": "15",
    "mcmt.controls": "12",
    "mcmt.targets": "9",
    "qv.qubits": "32",
    "qv.layers": "5",
    "qv.seed": "7",
}


# Read only by the synthetic workload; any other workload rejects them.
SYNTHETIC_KEYS = ("sweep.requests", "sweep.cr", "synthetic.depth")

# Keys read only when present, on top of the ones DEFAULTS always supplies;
# kind is accepted and never read, because older configs still set it.
KNOWN_KEYS = frozenset(DEFAULTS) | frozenset(SYNTHETIC_KEYS) | {"sweep.seeds", "timing.max_attempts", "kind"}


class ConfigError(ValueError):
    """Bad experiment configuration, with file and line where known."""


def parse_config(text: str, source: str = "<config>") -> dict[str, str]:
    """The key-value lines of a config file; a key set twice is an error."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{line_no}: expected key = value, got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: empty key or value")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{line_no}: {_unknown_key_message(key)}")
        if key in values:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r} (first set on line {first_line[key]})")
        values[key], first_line[key] = value, line_no
    return values


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # -sig: a leading byte-order mark is dropped
            text = handle.read()
    except UnicodeDecodeError as error:
        raise ConfigError(f"{path}: {_not_utf8(error)}") from None
    return parse_config(text, source=path)


def _not_utf8(error: UnicodeDecodeError) -> str:
    """The reason a file failed to decode, without the offset, which counts from the decoded chunk."""
    return f"not UTF-8: byte 0x{error.object[error.start]:02x} ({error.reason})"


def merge_config(*layers: dict[str, str]) -> dict[str, str]:
    """DEFAULTS overridden by each layer in turn; an unknown key is an error."""
    merged = dict(DEFAULTS)
    for layer in layers:
        for key in layer:
            if key not in KNOWN_KEYS:
                raise ConfigError(_unknown_key_message(key))
        merged.update(layer)
    return merged


def _unknown_key_message(key: str) -> str:
    import difflib  # only on this error path, so that start-up stays lean

    close = difflib.get_close_matches(key, sorted(KNOWN_KEYS), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"unknown config key {key!r}{hint}"


def _get_int(config, key, minimum=None):
    try:
        value = int(config[key])
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {config[key]!r}") from None
    if minimum is not None and value < minimum:
        expected = "a positive integer" if minimum == 1 else f"an integer of at least {minimum}"
        raise ConfigError(f"{key}: expected {expected}, got {value}")
    return value


def _get_float(config, key):
    try:
        return float(config[key])
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {config[key]!r}") from None


def _get_bool(config, key):
    value = config[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {config[key]!r}")


def _int_list(token: str, key: str) -> list[int]:
    """Parse ``1,2,3`` (see _list) or an inclusive range ``1..32``, which may not be empty."""
    token = token.strip()
    if ".." in token:
        lo, _, hi = token.partition("..")
        try:
            values = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"{key}: bad range {token!r}") from None
        if not values:
            raise ConfigError(f"{key}: empty range {token!r}")
        return values

    def parse(item):
        try:
            return int(item)
        except ValueError:
            raise ConfigError(f"{key}: bad integer list {token!r}") from None

    return _list(token, key, parse)


def _list(token: str, key: str, parse) -> list:
    """Each item of a comma-separated list, parsed; the list may not be empty,
    and no item may be empty or repeat another, which would run a point twice."""
    items = [item.strip() for item in token.split(",")]
    if not any(items):
        raise ConfigError(f"{key}: empty list {token!r}")
    if "" in items:
        raise ConfigError(f"{key}: empty item in {token!r}")
    values: dict = {}  # ordered, with a set's lookup
    for item in items:
        value = parse(item)
        if value in values:
            raise ConfigError(f"{key}: repeated item {item!r} in {token!r}")
        values[value] = None
    return list(values)


def timing_from_config(config: dict[str, str]) -> TimingConfig:
    max_attempts = None
    if "timing.max_attempts" in config:
        max_attempts = _get_int(config, "timing.max_attempts", 1)
    names = ("t_epr", "t_meas", "t_classical", "t_correct", "t_gate", "p_bsm")
    values = {name: _get_float(config, f"timing.{name}") for name in names}
    try:
        return TimingConfig(**values, max_attempts=max_attempts)
    except ValueError as error:  # each message starts with the field's name
        raise ConfigError(f"timing.{error}") from None


def sim_config_from(config: dict[str, str]) -> SimConfig:
    """The engine settings every run of a configuration shares; each run
    replaces only its strategy and seed."""
    return SimConfig(
        topology=MeshTopology(_get_int(config, "mesh.width", 1), _get_int(config, "mesh.height", 1)),
        n_per_core=_get_int(config, "sim.n_per_core", 1),
        m_per_core=_get_int(config, "sim.m_per_core", 1),
        timing=timing_from_config(config),
        pipeline_hops=_get_bool(config, "sim.pipeline_hops"),
    )


@dataclass(frozen=True)
class RunPoint:
    """One engine run, i.e. one CSV row; ``cfg`` holds its strategy and seed."""

    workload: str
    cr_mode: str
    circuit: Circuit
    cfg: SimConfig


def _strategies(config) -> list[str]:
    token = config["sim.strategy"]
    if token == "both":
        return list(STRATEGIES)
    if token in STRATEGIES:
        return [token]
    raise ConfigError(f"sim.strategy: expected {', '.join(STRATEGIES)} or both, got {token!r}")


def _seeds(config) -> list[int]:
    if "sweep.seeds" in config:
        return _int_list(config["sweep.seeds"], "sweep.seeds")
    return [_get_int(config, "sim.seed")]


def iter_points(config: dict[str, str]) -> list[RunPoint]:
    """Expand a configuration into a deterministic, ordered list of runs.

    The shared engine settings are checked before any circuit is generated,
    so a bad key is reported by name rather than by the generator it breaks,
    and every circuit is checked to fit the mesh before any run starts.
    """
    strategies = _strategies(config)
    # One mesh for every point: each instance carries its own lookup tables.
    base = sim_config_from(config)
    runs = list(_runs(config, base.topology))
    cores = base.topology.num_cores
    for label, _cr_mode, circuit, _seeds in runs:
        if circuit.num_qubits > cores * base.n_per_core:
            raise ConfigError(
                f"sim.n_per_core: {label} (workload {config['workload']!r}) has {circuit.num_qubits} qubits,"
                f" more than {cores} cores x {base.n_per_core}"
            )
    return [
        RunPoint(label, cr_mode, circuit, replace(base, strategy=strategy, seed=seed))
        for label, cr_mode, circuit, seeds in runs
        for seed in seeds
        for strategy in strategies
    ]


def single_circuit(config: dict[str, str]) -> Circuit:
    """The one circuit a configuration builds, as ``qnocsim gen`` writes it."""
    circuits = [circuit for _label, _cr_mode, circuit, _seeds in _runs(config, sim_config_from(config).topology)]
    if len(circuits) != 1:
        raise ConfigError(f"gen writes one circuit; the configuration builds {len(circuits)}")
    return circuits[0]


def _runs(config, topology: MeshTopology):
    """Yield (label, cr_mode, circuit, seeds) once for every circuit a
    configuration builds, with the engine seeds it runs under; the one place
    that turns a workload name into circuits.

    The synthetic workload sweeps sweep.cr x sweep.requests x seeds, one
    circuit per seed, and a request count fills synthetic.depth layers
    evenly, or without a depth one request per layer. Any other workload is
    one circuit, run once per seed.
    """
    workload = config["workload"]
    seeds = _seeds(config)
    if workload == "synthetic":
        yield from _synthetic_runs(config, topology, seeds)
        return
    for key in SYNTHETIC_KEYS:
        if key in config:
            raise ConfigError(f"{key}: only the synthetic workload reads it, not {workload!r}")
    # The generators check their own ranges; these checks name the key.
    if workload == "qft":
        n = _get_int(config, "qft.qubits", 1)
        circuit, label = gen_qft(n), f"qft{n}"
    elif workload == "cuccaro":
        bits = _get_int(config, "cuccaro.bits", 1)
        circuit, label = gen_cuccaro(bits), f"cuccaro{bits}"
    elif workload == "mcmt":
        controls = _get_int(config, "mcmt.controls", 1)
        targets = _get_int(config, "mcmt.targets", 1)
        circuit, label = gen_mcmt(controls, targets), f"mcmt{controls}x{targets}"
    elif workload == "qv":
        n = _get_int(config, "qv.qubits", 2)
        layers = _get_int(config, "qv.layers", 1)
        circuit, label = gen_quantum_volume(n, layers, _get_int(config, "qv.seed")), f"qv{n}x{layers}"
    elif os.path.exists(workload):
        try:
            with open(workload, "r", encoding="utf-8-sig") as handle:
                circuit = parse_circuit(handle.read())
        except UnicodeDecodeError as error:
            raise ParseError(_not_utf8(error), None, workload) from None
        except ParseError as error:
            raise ParseError(error.reason, error.line, workload) from None
        label = os.path.splitext(os.path.basename(workload))[0]
    else:
        raise ConfigError(f"unknown workload {workload!r} (not a generator name or circuit file)")
    yield label, "-", circuit, seeds


def _synthetic_runs(config, topology: MeshTopology, seeds: list[int]):
    if "sweep.requests" not in config:
        raise ConfigError("synthetic workload needs sweep.requests")
    counts = _int_list(config["sweep.requests"], "sweep.requests")
    if min(counts) < 1:
        raise ConfigError(f"sweep.requests: expected positive counts, got {min(counts)}")
    cr_modes = _list(config.get("sweep.cr", "fixed:3"), "sweep.cr", lambda item: _cr_mode(item, topology))
    depth_k = _get_int(config, "synthetic.depth", 1) if "synthetic.depth" in config else None
    qpc = _get_int(config, "sim.n_per_core")
    for cr_mode in cr_modes:
        for count in counts:
            if depth_k is None:
                layers, rpl = count, 1
            elif count % depth_k:
                raise ConfigError(f"request count {count} not a multiple of synthetic.depth {depth_k}")
            else:
                layers, rpl = depth_k, count // depth_k
            for seed in seeds:
                spec = SynthSpec(target_depth=layers, requests_per_layer=rpl, cr_mode=cr_mode, seed=seed)
                yield f"synthetic_d{layers}_rpl{rpl}", str(cr_mode), gen_synthetic(spec, topology, qpc), [seed]


def _cr_mode(token: str, topology: MeshTopology) -> CrMode:
    """One sweep.cr entry; CrMode and gen_synthetic check the same ranges
    without naming the key."""
    try:
        mode = CrMode.parse(token)
    except ValueError as error:
        raise ConfigError(f"sweep.cr: {error}") from None
    if mode.radius > topology.diameter:
        raise ConfigError(f"sweep.cr: radius {mode.radius} exceeds mesh diameter {topology.diameter}")
    return mode


def _fmt(value) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def row_for(point: RunPoint, report: SimReport) -> dict[str, object]:
    row = {"workload": point.workload, "strategy": point.cfg.strategy, "cr_mode": point.cr_mode,
           "num_requests": report.inter_core_requests, "seed": point.cfg.seed}
    for name in REPORT_COLUMNS:
        row[name] = getattr(report, name)
    return row


def run_experiment(config: dict[str, str], out_dir: str, name: str = "results") -> tuple[str, str]:
    """Run every point of a configuration, writing ``<name>.csv`` and
    ``<name>.json`` into ``out_dir``.

    Rows are written and flushed in spec order as runs finish, so a failing
    point leaves the completed prefix on disk. The JSON is
    ``summarize(read_rows(csv_path))``.

    Returns the written (csv_path, json_path).
    """
    points = iter_points(config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")

    with open(csv_path, "w", encoding="utf-8", newline="") as csv_file:
        writer = csv.writer(csv_file, lineterminator="\n")  # quotes a label that holds a comma
        writer.writerow(CSV_COLUMNS)
        csv_file.flush()
        for point in points:
            # Only the report's totals are read, so its records are never replayed.
            where = (f"in the run workload={point.workload} cr_mode={point.cr_mode}"
                     f" strategy={point.cfg.strategy} seed={point.cfg.seed}")
            try:
                row = row_for(point, run(point.circuit, point.cfg))
            except ProtocolError as error:
                raise ProtocolError(f"{error} (timing.max_attempts) {where}") from error
            except ValueError as error:  # such as delay totals that are not finite
                raise type(error)(f"{error} {where}") from error
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
            csv_file.flush()

    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(summarize(read_rows(csv_path)), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, json_path


def summarize(rows: list[dict]) -> dict:
    """Per-strategy means plus hh-vs-twt reduction percentages over paired rows."""
    summary: dict = {"rows": len(rows), "per_strategy": {}, "reduction_pct": {}}
    for strategy in STRATEGIES:
        group = [r for r in rows if r["strategy"] == strategy]
        if not group:
            continue
        summary["per_strategy"][strategy] = {
            "runs": len(group),
            "comm_delay_sum_mean": _mean([r["comm_delay_sum"] for r in group]),
            "comm_delay_critical_mean": _mean([r["comm_delay_critical"] for r in group]),
            "total_delay_mean": _mean([r["total_delay"] for r in group]),
            "expanded_depth_mean": _mean([r["expanded_depth"] for r in group]),
        }
    for metric in ("comm_delay_sum", "comm_delay_critical", "expanded_depth"):
        reductions = paired_reductions(rows, metric)
        if reductions:
            summary["reduction_pct"][metric] = 100.0 * _mean(reductions)
    return summary


def paired_reductions(rows: list[dict], metric: str) -> list[float]:
    """(hh - twt)/hh per run pair.

    Pairs are matched positionally within a (workload, cr_mode, seed) group:
    both strategies simulate the same circuit, but run-dependent columns such
    as num_requests may legitimately differ between them.
    """
    def key(row):
        return (row["workload"], row["cr_mode"], row["seed"])

    grouped: dict[tuple, dict[str, list]] = {}
    for row in rows:
        grouped.setdefault(key(row), {}).setdefault(row["strategy"], []).append(row)
    out = []
    for group_key in sorted(grouped):
        group = grouped[group_key]
        for hh_row, twt_row in zip(group.get("hh", []), group.get("twt", [])):
            base = hh_row[metric]
            out.append(0.0 if base == 0 else (base - twt_row[metric]) / base)
    return out


def _mean(values):
    # fsum is correctly rounded on every Python version; sum() is compensated
    # only from 3.12 on, so the JSON bytes would depend on the interpreter.
    return math.fsum(values) / len(values)


def default_bundle() -> list[tuple[str, dict[str, str]]]:
    """The shipped experiment set: synthetic sweeps at circuit depths 5 and
    10 over fixed radii 1, 3 and 6 plus a random radius, and the four real
    benchmarks, all under both strategies."""
    bundle = []
    for depth_k in (5, 10):
        base = {
            "workload": "synthetic",
            "sim.n_per_core": "8",
            "synthetic.depth": str(depth_k),
            "sweep.seeds": "1,2,3",
        }
        near = dict(base)
        near["sweep.cr"] = "fixed:1,fixed:3,random:6"
        near["sweep.requests"] = ",".join(str(depth_k * rpl) for rpl in (1, 2, 3, 4))
        bundle.append((f"synthetic_depth{depth_k}", merge_config(near)))
        far = dict(base)
        far["sweep.cr"] = "fixed:6"
        far["sweep.requests"] = ",".join(str(depth_k * rpl) for rpl in (1, 2))
        bundle.append((f"synthetic_depth{depth_k}_far", merge_config(far)))
    for workload in BENCHMARK_WORKLOADS:
        bundle.append((f"bench_{workload}", merge_config({"workload": workload})))
    return bundle


def run_default_bundle(out_dir: str) -> list[str]:
    """Run every bundle entry; returns the written artifact paths."""
    return [path for name, config in default_bundle() for path in run_experiment(config, out_dir, name)]


def read_rows(csv_path: str) -> list[dict]:
    """A results CSV's rows, with every column but workload, strategy and
    cr_mode as a finite float and strategy one of STRATEGIES; ``summarize``
    of them is the run's JSON summary."""
    with open(csv_path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"{csv_path}: missing columns {missing}")
            rows = []
            for row in reader:
                try:
                    parsed = {c: row[c] if c in TEXT_COLUMNS else float(row[c]) for c in CSV_COLUMNS}
                except (TypeError, ValueError):  # a short row holds None in its last columns
                    raise ValueError(f"{csv_path}:{reader.line_num}: a numeric column is missing or not a number") from None
                bad = next((c for c in CSV_COLUMNS if c not in TEXT_COLUMNS and not math.isfinite(parsed[c])), None)
                if bad:
                    raise ValueError(f"{csv_path}:{reader.line_num}: {bad} is not finite: {row[bad]!r}")
                if parsed["strategy"] not in STRATEGIES:
                    raise ValueError(f"{csv_path}:{reader.line_num}: strategy {parsed['strategy']!r}"
                                     f" is not one of {', '.join(STRATEGIES)}")
                rows.append(parsed)
            return rows
        except csv.Error as error:  # such as a field over csv.field_size_limit(); reader.line_num lags a failed line
            raise ValueError(f"{csv_path}:{reader.reader.line_num}: {error}") from None
        except UnicodeDecodeError as error:  # the file decodes a chunk at a time, ahead of the lines read
            raise ValueError(f"{csv_path}: {_not_utf8(error)}") from None


def _means(pairs) -> dict:
    """The mean value per key of (key, value) pairs."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: _mean(values) for key, values in groups.items()}


def emit_plot_data(csv_path: str, out_dir: str) -> list[str]:
    """Reshape a results CSV into tidy per-figure files.

    delay_vs_requests.csv : series 'strategy cr_mode' x num_requests, mean
    communication delay (critical path) across seeds, synthetic rows only.
    benchmark_delay.csv   : per named benchmark and strategy.
    benchmark_depth.csv   : original / hh / twt depth bars per benchmark.
    """
    rows = read_rows(csv_path)
    # Only synthetic sweeps carry a radius mode; every other row's cr_mode is "-".
    synthetic = [r for r in rows if r["cr_mode"] != "-"]
    benches = [r for r in rows if r["cr_mode"] == "-"]
    delay_vs_requests = _means(
        ((r["workload"], r["strategy"], r["cr_mode"], r["num_requests"]), r["comm_delay_critical"]) for r in synthetic
    )
    benchmark_delay = _means(((r["workload"], r["strategy"]), r["comm_delay_critical"]) for r in benches)
    bars = ("original", "hh", "twt")
    benchmark_depth = _means(
        ((r["workload"], bar), r["original_depth" if bar == "original" else "expanded_depth"])
        for r in benches
        for bar in ("original", r["strategy"])
    )
    tables = {
        "delay_vs_requests.csv": [("workload", "series", "num_requests", "comm_delay")] + [
            (w, f"{s} {cr}", _fmt(x), _fmt(mean)) for (w, s, cr, x), mean in sorted(delay_vs_requests.items())
        ],
        "benchmark_delay.csv": [("benchmark", "strategy", "comm_delay")] + [
            (w, s, _fmt(mean)) for (w, s), mean in sorted(benchmark_delay.items())
        ],
        "benchmark_depth.csv": [("benchmark", "bar", "depth")] + [
            (w, bar, _fmt(benchmark_depth[w, bar]))
            for w, bar in sorted(benchmark_depth, key=lambda key: (key[0], bars.index(key[1])))
        ],
    }
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, table in tables.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(table)
        written.append(path)
    return written
