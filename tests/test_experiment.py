import csv
import json
import math
import os
import shlex
import shutil
import weakref
from pathlib import Path

import pytest

from golden import WORKLOADS, seed_overrides  # perfbench's workload table
from oracles import two_qubit_count
import qnocsim
from qnocsim import cli, engine, experiment
from qnocsim.benchgen import CrMode, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic
from qnocsim.circuit import parse_circuit, serialize_circuit
from qnocsim.engine import SimConfig
from qnocsim.experiment import (
    CSV_COLUMNS,
    ConfigError,
    default_bundle,
    emit_plot_data,
    iter_points,
    load_config,
    merge_config,
    parse_config,
    read_rows,
    run_default_bundle,
    run_experiment,
    summarize,
)
from qnocsim.protocol import TimingConfig
from qnocsim.topology import MeshTopology
from test_golden import assert_same_files

DATA = Path(__file__).parent / "data"


def _read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_parse_config_dotted_keys_and_comments():
    text = """
# experiment
mesh.width = 4
timing.t_epr = 10  # dominant step
sim.strategy=both
"""
    values = parse_config(text)
    assert values == {"mesh.width": "4", "timing.t_epr": "10", "sim.strategy": "both"}


def test_parse_config_reports_file_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("mesh.width = 4\nbogus line\n", source="exp.cfg")
    assert "exp.cfg:2" in str(err.value)


def test_merge_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown config key 'qft.qubitz'; did you mean 'qft.qubits'\?"):
        merge_config({"qft.qubitz": "4"})
    with pytest.raises(ConfigError, match=r"^unknown config key 'zzz'$"):
        merge_config({"workload": "qft"}, {"zzz": "1"})
    # keys read only when present are known, as is kind
    merge_config({key: "1" for key in ("sweep.requests", "sweep.seeds", "sweep.cr", "synthetic.depth",
                                       "timing.max_attempts", "kind")})
    # one key per synthetic sweep axis: the old single-value spellings are gone
    for key in ("synthetic.cr", "synthetic.requests", "synthetic.requests_per_layer"):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'"):
            merge_config({key: "1"})
    # every run writes both artifacts, so there is no format key
    with pytest.raises(ConfigError, match="^unknown config key 'out.format'$"):
        merge_config({"out.format": "csv"})


def test_readme_configuration_block_names_exactly_the_known_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n")[1]
    values = parse_config(block, source="README.md")
    assert set(values) == experiment.KNOWN_KEYS
    assert {key: values[key] for key in experiment.DEFAULTS} == experiment.DEFAULTS


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """Each line of the README's Command line block exits 0, in order, in a
    directory that holds only exp.cfg, and every file it names then exists."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line, comments=True) for line in section.split("```\n")[1].splitlines()]
    assert commands and all(argv[0] == "qnocsim" for argv in commands)
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA / "golden.cfg", "exp.cfg")
    parser = cli.build_parser()
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        args = vars(parser.parse_args(argv[1:]))
        workload = args.get("workload") or ""  # a generator name, or a circuit file
        named = [args.get("config"), args.get("csv"), args.get("out"), workload if workload.endswith(".qc") else None]
        for path in filter(None, named):
            assert Path(path).exists(), (argv, path)


def test_parse_config_rejects_a_key_set_twice(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config("workload = qft\nqft.qubits = 4\nworkload = cuccaro\n", source="bad.cfg")
    assert str(err.value) == "bad.cfg:3: duplicate key 'workload' (first set on line 1)"
    # across --set flags, and over the file, the last value still wins
    config = tmp_path / "exp.cfg"
    config.write_text("workload = cuccaro\nqft.qubits = 5\n")
    flags = ["--set", "workload=qft", "--set", "qft.qubits=3", "--set", "qft.qubits=4"]
    assert cli.main(["gen", "--config", str(config), *flags]) == 0
    assert capsys.readouterr().out == serialize_circuit(gen_qft(4))


def test_merge_layers_override_defaults():
    config = merge_config({"mesh.width": "8"}, {"mesh.width": "2", "sim.seed": "9"})
    assert config["mesh.width"] == "2"
    assert config["sim.seed"] == "9"
    assert config["mesh.height"] == "4"  # untouched default


def test_int_list_forms():
    config = merge_config({"workload": "synthetic", "sweep.requests": "1..4", "sweep.seeds": "2,5"})
    points = iter_points(config)
    assert sorted({p.cfg.seed for p in points}) == [2, 5]
    counts = sorted({len(p.circuit.gates) for p in points})
    assert counts == [1, 2, 3, 4]
    for key, token, message in (
        ("sweep.requests", "5..1", "sweep.requests: empty range '5..1'"),
        ("sweep.seeds", "3..1", "sweep.seeds: empty range '3..1'"),
        ("sweep.requests", ",", "sweep.requests: empty list ','"),
        ("sweep.cr", ",", "sweep.cr: empty list ','"),
        # an empty item is not dropped, and a repeated one would run, and weigh in the JSON means, twice
        ("sweep.seeds", "1,,2", "sweep.seeds: empty item in '1,,2'"),
        ("sweep.seeds", "1,2,", "sweep.seeds: empty item in '1,2,'"),
        ("sweep.seeds", "1,1", "sweep.seeds: repeated item '1' in '1,1'"),
        ("sweep.seeds", "1, 2, 01", "sweep.seeds: repeated item '01' in '1, 2, 01'"),
        ("sweep.requests", "4,,8", "sweep.requests: empty item in '4,,8'"),
        ("sweep.requests", "4,8,4", "sweep.requests: repeated item '4' in '4,8,4'"),
        ("sweep.cr", "fixed:1,,fixed:3", "sweep.cr: empty item in 'fixed:1,,fixed:3'"),
        ("sweep.cr", "fixed:3,fixed:1,fixed:3", "sweep.cr: repeated item 'fixed:3' in 'fixed:3,fixed:1,fixed:3'"),
    ):
        with pytest.raises(ConfigError) as err:
            iter_points(merge_config({"workload": "synthetic", "sweep.requests": "1..4", key: token}))
        assert str(err.value) == message


def test_points_are_ordered_and_deterministic():
    config = merge_config(
        {
            "workload": "synthetic",
            "sweep.cr": "fixed:1,fixed:3",
            "sweep.requests": "2,4",
            "sweep.seeds": "1,2",
        }
    )
    points = iter_points(config)
    assert [p.cfg.strategy for p in points[:2]] == ["hh", "twt"]
    keys = [(p.cr_mode, len(p.circuit.gates), p.cfg.seed, p.cfg.strategy) for p in points]
    assert keys == [(cr, n, s, strat)
                    for cr in ("fixed:1", "fixed:3")
                    for n in (2, 4)
                    for s in (1, 2)
                    for strat in ("hh", "twt")]
    again = iter_points(config)
    assert [p.circuit for p in points] == [p.circuit for p in again]


def test_single_request_count_without_a_sweep_axis():
    config = merge_config({"workload": "synthetic", "sweep.requests": "6", "sim.strategy": "hh"})
    points = iter_points(config)
    assert len(points) == 1
    assert len(points[0].circuit.gates) == 6
    # without synthetic.depth each layer holds one request; the radius defaults to fixed:3
    assert (points[0].workload, points[0].cr_mode) == ("synthetic_d6_rpl1", "fixed:3")


def test_requests_must_match_layer_shape():
    config = merge_config({"workload": "synthetic", "synthetic.depth": "5", "sweep.requests": "7"})
    with pytest.raises(ConfigError):
        iter_points(config)


def test_unknown_workload_is_a_config_error():
    with pytest.raises(ConfigError):
        iter_points(merge_config({"workload": "fft"}))


def test_circuit_file_workload(tmp_path):
    path = tmp_path / "two_gate.qc"
    path.write_text("qubits 4\ncx 0 3\ncx 1 2\n")
    config = merge_config({"workload": str(path), "sim.n_per_core": "1"})
    points = iter_points(config)
    assert points[0].workload == "two_gate"
    assert two_qubit_count(points[0].circuit) == 2


def test_run_experiment_writes_schema_and_is_idempotent(tmp_path):
    config = merge_config({"workload": "qft", "qft.qubits": "6", "sim.n_per_core": "1"})
    csv_path, json_path = run_experiment(config, str(tmp_path), "exp")
    rows = _read_rows(csv_path)
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert {r["strategy"] for r in rows} == {"hh", "twt"}
    first_bytes = Path(csv_path).read_bytes()
    run_experiment(config, str(tmp_path), "exp")
    assert Path(csv_path).read_bytes() == first_bytes
    summary = json.loads(Path(json_path).read_text())
    assert summary["rows"] == len(rows)


def test_certain_success_runs_seed_no_random_stream(tmp_path, monkeypatch):
    def no_stream(*args):
        raise AssertionError("a run at p_bsm = 1 seeded a random stream")

    monkeypatch.setattr(engine, "request_stream", no_stream)
    config = merge_config(load_config(os.path.join(DATA, "golden.cfg")))
    assert config["timing.p_bsm"] == "1"
    run_experiment(config, str(tmp_path), "golden")
    assert_same_files(tmp_path, "golden-cfg")


def test_adjacent_radius_sweep_rows_pair_equal(tmp_path):
    config = merge_config(
        {
            "workload": "synthetic",
            "sweep.cr": "fixed:1",
            "sweep.requests": "1..8",
            "sweep.seeds": "1,2,3",
            "sim.n_per_core": "4",
        }
    )
    csv_path, _ = run_experiment(config, str(tmp_path), "adjacent")
    rows = _read_rows(csv_path)
    by_key = {}
    for row in rows:
        by_key.setdefault((row["workload"], row["num_requests"], row["seed"]), []).append(row)
    assert all(len(pair) == 2 for pair in by_key.values())
    for pair in by_key.values():
        assert pair[0]["comm_delay_sum"] == pair[1]["comm_delay_sum"]
        assert pair[0]["comm_delay_critical"] == pair[1]["comm_delay_critical"]


def test_seed_sweep_keeps_identity_columns_fixed(tmp_path):
    config = merge_config(
        {
            "workload": "synthetic",
            "sweep.cr": "random:6",
            "sweep.requests": "6",
            "sweep.seeds": "1..5",
            "sim.n_per_core": "4",
        }
    )
    csv_path, _ = run_experiment(config, str(tmp_path), "seeds")
    rows = _read_rows(csv_path)
    assert sorted({r["seed"] for r in rows}) == ["1", "2", "3", "4", "5"]
    assert {r["workload"] for r in rows} == {"synthetic_d6_rpl1"}
    assert {r["cr_mode"] for r in rows} == {"random:6"}


def test_summary_means_are_exactly_rounded():
    # A naive left-to-right sum of ten 0.1s is 0.9999999999999999.
    rows = [
        {"workload": "w", "strategy": "hh", "cr_mode": "-", "seed": seed, "comm_delay_sum": 0.1,
         "comm_delay_critical": 0.1, "total_delay": 0.1, "expanded_depth": 1}
        for seed in range(10)
    ]
    means = summarize(rows)["per_strategy"]["hh"]
    assert means["comm_delay_sum_mean"] == 0.1
    assert means["total_delay_mean"] == 0.1


def test_summary_reductions_match_recompute_from_csv(tmp_path):
    # every bundle entry's JSON summary is a function of its CSV alone
    paths = run_default_bundle(str(tmp_path))
    assert len(paths) == 2 * len(default_bundle())
    for csv_path, json_path in zip(paths[::2], paths[1::2]):
        summary = json.dumps(summarize(read_rows(csv_path)), indent=2, sort_keys=True) + "\n"
        assert summary == Path(json_path).read_text(encoding="utf-8")


def test_bundle_routes_once_per_planned_request(tmp_path, monkeypatch):
    # the synthetic generator finds the twt meeting core without routing, so
    # every route serves a simulated request
    routes = []
    xy_route = MeshTopology.xy_route

    def counted_xy_route(self, src, dst):
        routes.append((src, dst))
        return xy_route(self, src, dst)

    monkeypatch.setattr(MeshTopology, "xy_route", counted_xy_route)
    gen_synthetic(SynthSpec(4, 4, CrMode("random", 3), 1), MeshTopology(4, 4), 4)
    assert routes == []
    paths = run_default_bundle(str(tmp_path))
    requests = sum(row["num_requests"] for path in paths if path.endswith(".csv") for row in read_rows(path))
    assert len(routes) == requests


def test_plot_data_files(tmp_path):
    bundle = dict(default_bundle())
    run_experiment(bundle["synthetic_depth5"], str(tmp_path), "mix")
    bench_csv, _ = run_experiment(bundle["bench_qft"], str(tmp_path), "mix_bench")
    # merge both CSVs into one results file
    merged = tmp_path / "merged.csv"
    rows = _read_rows(tmp_path / "mix.csv") + _read_rows(bench_csv)
    with open(merged, "w") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(row[c] for c in CSV_COLUMNS) + "\n")
    written = emit_plot_data(str(merged), str(tmp_path / "plots"))
    assert [os.path.basename(p) for p in written] == [
        "delay_vs_requests.csv",
        "benchmark_delay.csv",
        "benchmark_depth.csv",
    ]
    fig6 = _read_rows(written[0])
    series: dict[str, list[int]] = {}
    for row in fig6:
        series.setdefault(row["workload"] + row["series"], []).append(int(row["num_requests"]))
    assert series
    for xs in series.values():
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
    bars = _read_rows(written[2])
    per_bench: dict[str, list[str]] = {}
    for row in bars:
        per_bench.setdefault(row["benchmark"], []).append(row["bar"])
    assert per_bench["qft32"] == ["original", "hh", "twt"]
    # the benchmark bars are the per-strategy means of the JSON summary
    means = json.loads((tmp_path / "mix_bench.json").read_text())["per_strategy"]
    delays = {(r["benchmark"], r["strategy"]): float(r["comm_delay"]) for r in _read_rows(written[1])}
    assert delays == {("qft32", s): means[s]["comm_delay_critical_mean"] for s in ("hh", "twt")}
    depths = {r["bar"]: float(r["depth"]) for r in bars}
    assert {s: depths[s] for s in ("hh", "twt")} == {s: means[s]["expanded_depth_mean"] for s in ("hh", "twt")}


def test_plot_data_sorts_rows_by_cr_mode_not_by_label(tmp_path):
    circuit_file = tmp_path / "synthetic_qft8.qc"
    circuit_file.write_text(serialize_circuit(gen_qft(8)), encoding="utf-8")
    csv_path, _ = run_experiment(merge_config({"workload": str(circuit_file)}), str(tmp_path), "named")
    delay_vs_requests, benchmark_delay, benchmark_depth = emit_plot_data(csv_path, str(tmp_path / "plots"))
    assert _read_rows(delay_vs_requests) == []
    assert [(r["benchmark"], r["strategy"]) for r in _read_rows(benchmark_delay)] == [
        ("synthetic_qft8", "hh"),
        ("synthetic_qft8", "twt"),
    ]
    assert [r["bar"] for r in _read_rows(benchmark_depth)] == ["original", "hh", "twt"]


def test_plot_data_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("workload,strategy\nx,hh\n")
    with pytest.raises(ValueError):
        emit_plot_data(str(bad), str(tmp_path / "plots"))
    header = ",".join(CSV_COLUMNS)
    for row in ("qft4,hh,-,3,1,abc,14,20,3,5,0,1", "qft4,hh,-,3,1,1,14,20,3,5,0"):
        bad.write_text(f"{header}\nqft4,hh,-,3,1,1,14,20,3,5,0,1\n{row}\n")
        with pytest.raises(ValueError, match="bad.csv:3: a numeric column is missing or not a number"):
            emit_plot_data(str(bad), str(tmp_path / "plots"))


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_cli_plotdata_refuses_a_number_that_is_not_ascii_or_holds_an_underscore(tmp_path, capsys, value):
    """float() reads '1_0' as 10 and '\u0663' as 3; a results CSV holds neither."""
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + f"\nqft8,hh,-,1,1,14,2,16,1,2,0,1\nqft8,hh,-,1,1,{value},2,16,1,2,0,1\n")
    assert cli.main(["plotdata", str(csv_path), "--out", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}:3: a numeric column is missing or not a number\n"
    assert not (tmp_path / "plots").exists()


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "qft.qc"
    assert cli.main(["gen", "--workload", "qft", "--set", "qft.qubits=5", "--out", str(out)]) == 0
    circuit = parse_circuit(out.read_text())
    assert circuit.num_qubits == 5
    assert two_qubit_count(circuit) == 10
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--workload", "qft", "--set", "qft.qubits=5"], lambda: gen_qft(5)),
        (["--workload", "cuccaro", "--set", "cuccaro.bits=3"], lambda: gen_cuccaro(3)),
        (["--workload", "mcmt", "--set", "mcmt.controls=3", "--set", "mcmt.targets=2"], lambda: gen_mcmt(3, 2)),
        (["--workload", "qv", "--set", "qv.qubits=6", "--set", "qv.layers=2"], lambda: gen_quantum_volume(6, 2, 7)),
        (
            ["--workload", "synthetic", "--requests", "3", "--cr", "fixed:2", "--seed", "1"],
            lambda: gen_synthetic(SynthSpec(3, 1, CrMode.parse("fixed:2"), 1), MeshTopology(4, 4), 2),
        ),
        (
            ["--workload", "synthetic", "--depth", "4", "--requests", "8", "--cr", "random:3", "--seed", "5",
             "--set", "mesh.width=3", "--set", "mesh.height=3", "--set", "sim.n_per_core=4"],
            lambda: gen_synthetic(SynthSpec(4, 2, CrMode.parse("random:3"), 5), MeshTopology(3, 3), 4),
        ),
    ],
    ids=["qft", "cuccaro", "mcmt", "qv", "synthetic", "synthetic_depth"],
)
def test_cli_gen_writes_the_generator_circuit(flags, expected, capsys):
    assert cli.main(["gen", *flags]) == 0
    assert capsys.readouterr().out == serialize_circuit(expected())


def test_cli_gen_then_compare_matches_the_generated_workload(tmp_path):
    circuit_file = tmp_path / "c.qc"
    assert cli.main(["gen", "--workload", "qft", "--set", "qft.qubits=8", "--out", str(circuit_file)]) == 0
    assert cli.main(["run", "--workload", str(circuit_file), "--out", str(tmp_path), "--name", "file"]) == 0
    assert cli.main(["run", "--workload", "qft", "--set", "qft.qubits=8", "--out", str(tmp_path), "--name", "gen"]) == 0
    from_file = _read_rows(tmp_path / "file.csv")
    generated = _read_rows(tmp_path / "gen.csv")
    assert [r["workload"] for r in from_file] == ["c", "c"]
    assert [r["workload"] for r in generated] == ["qft8", "qft8"]
    for row in from_file + generated:
        del row["workload"]
    assert from_file == generated


def test_a_generated_qft256_file_writes_the_pinned_qft_allpairs_bytes(tmp_path, monkeypatch):
    """A parsed copy of the generated 32,896-gate circuit simulates byte for
    byte like the generator's; the file's basename gives it the label qft256."""
    monkeypatch.chdir(tmp_path)
    config = {**WORKLOADS["qft_allpairs"].config, **seed_overrides("qft_allpairs", 1)}
    Path("allpairs.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    assert cli.main(["gen", "--config", "allpairs.cfg", "--out", "qft256.qc"]) == 0
    argv = ["run", "--config", "allpairs.cfg", "--workload", "qft256.qc", "--out", "out", "--name", "qft_allpairs"]
    assert cli.main(argv) == 0
    assert_same_files(tmp_path / "out", "qft_allpairs-seed1")


def test_cli_gen_rejects_a_configuration_of_several_circuits(capsys):
    assert cli.main(["gen", "--workload", "synthetic", "--requests", "3,4"]) == 1
    assert "gen writes one circuit; the configuration builds 2" in capsys.readouterr().err
    # seeds alone vary the engine, not a named circuit
    assert cli.main(["gen", "--workload", "qft", "--set", "qft.qubits=3", "--set", "sweep.seeds=1..3"]) == 0
    assert capsys.readouterr().out == serialize_circuit(gen_qft(3))


def test_cli_seed_flag_overrides_the_config_file_seeds(tmp_path):
    config = tmp_path / "s.cfg"
    config.write_text("workload = qft\nqft.qubits = 4\nsweep.seeds = 1,2\n")
    assert cli.main(["run", "--config", str(config), "--seed", "5", "--strategy", "hh", "--out", str(tmp_path)]) == 0
    assert [r["seed"] for r in _read_rows(tmp_path / "results.csv")] == ["5"]


def test_cli_run_runs_config(tmp_path, capsys):
    code = cli.main(["run", "--config", os.path.join(DATA, "golden.cfg"), "--out", str(tmp_path), "--name", "golden"])
    assert code == 0
    assert_same_files(tmp_path, "golden-cfg")


def test_cli_flags_override_config(tmp_path):
    code = cli.main(
        [
            "run",
            "--workload", "synthetic",
            "--requests", "4",
            "--strategy", "hh",
            "--seed", "2",
            "--set", "sim.n_per_core=4",
            "--out", str(tmp_path),
            "--name", "single",
        ]
    )
    assert code == 0
    rows = _read_rows(tmp_path / "single.csv")
    assert len(rows) == 1
    assert rows[0]["strategy"] == "hh"
    assert rows[0]["seed"] == "2"


def test_cli_run_writes_exactly_the_rows_of_the_strategy_flag(tmp_path):
    config = tmp_path / "s.cfg"
    qft4 = ["--workload", "qft", "--set", "qft.qubits=4", "--set", "sim.n_per_core=1", "--out", str(tmp_path)]
    for strategy, expected in (("hh", ["hh"]), ("twt", ["twt"]), ("both", ["hh", "twt"])):
        assert cli.main(["run", *qft4, "--strategy", strategy]) == 0
        assert [r["strategy"] for r in _read_rows(tmp_path / "results.csv")] == expected
        for file_strategy in ("hh", "twt", "both"):
            config.write_text(f"sim.strategy = {file_strategy}\n")
            assert cli.main(["run", "--config", str(config), *qft4, "--strategy", strategy]) == 0
            assert [r["strategy"] for r in _read_rows(tmp_path / "results.csv")] == expected
    # without the flag, run follows the configuration, whose default is both
    assert cli.main(["run", *qft4]) == 0
    assert [r["strategy"] for r in _read_rows(tmp_path / "results.csv")] == ["hh", "twt"]


def test_config_defaults_equal_the_engine_defaults():
    """DEFAULTS repeats the TimingConfig and SimConfig defaults as text. Its
    strategy (both) and seed (1) differ on purpose; each run sets those two."""
    config = merge_config()
    assert experiment.timing_from_config(config) == TimingConfig()
    sim = experiment.sim_config_from(config)
    defaults = SimConfig(topology=sim.topology)
    for name in ("n_per_core", "m_per_core", "timing", "pipeline_hops"):
        assert getattr(sim, name) == getattr(defaults, name), name


def test_pipeline_flag_reaches_the_engine_config(tmp_path):
    config = merge_config({"sim.pipeline_hops": "true"})
    points = iter_points({**config, "workload": "qft", "qft.qubits": "4", "sim.n_per_core": "1"})
    assert all(p.cfg.pipeline_hops for p in points)


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("text, message", [
    ("qubits 4\ncx 0 9\n", "error: bad.qc:2: operand 9 outside 0..3"),
    ("", "error: bad.qc: missing qubits header"),
    ("qubits 0\n", "error: bad.qc:1: qubit count must be positive"),
    ("qubits 4\ncx 0 \u0663\n", "error: bad.qc:2: expected integer, got '\u0663'"),
    (b"qubits 2\n\xff\n", "error: bad.qc: not UTF-8: byte 0xff (invalid start byte)"),
])
def test_cli_circuit_file_errors_name_the_file_and_line(command, text, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.qc").write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main([command, "--workload", "bad.qc", "--out", "out"]) == 1
    assert capsys.readouterr().err.strip() == message


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark that many editors and spreadsheets write


def _cli_outputs(argv, out_dir) -> dict[str, bytes]:
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    text = b"workload = qft\nqft.qubits = 4\n"
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(BOM + text)
    plain = _cli_outputs(["run", "--config", str(tmp_path / "plain.cfg")], tmp_path / "plain")
    assert _cli_outputs(["run", "--config", str(tmp_path / "bom.cfg")], tmp_path / "bom") == plain
    (tmp_path / "bad.cfg").write_bytes(BOM + b"workload = qft\n\xff\n")
    assert cli.main(["run", "--config", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'bad.cfg'}: not UTF-8: byte 0xff (invalid start byte)\n"


def test_a_circuit_file_may_start_with_a_byte_order_mark(tmp_path, monkeypatch):
    text = serialize_circuit(gen_qft(4)).encode()
    for name, prefix in (("plain", b""), ("bom", BOM)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "qft4.qc").write_bytes(prefix + text)
    monkeypatch.chdir(tmp_path / "plain")
    plain = _cli_outputs(["run", "--workload", "qft4.qc"], "out")
    monkeypatch.chdir(tmp_path / "bom")
    assert _cli_outputs(["run", "--workload", "qft4.qc"], "out") == plain


def test_a_results_csv_may_start_with_a_byte_order_mark(tmp_path):
    csv_path, _ = run_experiment(merge_config({"workload": "qft", "qft.qubits": "4"}), str(tmp_path / "run"))
    (tmp_path / "bom.csv").write_bytes(BOM + Path(csv_path).read_bytes())
    plain = _cli_outputs(["plotdata", csv_path], tmp_path / "plain")
    assert _cli_outputs(["plotdata", str(tmp_path / "bom.csv")], tmp_path / "bom") == plain


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = cli.main(["run", "--workload", "fft", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    undecodable = tmp_path / "bin.csv"
    undecodable.write_bytes(b"workload,strategy\n\xff\n")
    assert cli.main(["plotdata", str(undecodable), "--out", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == f"error: {undecodable}: not UTF-8: byte 0xff (invalid start byte)\n"
    code = cli.main(["plotdata", str(tmp_path / "missing.csv")])
    assert code == 1
    code = cli.main(["run", "--workload", "qft", "--set", "timing.t_epr=nan", "--out", str(tmp_path)])
    assert code == 1
    assert "t_epr must be finite" in capsys.readouterr().err
    for key in ("timing.tepr", "timing.t_epr_"):
        code = cli.main(["run", "--workload", "qft", "--set", f"{key}=99", "--out", str(tmp_path)])
        assert code == 1
        assert f"unknown config key '{key}'; did you mean 'timing.t_epr'?" in capsys.readouterr().err
    code = cli.main(["run", "--workload", "qft", "--set", "timing.p_bsn=0.5", "--out", str(tmp_path)])
    assert code == 1
    assert "did you mean 'timing.p_bsm'?" in capsys.readouterr().err
    code = cli.main(["run", "--workload", "qft", "--set", "sweep.seeds=3..1", "--out", str(tmp_path)])
    assert code == 1
    assert "sweep.seeds: empty range '3..1'" in capsys.readouterr().err
    argv = ["run", "--workload", "qft", "--set", "qft.qubits=8", "--out", str(tmp_path)]
    for flags, key in (
        (["--requests", "1..4", "--cr", "fixed:9", "--depth", "3"], "sweep.requests"),
        (["--cr", "fixed:9"], "sweep.cr"),
        (["--depth", "3"], "synthetic.depth"),
    ):
        code = cli.main([*argv, *flags])
        assert code == 1
        assert f"{key}: only the synthetic workload reads it, not 'qft'" in capsys.readouterr().err
    # the deleted single-value keys are unknown on every workload
    for workload, setting in (
        ("qft", "synthetic.requests=4"),
        ("qft", "synthetic.cr=random:2"),
        ("qft", "synthetic.requests_per_layer=7"),
        ("synthetic", "synthetic.requests_per_layer=0"),
    ):
        code = cli.main(["run", "--workload", workload, "--requests", "4", "--set", setting, "--out", str(tmp_path)])
        assert code == 1
        assert f"unknown config key '{setting.partition('=')[0]}'" in capsys.readouterr().err
    code = cli.main(
        ["run", "--workload", "qft", "--set", "qft.qubits=4", "--set", "synthetic.cr=fixed:99",
         "--set", "synthetic.requests_per_layer=7", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "unknown config key 'synthetic.cr'" in capsys.readouterr().err
    big = tmp_path / "big.qc"
    big.write_text("qubits 40\ncx 0 39\n")
    undecodable = tmp_path / "bin.cfg"
    undecodable.write_bytes(b"workload = qft\n\xff\n")
    twice = tmp_path / "twice.cfg"
    twice.write_text("workload = qft\nqft.qubits = 4\nworkload = cuccaro\n")
    empty = tmp_path / "e.cfg"
    empty.write_text("workload =\n")
    for flags, message in (
        (["--workload", "synthetic", "--requests", "4", "--depth", "0"],
         "synthetic.depth: expected a positive integer, got 0"),
        (["--workload", "synthetic", "--requests", "0"], "sweep.requests: expected positive counts, got 0"),
        (["--workload", "synthetic", "--requests", "-5", "--depth", "5"],
         "sweep.requests: expected positive counts, got -5"),
        # engine settings name their config key
        (["--workload", "synthetic", "--requests", "4", "--set", "sim.n_per_core=0"],
         "sim.n_per_core: expected a positive integer, got 0"),
        (["--workload", "qft", "--set", "sim.m_per_core=0"], "sim.m_per_core: expected a positive integer, got 0"),
        (["--workload", "qft", "--set", "mesh.width=0"], "mesh.width: expected a positive integer, got 0"),
        (["--workload", "qft", "--set", "mesh.height=-2"], "mesh.height: expected a positive integer, got -2"),
        (["--workload", "qft", "--set", "timing.p_bsm=2"], "timing.p_bsm must be in (0, 1], got 2.0"),
        (["--workload", "qft", "--set", "timing.t_epr=-1"], "timing.t_epr must be finite and non-negative, got -1.0"),
        (["--workload", "qft", "--set", "timing.max_attempts=0"],
         "timing.max_attempts: expected a positive integer, got 0"),
        # a circuit too large for the mesh is refused before any run starts
        (["--workload", "qft", "--set", "qft.qubits=40"],
         "sim.n_per_core: qft40 (workload 'qft') has 40 qubits, more than 16 cores x 2"),
        (["--workload", str(big)], f"sim.n_per_core: big (workload '{big}') has 40 qubits, more than 16 cores x 2"),
        (["--config", str(undecodable)], f"{undecodable}: not UTF-8: byte 0xff (invalid start byte)"),
        (["--config", str(twice)], f"{twice}:3: duplicate key 'workload' (first set on line 1)"),
        (["--workload", "qft", "--set", "sweep.seeds=1,,2"], "sweep.seeds: empty item in '1,,2'"),
        # each value that does not parse names its key and echoes the value
        (["--workload", "qft", "--set", "sim.seed=x"], "sim.seed: expected integer, got 'x'"),
        (["--workload", "qft", "--set", "timing.t_epr=abc"], "timing.t_epr: expected number, got 'abc'"),
        (["--workload", "qft", "--set", "sim.pipeline_hops=maybe"],
         "sim.pipeline_hops: expected true or false, got 'maybe'"),
        (["--workload", "qft", "--set", "sweep.seeds=1..x"], "sweep.seeds: bad range '1..x'"),
        (["--workload", "qft", "--set", "sweep.seeds=1,x"], "sweep.seeds: bad integer list '1,x'"),
        # integers and numbers are ASCII, without digit-group underscores
        (["--workload", "qft", "--set", "qft.qubits=1_6"], "qft.qubits: expected integer, got '1_6'"),
        (["--workload", "qft", "--set", "sim.seed=\u0663"], "sim.seed: expected integer, got '\u0663'"),
        (["--workload", "qft", "--set", "timing.t_epr=1_0"], "timing.t_epr: expected number, got '1_0'"),
        (["--workload", "qft", "--set", "timing.t_gate=\u0662"], "timing.t_gate: expected number, got '\u0662'"),
        (["--workload", "qft", "--set", "sweep.seeds=1,\u0662"], "sweep.seeds: bad integer list '1,\u0662'"),
        (["--workload", "qft", "--set", "sweep.seeds=1..1_0"], "sweep.seeds: bad range '1..1_0'"),
        (["--workload", "synthetic", "--requests", "4", "--cr", "fixed:\u0663"],
         "sweep.cr: bad cr mode token 'fixed:\u0663'"),
        (["--workload", "synthetic", "--requests", "4", "--cr", "fixed:\u00b3"],
         "sweep.cr: bad cr mode token 'fixed:\u00b3'"),
        (["--workload", "qft", "--set", "sim.strategy=HH"], "sim.strategy: expected hh, twt or both, got 'HH'"),
        (["--workload", "synthetic"], "synthetic workload needs sweep.requests"),
        (["--workload", "qft", "--set", "foo"], "--set expects KEY=VALUE, got 'foo'"),
        (["--config", str(empty)], f"{empty}:1: empty key or value"),
        # each generator range error names its config key
        (["--workload", "qv", "--set", "qv.layers=0"], "qv.layers: expected a positive integer, got 0"),
        (["--workload", "qv", "--set", "qv.qubits=1"], "qv.qubits: expected an integer of at least 2, got 1"),
        (["--workload", "qft", "--set", "qft.qubits=0"], "qft.qubits: expected a positive integer, got 0"),
        (["--workload", "cuccaro", "--set", "cuccaro.bits=0"], "cuccaro.bits: expected a positive integer, got 0"),
        (["--workload", "mcmt", "--set", "mcmt.controls=0"], "mcmt.controls: expected a positive integer, got 0"),
        (["--workload", "mcmt", "--set", "mcmt.targets=0"], "mcmt.targets: expected a positive integer, got 0"),
        (["--workload", "synthetic", "--requests", "4", "--cr", "fixed:0"],
         "sweep.cr: connectivity radius must be positive"),
        (["--workload", "synthetic", "--requests", "4", "--cr", "bogus"], "sweep.cr: bad cr mode token 'bogus'"),
        (["--workload", "synthetic", "--requests", "4", "--cr", "fixed:99"],
         "sweep.cr: radius 99 exceeds mesh diameter 6"),
        # an empty --set key or value is refused, as in a config file line
        (["--workload", "synthetic", "--requests", "4", "--set", "kind="], "--set 'kind=': empty key or value"),
        (["--workload", "synthetic", "--requests", "4", "--set", "qft.qubits="],
         "--set 'qft.qubits=': empty key or value"),
        (["--workload", "qft", "--set", "=4"], "--set '=4': empty key or value"),
    ):
        out_dir = tmp_path / "refused"
        code = cli.main(["run", *flags, "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out_dir.exists()  # refused before results.csv is opened


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize("flag", ["--seed", "--depth"])
@pytest.mark.parametrize("value", ["\u0663", "1_0"])
def test_cli_integer_flags_refuse_what_an_integer_config_value_refuses(tmp_path, capsys, command, flag, value):
    """int() reads '\u0663' as 3 and '1_0' as 10; --set sim.seed refuses both, and so do the flags."""
    out = tmp_path / "refused"
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--workload", "synthetic", "--requests", "4", flag, value, "--out", str(out)])
    assert exited.value.code == 2
    assert f"argument {flag}: invalid ascii_number value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_a_too_large_circuit_is_refused_before_it_is_built(monkeypatch):
    def never(n):
        raise AssertionError("gen_qft called for a circuit the mesh cannot hold")

    monkeypatch.setattr(experiment, "gen_qft", never)
    with pytest.raises(ConfigError, match=r"^sim\.n_per_core: qft40 \(workload 'qft'\) has 40 qubits, more than 16 cores x 2$"):
        iter_points(merge_config({"workload": "qft", "qft.qubits": "40"}))


@pytest.mark.parametrize("settings, num_qubits", [
    ({"workload": "qft", "qft.qubits": "5"}, 5),
    ({"workload": "cuccaro", "cuccaro.bits": "3"}, 8),
    ({"workload": "mcmt", "mcmt.controls": "3", "mcmt.targets": "2"}, 7),
    ({"workload": "qv", "qv.qubits": "6"}, 6),
], ids=lambda value: value["workload"] if isinstance(value, dict) else None)
def test_each_generator_fits_a_mesh_that_holds_exactly_its_qubits(settings, num_qubits):
    """The capacity check's qubit count for each generator is the circuit's num_qubits."""
    def config(cores):
        return merge_config({**settings, "mesh.width": str(cores), "mesh.height": "1", "sim.n_per_core": "1"})

    points = iter_points(config(num_qubits))
    assert {point.circuit.num_qubits for point in points} == {num_qubits}
    with pytest.raises(ConfigError, match=f"has {num_qubits} qubits, more than {num_qubits - 1} cores x 1$"):
        iter_points(config(num_qubits - 1))


def test_a_failing_rerun_removes_the_earlier_summary(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    assert cli.main(["run", "--workload", "qft", "--set", "qft.qubits=8", "--set", "timing.p_bsm=0.5", *out]) == 0
    assert json.loads((tmp_path / "results.json").read_text())["rows"] == 2
    failing = ["--set", "qft.qubits=16", "--set", "timing.p_bsm=0.05", "--set", "timing.max_attempts=3"]
    assert cli.main(["run", "--workload", "qft", *failing, *out]) == 1
    assert "(timing.max_attempts)" in capsys.readouterr().err
    assert (tmp_path / "results.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
    assert not (tmp_path / "results.json").exists()


def test_cli_names_file_and_line_of_an_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("workload = qft\ntiming.tepr = 5\n")
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert "bad.cfg:2: unknown config key 'timing.tepr'; did you mean 'timing.t_epr'?" in capsys.readouterr().err


def test_cli_reports_attempt_exhaustion_and_keeps_the_csv_prefix(tmp_path, capsys):
    argv = ["run", "--workload", "qft", "--set", "timing.p_bsm=0.01", "--set", "timing.max_attempts=1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entanglement not heralded within 1 attempts")
    # the key to raise, then the failing row's workload, cr_mode, strategy and seed
    assert err == (
        "error: entanglement not heralded within 1 attempts (timing.max_attempts)"
        " in the run workload=qft32 cr_mode=- strategy=hh seed=1\n"
    )
    assert (tmp_path / "results.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_cli_reports_a_non_finite_run_and_keeps_the_csv_prefix(tmp_path, capsys):
    # one layer of one three-hop request stays finite at t_epr = 5e307; two layers overflow
    argv = ["run", "--workload", "synthetic", "--cr", "fixed:3", "--requests", "1,2", "--strategy", "hh",
            "--set", "timing.t_epr=5e307", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: timing values too large: simulated delay is not finite (total_delay=inf")
    assert err.endswith(" in the run workload=synthetic_d2_rpl1 cr_mode=fixed:3 strategy=hh seed=1\n")
    rows = _read_rows(tmp_path / "results.csv")
    assert [row["workload"] for row in rows] == ["synthetic_d1_rpl1"]
    assert math.isfinite(float(rows[0]["total_delay"]))
    assert not (tmp_path / "results.json").exists()
    argv = ["run", "--workload", "qft", "--set", "qft.qubits=8", "--set", "timing.t_epr=1e308", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "workload=qft8 cr_mode=- strategy=hh seed=1" in capsys.readouterr().err


def test_no_report_outlives_its_row(tmp_path, monkeypatch):
    """Each run's SimReport is freed once its row is written, so no report,
    nor the circuit and config it would replay, outlives its row."""
    engine_run, finished = experiment.run, []

    def run(circuit, cfg):
        assert [ref() for ref in finished] == [None] * len(finished)
        report = engine_run(circuit, cfg)
        finished.append(weakref.ref(report))
        return report

    monkeypatch.setattr(experiment, "run", run)
    run_experiment(merge_config({"workload": "qft", "qft.qubits": "8", "sweep.seeds": "1,2"}), str(tmp_path))
    assert len(finished) == 4


def test_cli_plotdata(tmp_path):
    cli.main(["run", "--config", os.path.join(DATA, "golden.cfg"), "--out", str(tmp_path), "--name", "g"])
    code = cli.main(["plotdata", str(tmp_path / "g.csv"), "--out", str(tmp_path / "plots")])
    assert code == 0
    assert (tmp_path / "plots" / "benchmark_delay.csv").exists()


def test_cli_plotdata_names_the_line_of_an_oversized_field(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\n" + "x" * 200_000 + "\n")
    assert cli.main(["plotdata", str(csv_path), "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {csv_path}:2: field larger than field limit")
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_cli_plotdata_rejects_a_non_finite_field(tmp_path, capsys, value):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + f"\nqft8,hh,-,1,1,14,{value},16,1,2,0,1\n")
    assert cli.main(["plotdata", str(csv_path), "--out", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}:2: comm_delay_critical is not finite: {value!r}\n"
    assert not (tmp_path / "plots").exists()


def test_cli_plotdata_names_the_line_of_an_unknown_strategy(tmp_path, capsys):
    """A strategy outside STRATEGIES is an error, not a row that summarize drops."""
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\nqft8,hh,-,1,1,14,2,16,1,2,0,1\nqft8,HH,-,1,1,14,2,16,1,2,0,1\n")
    assert cli.main(["plotdata", str(csv_path), "--out", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}:3: strategy 'HH' is not one of hh, twt\n"
    assert not (tmp_path / "plots").exists()
    with pytest.raises(ValueError, match="r.csv:3: strategy 'HH'"):
        read_rows(str(csv_path))


def test_a_label_with_a_comma_is_quoted_in_results_and_plot_data(tmp_path):
    circuit_file = tmp_path / "a,b.qc"
    circuit_file.write_text("qubits 4\ncx 0 3\n")
    assert cli.main(["run", "--workload", str(circuit_file), "--out", str(tmp_path / "out")]) == 0
    csv_path = tmp_path / "out" / "results.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[1].startswith('"a,b",hh,-,') and lines[2].startswith('"a,b",twt,-,')
    assert [(r["workload"], r["strategy"]) for r in read_rows(str(csv_path))] == [("a,b", "hh"), ("a,b", "twt")]
    assert cli.main(["plotdata", str(csv_path), "--out", str(tmp_path / "plots")]) == 0
    plots = tmp_path / "plots"
    assert [(r["benchmark"], r["strategy"]) for r in _read_rows(plots / "benchmark_delay.csv")] == [
        ("a,b", "hh"),
        ("a,b", "twt"),
    ]
    assert [(r["benchmark"], r["bar"]) for r in _read_rows(plots / "benchmark_depth.csv")] == [
        ("a,b", "original"),
        ("a,b", "hh"),
        ("a,b", "twt"),
    ]


def test_cli_bundle_prints_exactly_the_written_paths(tmp_path, capsys, monkeypatch):
    bundle = [
        ("qft8", merge_config({"workload": "qft", "qft.qubits": "8"})),
        ("cuccaro2", merge_config({"workload": "cuccaro", "cuccaro.bits": "2"})),
    ]
    monkeypatch.setattr(experiment, "default_bundle", lambda: bundle)
    out_dir = tmp_path / "bundle"
    assert cli.main(["bundle", "--out", str(out_dir)]) == 0
    written = [str(out_dir / f"{name}.{ext}") for name, _config in bundle for ext in ("csv", "json")]
    assert capsys.readouterr().out.splitlines() == written
    assert sorted(str(path) for path in out_dir.iterdir()) == sorted(written)


def test_partial_rows_are_flushed_before_a_failing_point_exits(tmp_path):
    from qnocsim.protocol import ProtocolError, request_stream

    # with a cap of one attempt, a request whose first draw misses p_bsm=0.5
    # exhausts the cap; pick one surviving and one exhausting engine seed
    good = next(s for s in range(100) if request_stream(s, 0).random() < 0.5)
    bad = next(s for s in range(100) if request_stream(s, 0).random() >= 0.5)
    circuit_file = tmp_path / "one_hop.qc"
    circuit_file.write_text("qubits 2\ncx 0 1\n")
    config = merge_config(
        {
            "workload": str(circuit_file),
            "sim.n_per_core": "1",
            "sim.strategy": "hh",
            "timing.p_bsm": "0.5",
            "timing.max_attempts": "1",
            "sweep.seeds": f"{good},{bad}",
        }
    )
    with pytest.raises(ProtocolError, match=f"workload=one_hop cr_mode=- strategy=hh seed={bad}$"):
        run_experiment(config, str(tmp_path), "partial")
    rows = _read_rows(tmp_path / "partial.csv")
    assert len(rows) == 1
    assert rows[0]["seed"] == str(good)


def test_bundle_configs_are_runnable_shapes():
    names = [name for name, _ in default_bundle()]
    assert names == [
        "synthetic_depth5",
        "synthetic_depth5_far",
        "synthetic_depth10",
        "synthetic_depth10_far",
        "bench_qft",
        "bench_cuccaro",
        "bench_mcmt",
        "bench_qv",
    ]


def test_every_exported_name_resolves():
    for name in qnocsim.__all__:
        assert getattr(qnocsim, name, None) is not None, name
