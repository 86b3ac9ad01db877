import csv
import json
import os

import pytest

from qnocsim import cli, experiment
from qnocsim.circuit import parse_circuit
from qnocsim.experiment import (
    CSV_COLUMNS,
    ConfigError,
    default_bundle,
    emit_plot_data,
    iter_points,
    load_config,
    merge_config,
    parse_config,
    paired_reductions,
    run_experiment,
    summarize,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_parse_config_dotted_keys_and_comments():
    text = """
# experiment
mesh.width = 4
timing.t_epr = 10  # dominant step
strategy=both
"""
    values = parse_config(text)
    assert values == {"mesh.width": "4", "timing.t_epr": "10", "strategy": "both"}


def test_parse_config_reports_file_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("mesh.width = 4\nbogus line\n", source="exp.cfg")
    assert "exp.cfg:2" in str(err.value)


def test_merge_layers_override_defaults():
    config = merge_config({"mesh.width": "8"}, {"mesh.width": "2", "sim.seed": "9"})
    assert config["mesh.width"] == "2"
    assert config["sim.seed"] == "9"
    assert config["mesh.height"] == "4"  # untouched default


def test_int_list_forms():
    config = merge_config({"workload": "synthetic", "sweep.requests": "1..4", "sweep.seeds": "2,5"})
    points = iter_points(config)
    assert sorted({p.seed for p in points}) == [2, 5]
    counts = sorted({len(p.circuit.gates) for p in points})
    assert counts == [1, 2, 3, 4]


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
    assert [p.strategy for p in points[:2]] == ["hh", "twt"]
    keys = [(p.cr_mode, len(p.circuit.gates), p.seed, p.strategy) for p in points]
    assert keys == [(cr, n, s, strat)
                    for cr in ("fixed:1", "fixed:3")
                    for n in (2, 4)
                    for s in (1, 2)
                    for strat in ("hh", "twt")]
    again = iter_points(config)
    assert [p.circuit for p in points] == [p.circuit for p in again]


def test_single_request_count_without_a_sweep_axis():
    config = merge_config({"workload": "synthetic", "synthetic.requests": "6", "sim.strategy": "hh"})
    points = iter_points(config)
    assert len(points) == 1
    assert len(points[0].circuit.gates) == 6


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
    assert points[0].circuit.two_qubit_count() == 2


def test_run_experiment_writes_schema_and_is_idempotent(tmp_path):
    config = merge_config({"workload": "qft", "qft.qubits": "6", "sim.n_per_core": "1"})
    csv_path, json_path = run_experiment(config, str(tmp_path), "exp")
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert {r["strategy"] for r in rows} == {"hh", "twt"}
    first_bytes = open(csv_path, "rb").read()
    run_experiment(config, str(tmp_path), "exp")
    assert open(csv_path, "rb").read() == first_bytes
    summary = json.load(open(json_path))
    assert summary["rows"] == len(rows)


def test_golden_spec_reproduces_committed_artifacts(tmp_path):
    config = merge_config(load_config(os.path.join(DATA, "golden.cfg")))
    csv_path, json_path = run_experiment(config, str(tmp_path), "golden")
    assert open(csv_path, "rb").read() == open(os.path.join(DATA, "golden.csv"), "rb").read()
    assert open(json_path, "rb").read() == open(os.path.join(DATA, "golden.json"), "rb").read()


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
    rows = list(csv.DictReader(open(csv_path)))
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
            "synthetic.cr": "random:6",
            "sweep.requests": "6",
            "sweep.seeds": "1..5",
            "sim.n_per_core": "4",
        }
    )
    csv_path, _ = run_experiment(config, str(tmp_path), "seeds")
    rows = list(csv.DictReader(open(csv_path)))
    assert sorted({r["seed"] for r in rows}) == ["1", "2", "3", "4", "5"]
    assert {r["workload"] for r in rows} == {"synthetic_d6_rpl1"}
    assert {r["cr_mode"] for r in rows} == {"random:6"}


def test_summary_reductions_match_recompute_from_csv(tmp_path):
    config = merge_config(
        {
            "workload": "synthetic",
            "sweep.cr": "fixed:3,random:6",
            "sweep.requests": "2,4,6",
            "sweep.seeds": "1,2",
            "sim.n_per_core": "8",
        }
    )
    csv_path, json_path = run_experiment(config, str(tmp_path), "xcheck")
    summary = json.load(open(json_path))
    raw = list(csv.DictReader(open(csv_path)))
    rows = [
        {
            **row,
            "seed": int(row["seed"]),
            "num_requests": int(row["num_requests"]),
            "comm_delay_sum": float(row["comm_delay_sum"]),
            "comm_delay_critical": float(row["comm_delay_critical"]),
            "expanded_depth": int(row["expanded_depth"]),
        }
        for row in raw
    ]
    for metric in ("comm_delay_sum", "comm_delay_critical", "expanded_depth"):
        reductions = paired_reductions(rows, metric)
        recomputed = 100.0 * sum(reductions) / len(reductions)
        assert summary["reduction_pct"][metric] == pytest.approx(recomputed, rel=1e-9)


def test_plot_data_files(tmp_path):
    collect = []
    bundle = dict(default_bundle())
    run_experiment(bundle["synthetic_depth5"], str(tmp_path), "mix", collect=collect)
    bench_csv, _ = run_experiment(bundle["bench_qft"], str(tmp_path), "mix_bench")
    # merge both CSVs into one results file
    merged = tmp_path / "merged.csv"
    rows = list(csv.DictReader(open(tmp_path / "mix.csv"))) + list(csv.DictReader(open(bench_csv)))
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
    fig6 = list(csv.DictReader(open(written[0])))
    series: dict[str, list[int]] = {}
    for row in fig6:
        series.setdefault(row["workload"] + row["series"], []).append(int(row["num_requests"]))
    assert series
    for xs in series.values():
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
    bars = list(csv.DictReader(open(written[2])))
    per_bench: dict[str, list[str]] = {}
    for row in bars:
        per_bench.setdefault(row["benchmark"], []).append(row["bar"])
    assert per_bench["qft32"] == ["original", "hh", "twt"]


def test_plot_data_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("workload,strategy\nx,hh\n")
    with pytest.raises(ValueError):
        emit_plot_data(str(bad), str(tmp_path / "plots"))


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "qft.qc"
    assert cli.main(["gen", "qft", "--qubits", "5", "--out", str(out)]) == 0
    circuit = parse_circuit(out.read_text())
    assert circuit.num_qubits == 5
    assert circuit.two_qubit_count() == 10
    assert cli.main(["gen", "synthetic", "--depth", "3", "--cr", "fixed:2", "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert parse_circuit(printed).two_qubit_count() == 3


def test_cli_compare_runs_config(tmp_path, capsys):
    code = cli.main(
        [
            "compare",
            "--config",
            os.path.join(DATA, "golden.cfg"),
            "--out",
            str(tmp_path),
            "--name",
            "cli_golden",
        ]
    )
    assert code == 0
    assert (tmp_path / "cli_golden.csv").read_bytes() == open(os.path.join(DATA, "golden.csv"), "rb").read()


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
            "--format", "csv",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "single.csv")))
    assert len(rows) == 1
    assert rows[0]["strategy"] == "hh"
    assert rows[0]["seed"] == "2"
    assert not (tmp_path / "single.json").exists()


def test_cli_run_defaults_to_a_single_strategy(tmp_path):
    code = cli.main(
        [
            "run",
            "--workload", "qft",
            "--set", "qft.qubits=4",
            "--set", "sim.n_per_core=1",
            "--out", str(tmp_path),
            "--name", "one",
            "--format", "csv",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "one.csv")))
    assert [r["strategy"] for r in rows] == ["hh"]


def test_pipeline_flag_reaches_the_engine_config(tmp_path):
    config = merge_config({"sim.pipeline_hops": "true"})
    points = iter_points({**config, "workload": "qft", "qft.qubits": "4", "sim.n_per_core": "1"})
    assert all(p.cfg.pipeline_hops for p in points)


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = cli.main(["run", "--workload", "fft", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = cli.main(["plotdata", str(tmp_path / "missing.csv")])
    assert code == 1
    code = cli.main(["run", "--workload", "qft", "--set", "timing.t_epr=nan", "--out", str(tmp_path)])
    assert code == 1
    assert "t_epr must be finite" in capsys.readouterr().err


def test_cli_reports_attempt_exhaustion_and_keeps_the_csv_prefix(tmp_path, capsys):
    argv = ["run", "--workload", "qft", "--set", "timing.p_bsm=0.01", "--set", "timing.max_attempts=1"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entanglement not heralded within 1 attempts")
    assert "Traceback" not in err
    assert (tmp_path / "results.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_cli_plotdata(tmp_path):
    cli.main(["compare", "--config", os.path.join(DATA, "golden.cfg"), "--out", str(tmp_path), "--name", "g"])
    code = cli.main(["plotdata", str(tmp_path / "g.csv"), "--out", str(tmp_path / "plots")])
    assert code == 0
    assert (tmp_path / "plots" / "benchmark_delay.csv").exists()


def test_partial_rows_are_flushed_before_a_failing_point_exits(tmp_path):
    from qnocsim.protocol import ProtocolError, request_stream

    # with a cap of one attempt, a request whose first draw misses p_bsm=0.5
    # exhausts the cap; pick one surviving and one exhausting engine seed
    good = next(s for s in range(100) if request_stream(s, 0, 0).random() < 0.5)
    bad = next(s for s in range(100) if request_stream(s, 0, 0).random() >= 0.5)
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
    with pytest.raises(ProtocolError):
        run_experiment(config, str(tmp_path), "partial")
    rows = list(csv.DictReader(open(tmp_path / "partial.csv")))
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
    for _name, config in default_bundle():
        assert config["out.format"] == "both"
