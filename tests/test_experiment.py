import csv
import json
import os
from pathlib import Path

import pytest

from oracles import two_qubit_count
import qnocsim
from qnocsim import cli, engine, experiment
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
    merge_config({key: "1" for key in ("sweep.requests", "sweep.seeds", "sweep.cr", "synthetic.requests",
                                       "synthetic.depth", "timing.max_attempts", "kind")})


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
    for key, token, message in (
        ("sweep.requests", "5..1", "sweep.requests: empty range '5..1'"),
        ("sweep.seeds", "3..1", "sweep.seeds: empty range '3..1'"),
        ("sweep.requests", ",", "sweep.requests: empty list ','"),
        ("sweep.cr", ",", "sweep.cr: empty list ','"),
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


def test_golden_spec_reproduces_committed_artifacts(tmp_path):
    config = merge_config(load_config(os.path.join(DATA, "golden.cfg")))
    csv_path, json_path = run_experiment(config, str(tmp_path), "golden")
    assert Path(csv_path).read_bytes() == (DATA / "golden.csv").read_bytes()
    assert Path(json_path).read_bytes() == (DATA / "golden.json").read_bytes()


def test_certain_success_runs_seed_no_random_stream(tmp_path, monkeypatch):
    def no_stream(*args):
        raise AssertionError("a run at p_bsm = 1 seeded a random stream")

    monkeypatch.setattr(engine, "request_stream", no_stream)
    config = merge_config(load_config(os.path.join(DATA, "golden.cfg")))
    assert config["timing.p_bsm"] == "1"
    csv_path, json_path = run_experiment(config, str(tmp_path), "golden")
    assert Path(csv_path).read_bytes() == (DATA / "golden.csv").read_bytes()
    assert Path(json_path).read_bytes() == (DATA / "golden.json").read_bytes()


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
            "synthetic.cr": "random:6",
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
    summary = json.loads(Path(json_path).read_text())
    raw = _read_rows(csv_path)
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
    assert two_qubit_count(circuit) == 10
    assert cli.main(["gen", "synthetic", "--depth", "3", "--cr", "fixed:2", "--seed", "1"]) == 0
    printed = capsys.readouterr().out
    assert two_qubit_count(parse_circuit(printed)) == 3


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
    assert (tmp_path / "cli_golden.csv").read_bytes() == (DATA / "golden.csv").read_bytes()


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
    rows = _read_rows(tmp_path / "single.csv")
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
    rows = _read_rows(tmp_path / "one.csv")
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
    for key in ("timing.tepr", "timing.t_epr_"):
        code = cli.main(["run", "--workload", "qft", "--set", f"{key}=99", "--out", str(tmp_path)])
        assert code == 1
        assert f"unknown config key '{key}'; did you mean 'timing.t_epr'?" in capsys.readouterr().err
    code = cli.main(["run", "--workload", "qft", "--set", "timing.p_bsn=0.5", "--out", str(tmp_path)])
    assert code == 1
    assert "did you mean 'timing.p_bsm'?" in capsys.readouterr().err
    code = cli.main(["compare", "--workload", "qft", "--set", "sweep.seeds=3..1", "--out", str(tmp_path)])
    assert code == 1
    assert "sweep.seeds: empty range '3..1'" in capsys.readouterr().err
    argv = ["compare", "--workload", "qft", "--set", "qft.qubits=8", "--out", str(tmp_path)]
    for flags, key in (
        (["--requests", "1..4", "--cr", "fixed:9", "--depth", "3"], "sweep.requests"),
        (["--cr", "fixed:9"], "sweep.cr"),
        (["--depth", "3"], "synthetic.depth"),
        (["--set", "synthetic.requests=4"], "synthetic.requests"),
        (["--set", "synthetic.cr=random:2"], "synthetic.cr"),
        (["--set", "synthetic.requests_per_layer=7"], "synthetic.requests_per_layer"),
    ):
        code = cli.main([*argv, *flags])
        assert code == 1
        assert f"{key}: only the synthetic workload reads it, not 'qft'" in capsys.readouterr().err
    code = cli.main(
        ["compare", "--workload", "qft", "--set", "qft.qubits=4", "--set", "synthetic.cr=fixed:99",
         "--set", "synthetic.requests_per_layer=7", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "synthetic.cr: only the synthetic workload reads it, not 'qft'" in capsys.readouterr().err


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
    for _name, config in default_bundle():
        assert config["out.format"] == "both"


def test_every_exported_name_resolves():
    for name in qnocsim.__all__:
        assert getattr(qnocsim, name, None) is not None, name
