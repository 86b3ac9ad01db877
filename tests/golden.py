"""Every output the tests pin, as committed text under tests/data/golden/.

``PYTHONPATH=src python tests/golden.py`` rewrites all of it, one directory
per ARTIFACTS entry; tests/test_golden.py checks that each entry still writes
those bytes. A documented model change commits the resulting diff of numbers.
"""

import csv
import dataclasses
import shutil
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
sys.path.append(str(DATA.parent.parent / "perfbench"))

from qnocsim.benchgen import gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume  # noqa: E402
from qnocsim.circuit import serialize_circuit  # noqa: E402
from qnocsim.engine import run  # noqa: E402
from qnocsim.experiment import default_bundle, load_config, merge_config, run_experiment  # noqa: E402
from test_report_records import CIRCUIT, EAGER_LOGS  # noqa: E402
from workloads import WORKLOADS, seed_overrides  # noqa: E402  (perfbench's table, read only)


def _workload(name: str, seed: int):
    """A perfbench workload's artifacts at one seed, seeded as perfbench seeds it."""
    seeds = seed_overrides(name, seed)
    if name != "bundle":
        return lambda out_dir: run_experiment(merge_config({**WORKLOADS[name].config, **seeds}), str(out_dir), name)

    def write_bundle(out_dir):
        for entry, config in default_bundle():
            # Only an entry that sweeps seeds gets sweep.seeds; the others run once per strategy.
            keys = {k: v for k, v in seeds.items() if k != "sweep.seeds" or k in config}
            run_experiment({**config, **keys}, str(out_dir), entry)

    return write_bundle


def _logs(cfg):
    """One run's hop and request logs, as CSV of dataclasses.astuple rows."""

    def write(out_dir):
        report = run(CIRCUIT, cfg)
        for name, records in (("hops", report.hops), ("requests", report.requests)):
            with open(out_dir / f"{name}.csv", "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(field.name for field in dataclasses.fields(records[0]))
                writer.writerows(map(dataclasses.astuple, records))

    return write


def _named_circuits(out_dir):
    """The named generators' circuits at the bundle's sizes, in the circuit text format."""
    for label, circuit in (
        ("qft32", gen_qft(32)),
        ("cuccaro15", gen_cuccaro(15)),
        ("mcmt12x9", gen_mcmt(12, 9)),
        ("qv32x5-seed7", gen_quantum_volume(32, 5, 7)),
    ):
        (out_dir / f"{label}.qc").write_text(serialize_circuit(circuit), encoding="utf-8")


ARTIFACTS = {
    **{f"{name}-seed{seed}": _workload(name, seed) for name in WORKLOADS for seed in (1, 7)},
    **{f"log-{name.replace(' ', '-')}": _logs(cfg) for name, (cfg, *_) in EAGER_LOGS.items()},
    "golden-cfg": lambda out_dir: run_experiment(
        merge_config(load_config(str(DATA / "golden.cfg"))), str(out_dir), "golden"
    ),
    "circuits": _named_circuits,
}

if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for entry, write in ARTIFACTS.items():
        (GOLDEN / entry).mkdir(parents=True)
        write(GOLDEN / entry)
