"""Every output the tests pin, as committed text under tests/data/golden/.

``PYTHONPATH=src python tests/golden.py`` rewrites all of it, one directory
per ARTIFACTS entry; tests/test_golden.py checks that each entry still writes
those bytes. A documented model change commits the resulting diff of numbers.
The command needs no test framework: this module imports only qnocsim,
perfbench's workload table and perfbench's bundle seeding rule.
"""

import csv
import dataclasses
import shutil
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
sys.path.append(str(DATA.parent.parent / "perfbench"))

from qnocsim.benchgen import (  # noqa: E402
    CrMode, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic,
)
from qnocsim.circuit import serialize_circuit  # noqa: E402
from qnocsim.engine import SimConfig, run  # noqa: E402
from qnocsim.experiment import default_bundle, load_config, merge_config, run_experiment  # noqa: E402
from qnocsim.protocol import TimingConfig  # noqa: E402
from qnocsim.topology import MeshTopology  # noqa: E402
from passes import _with_seeds  # noqa: E402  (perfbench's bundle seeding rule, read only)
from workloads import WORKLOADS, seed_overrides  # noqa: E402  (perfbench's table, read only)

MESH = MeshTopology(4, 4)
CIRCUIT = gen_synthetic(SynthSpec(target_depth=5, requests_per_layer=3, cr_mode=CrMode("random", 6), seed=8), MESH, 8)
LOSSY = SimConfig(topology=MESH, n_per_core=8, m_per_core=2, timing=TimingConfig(p_bsm=0.5), strategy="twt", seed=8)
HH_LOSSY = dataclasses.replace(LOSSY, strategy="hh")
CONTENDED = dataclasses.replace(LOSSY, m_per_core=1, strategy="hh", pipeline_hops=True)
FRACTIONAL = dataclasses.replace(
    LOSSY,
    timing=TimingConfig(t_epr=0.1, t_meas=1 / 3, t_classical=0.7, t_correct=0.05, t_gate=0.3, p_bsm=0.5),
    pipeline_hops=True,
)

# The four runs of CIRCUIT whose hop and request logs are pinned, with their
# hop and request counts. None of the times of "twt fractional" is integral.
EAGER_LOGS = {
    "twt lossy": (LOSSY, 48, 15),
    "hh lossy": (HH_LOSSY, 44, 15),
    "hh contended pipelined": (CONTENDED, 44, 15),
    "twt fractional": (FRACTIONAL, 48, 15),
}

# The synthetic generator's circuits whose text is pinned, as (mesh width,
# height, cr mode, depth, requests per layer, qubits per core, seed). Any
# change to the candidate order or to the sequence of random draws changes
# their text. In the last case every core fills during the first layer, so
# the source scan must skip cores that have no free qubit left.
SYNTHETIC_CIRCUITS = [
    (4, 4, "fixed:1", 10, 3, 8, 1),
    (4, 4, "fixed:3", 10, 2, 8, 2),
    (4, 4, "fixed:6", 10, 2, 8, 3),
    (4, 4, "random:6", 10, 4, 8, 1),
    (8, 8, "random:14", 40, 16, 16, 1),
    (1, 6, "random:5", 6, 2, 8, 1),
    (6, 1, "fixed:2", 6, 2, 8, 1),
    (2, 3, "random:3", 1, 3, 1, 1),
]


def _workload(name: str, seed: int):
    """A perfbench workload's artifacts at one seed, seeded as perfbench seeds it."""
    seeds = seed_overrides(name, seed)
    if name != "bundle":
        return lambda out_dir: run_experiment(merge_config({**WORKLOADS[name].config, **seeds}), str(out_dir), name)

    def write_bundle(out_dir):
        for entry, config in default_bundle():
            run_experiment(_with_seeds(config, seeds), str(out_dir), entry)

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


def synthetic_label(case):
    """The golden file name, without .qc, of one SYNTHETIC_CIRCUITS case."""
    width, height, cr, depth_k, rpl, qpc, seed = case
    return f"synthetic-{width}x{height}-{cr.replace(':', '')}-d{depth_k}-rpl{rpl}-n{qpc}-seed{seed}"


def synthetic_circuit(case):
    """The synthetic generator's circuit for one SYNTHETIC_CIRCUITS case."""
    width, height, cr, depth_k, rpl, qpc, seed = case
    spec = SynthSpec(target_depth=depth_k, requests_per_layer=rpl, cr_mode=CrMode.parse(cr), seed=seed)
    return gen_synthetic(spec, MeshTopology(width, height), qpc)


def _circuits(out_dir):
    """The generators' circuits in the circuit text format: the named ones at
    the bundle's sizes, and each SYNTHETIC_CIRCUITS case in a file named after it."""
    circuits = {
        "qft32": gen_qft(32),
        "cuccaro15": gen_cuccaro(15),
        "mcmt12x9": gen_mcmt(12, 9),
        "qv32x5-seed7": gen_quantum_volume(32, 5, 7),
    }
    for case in SYNTHETIC_CIRCUITS:
        circuits[synthetic_label(case)] = synthetic_circuit(case)
    for label, circuit in circuits.items():
        (out_dir / f"{label}.qc").write_text(serialize_circuit(circuit), encoding="utf-8")


ARTIFACTS = {
    **{f"{name}-seed{seed}": _workload(name, seed) for name in WORKLOADS for seed in (1, 7)},
    **{f"log-{name.replace(' ', '-')}": _logs(cfg) for name, (cfg, *_) in EAGER_LOGS.items()},
    "golden-cfg": lambda out_dir: run_experiment(
        merge_config(load_config(str(DATA / "golden.cfg"))), str(out_dir), "golden"
    ),
    "circuits": _circuits,
}

if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for entry, write in ARTIFACTS.items():
        (GOLDEN / entry).mkdir(parents=True)
        write(GOLDEN / entry)
