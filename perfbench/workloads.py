"""The benchmark's workloads as qnocsim experiment configurations.

Pure data, so run.py can read it without importing qnocsim. Every seed a
workload uses is derived from the benchmark's ``--seed``; ``--seed 1``
reproduces the shipped ``qnocsim bundle`` exactly. Why each workload was
chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # CSV rows (engine runs) one pass writes
    passes_per_sample: int  # passes one timed process makes, so that a sample lasts about a second
    config: dict[str, str] = field(default_factory=dict)  # overrides on qnocsim's DEFAULTS; none for the bundle
    tiny: dict[str, str] = field(default_factory=dict)  # further overrides for the benchmark's own tests
    tiny_rows: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # The tiny bundle keeps only the four bench_* entries.
        Workload(name="bundle", rows=176, passes_per_sample=4, tiny_rows=8),
        Workload(
            name="qv_contended",
            rows=2,
            passes_per_sample=1,
            config={
                "kind": "compare", "workload": "qv", "qv.qubits": "1024", "qv.layers": "20",
                "mesh.width": "16", "mesh.height": "16", "sim.n_per_core": "4", "sim.m_per_core": "1",
                "timing.p_bsm": "0.5",
            },
            tiny={"qv.qubits": "64", "qv.layers": "4", "mesh.width": "4", "mesh.height": "4"},
            tiny_rows=2,
        ),
        Workload(
            name="qft_allpairs",
            rows=2,
            passes_per_sample=1,
            config={
                "kind": "compare", "workload": "qft", "qft.qubits": "256", "mesh.width": "2",
                "mesh.height": "2", "sim.n_per_core": "64", "sim.m_per_core": "2", "timing.p_bsm": "1",
            },
            tiny={"qft.qubits": "16", "sim.n_per_core": "4"},
            tiny_rows=2,
        ),
        Workload(
            name="synth_pipelined",
            rows=8,
            passes_per_sample=1,
            config={
                "kind": "sweep", "workload": "synthetic", "mesh.width": "8", "mesh.height": "8",
                "sim.n_per_core": "16", "sim.m_per_core": "2", "timing.p_bsm": "0.5",
                "sim.pipeline_hops": "true", "synthetic.depth": "40", "sweep.requests": "320,640",
                "sweep.cr": "random:14",
            },
            tiny={
                "mesh.width": "4", "mesh.height": "4", "synthetic.depth": "10", "sweep.requests": "40",
                "sweep.cr": "random:6",
            },
            tiny_rows=4,
        ),
    )
}


def seed_overrides(name: str, seed: int) -> dict[str, str]:
    """Config keys that carry a workload's seeds, all derived from ``seed``.

    Sweeps get consecutive seed blocks (seed 1 gives the bundle's own 1,2,3)
    and qv.seed is offset so that seed 1 gives the shipped default of 7.
    """
    keys = {"sim.seed": str(seed), "qv.seed": str(seed + 6)}
    if name == "bundle":
        keys["sweep.seeds"] = ",".join(str(3 * seed - k) for k in (2, 1, 0))
    elif name == "synth_pipelined":
        keys["sweep.seeds"] = ",".join(str(2 * seed - k) for k in (1, 0))
    return keys
