import itertools

import pytest

from oracles import random_circuit
from qnocsim.engine import SimConfig, run
from qnocsim.protocol import TimingConfig
from qnocsim.topology import MeshTopology


@pytest.fixture(scope="session")
def grid():
    """1,200 whole-run cases as (case, circuit, cfg, report), each run once per session. The
    durations are non-integral, so an invariant that holds only up to rounding fails."""
    cases = []
    for mesh, n, m, p_bsm, pipelined, strategy, seed in itertools.product(
        [MeshTopology(2, 2), MeshTopology(3, 3), MeshTopology(4, 1), MeshTopology(1, 4), MeshTopology(4, 3)],
        (1, 2, 3), (1, 2), (1.0, 0.5), (False, True), ("hh", "twt"), range(1, 6),
    ):
        circuit = random_circuit(mesh.num_cores * n, 30, seed)
        timing = TimingConfig(t_epr=0.1, t_meas=1 / 3, t_classical=0.7, t_correct=0.05, t_gate=0.3, p_bsm=p_bsm)
        cfg = SimConfig(topology=mesh, n_per_core=n, m_per_core=m, timing=timing, strategy=strategy, seed=seed,
                        pipeline_hops=pipelined)
        case = (mesh.width, mesh.height, n, m, p_bsm, pipelined, strategy, seed)
        cases.append((case, circuit, cfg, run(circuit, cfg)))
    assert len(cases) == 1200
    return cases
