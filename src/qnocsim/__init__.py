"""Deterministic simulator for teleportation-based interconnects on 2D
meshes of quantum cores: hop-by-hop versus two-way teleportation routing,
end-to-end communication delay, and expanded circuit depth."""

from .benchgen import CrMode, GenerationError, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic
from .circuit import Circuit, Gate, ParseError, layerize, parse_circuit, serialize_circuit
from .engine import SimConfig, SimReport, audit_resources, run
from .placement import CapacityError, PlacementMap
from .protocol import ProtocolError, TimingConfig
from .strategy import plan
from .topology import MeshTopology

__all__ = [
    "CapacityError",
    "Circuit",
    "CrMode",
    "Gate",
    "GenerationError",
    "MeshTopology",
    "ParseError",
    "PlacementMap",
    "ProtocolError",
    "SimConfig",
    "SimReport",
    "SynthSpec",
    "TimingConfig",
    "audit_resources",
    "gen_cuccaro",
    "gen_mcmt",
    "gen_qft",
    "gen_quantum_volume",
    "gen_synthetic",
    "layerize",
    "parse_circuit",
    "plan",
    "run",
    "serialize_circuit",
]
