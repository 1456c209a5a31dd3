"""Redundancy-guided hazard analysis for digital I&C systems.

Pipeline: declarative system model -> layered control structure -> unsafe
control actions -> integrated hardware/software fault tree -> common-cause
failure injection -> minimal cut sets -> SPOF and causal-factor reporting.
"""

from .ccf import CcfEvent, enumerate_ccf_catalog, inject_ccfs
from .cutset import (
    CutSet,
    CutSetCollection,
    brute_force_cut_sets,
    evaluate_structure_function,
    extract_spofs,
    random_coherent_tree,
    solve_minimal_cut_sets,
    witness_check,
)
from .faulttree import (
    BasicEvent,
    EventKind,
    FaultTree,
    Gate,
    GateKind,
    build_hardware_fault_tree,
    extract_subtree,
    filter_events,
    from_exchange_json,
    integrate_ucas,
    to_exchange_json,
)
from .fixtures import build_rts_document, build_rts_reference_model
from .report import (
    CausalFactorWorksheet,
    GuidanceBank,
    generate_worksheets,
    render_analysis_report,
)
from .stpa import (
    ControlAction,
    ControlStructure,
    UcaRecord,
    build_layered_control_structure,
    enumerate_ucas,
    select_ucas_for_top_event,
)
from .sysmodel import (
    CcfPolicy,
    NodeId,
    RedundancyGroup,
    SystemModel,
    derive_redundancy_groups,
    format_node_id,
    parse_node_id,
    parse_system_model,
)

__version__ = "0.1.0"

__all__ = [
    "BasicEvent",
    "CausalFactorWorksheet",
    "CcfEvent",
    "CcfPolicy",
    "ControlAction",
    "ControlStructure",
    "CutSet",
    "CutSetCollection",
    "EventKind",
    "FaultTree",
    "Gate",
    "GateKind",
    "GuidanceBank",
    "NodeId",
    "RedundancyGroup",
    "SystemModel",
    "UcaRecord",
    "brute_force_cut_sets",
    "build_hardware_fault_tree",
    "build_layered_control_structure",
    "build_rts_document",
    "build_rts_reference_model",
    "derive_redundancy_groups",
    "enumerate_ccf_catalog",
    "enumerate_ucas",
    "evaluate_structure_function",
    "extract_spofs",
    "extract_subtree",
    "filter_events",
    "format_node_id",
    "from_exchange_json",
    "generate_worksheets",
    "inject_ccfs",
    "integrate_ucas",
    "parse_node_id",
    "parse_system_model",
    "random_coherent_tree",
    "render_analysis_report",
    "select_ucas_for_top_event",
    "solve_minimal_cut_sets",
    "to_exchange_json",
    "witness_check",
]
