from __future__ import annotations

import pytest

from resha.ccf import inject_ccfs
from resha.faulttree import FaultTree, build_hardware_fault_tree, integrate_ucas
from resha.fixtures import build_rts_reference_model
from resha.stpa import (
    build_layered_control_structure,
    enumerate_ucas,
    select_ucas_for_top_event,
)
from resha.sysmodel import SystemModel, derive_redundancy_groups

from golden import TOP_AUTOMATIC, TOP_FULL, TOP_RPS


@pytest.fixture(scope="session")
def rts_model() -> SystemModel:
    return build_rts_reference_model()


@pytest.fixture(scope="session")
def rts_cs(rts_model):
    return build_layered_control_structure(rts_model)


@pytest.fixture(scope="session")
def rts_ucas(rts_model, rts_cs):
    return enumerate_ucas(rts_cs)


@pytest.fixture(scope="session")
def rts_selected(rts_ucas):
    return select_ucas_for_top_event(rts_ucas)


@pytest.fixture(scope="session")
def rts_groups(rts_model):
    return derive_redundancy_groups(rts_model)


def integrated_tree(model, selected, groups, top) -> FaultTree:
    """Hardware tree at ``top`` with in-scope UCAs and CCFs attached."""
    tree = integrate_ucas(build_hardware_fault_tree(model, top), selected)
    return inject_ccfs(tree, groups, model.ccf_policy)


@pytest.fixture(scope="session")
def rps_tree(rts_model, rts_selected, rts_groups) -> FaultTree:
    return integrated_tree(rts_model, rts_selected, rts_groups, TOP_RPS)


@pytest.fixture(scope="session")
def full_tree(rts_model, rts_selected, rts_groups) -> FaultTree:
    return integrated_tree(rts_model, rts_selected, rts_groups, TOP_FULL)


@pytest.fixture(scope="session")
def auto_tree(rts_model, rts_selected, rts_groups) -> FaultTree:
    return integrated_tree(rts_model, rts_selected, rts_groups, TOP_AUTOMATIC)
