from __future__ import annotations

import hashlib
import logging

import pytest

from resha.ccf import _candidates, catalog_to_csv, enumerate_ccf_catalog, inject_ccfs
from resha.cutset import evaluate_structure_function, solve_minimal_cut_sets
from resha.faulttree import (
    CCF_KINDS,
    EventKind,
    FaultTreeError,
    build_hardware_fault_tree,
    from_exchange_json,
    hw_gate_id,
    integrate_ucas,
    sw_gate_id,
    to_exchange_json,
)
from resha.sysmodel import CcfPolicy, EquipmentClass, GroupScope, RedundancyGroup, parse_node_id

from golden import TOP_AUTOMATIC, TOP_FULL, TOP_RPS

CROSS_UV_PATH_HW = {
    "SP-HD-CCF",
    "LC-BP-HD-CCF",
    "LC-LP-HD-CCF",
    "LC-DOM-HD-CCF",
    "RTB-UV-HD-CCF",
}
CROSS_UV_PATH_SW = {
    "SP-SF-CCF-TA",
    "SP-SF-CCF-TC",
    "LC-BP-SF-CCF-TA",
    "LC-BP-SF-CCF-TC",
    "LC-LP-SF-CCF-TA",
    "LC-LP-SF-CCF-TC",
    "LC-DOM-SF-CCF-TA",
    "LC-DOM-SF-CCF-TC",
}


def sp_groups(rts_groups):
    return [g for g in rts_groups if g.equipment.tag == "selective-processor"]


def test_bp_cross_category_c_shared_under_all_divisions(rps_tree):
    name = "LC-BP-SF-CCF-TC"
    assert name in rps_tree.events
    carrying = [
        gate_id
        for gate_id, gate in rps_tree.gates.items()
        if name in gate.children and gate_id.startswith("SW::")
    ]
    divisions = {gate_id.split("::")[1][0] for gate_id in carrying}
    assert divisions == {"A", "B", "C", "D"}
    # One shared basic event, not one per attachment point.
    assert sum(1 for e in rps_tree.events if e == name) == 1


def test_rps_uv_path_cross_ccf_counts(rps_tree):
    cross_hw = {
        e.id
        for e in rps_tree.events.values()
        if e.kind is EventKind.HW_CCF and "DIV" not in e.id
    }
    cross_sw = {
        e.id
        for e in rps_tree.events.values()
        if e.kind is EventKind.SW_CCF and "DIV" not in e.id
    }
    assert cross_hw == CROSS_UV_PATH_HW
    assert cross_sw == CROSS_UV_PATH_SW


def test_fully_diverse_model_unchanged(rts_model, rts_selected):
    tree = build_hardware_fault_tree(rts_model, "ST-A-FAILS")
    injected = inject_ccfs(tree, (), rts_model.ccf_policy)
    assert set(injected.events) == set(tree.events)
    assert set(injected.gates) == set(tree.gates)


def test_sp_catalog_intra_plus_cross(rts_groups, rts_model):
    catalog = enumerate_ccf_catalog(sp_groups(rts_groups), rts_model.ccf_policy)
    hw = [e for e in catalog if e.kind is EventKind.HW_CCF]
    intra = [e for e in hw if e.group.scope is GroupScope.INTRA_DIVISION]
    cross = [e for e in hw if e.group.scope is GroupScope.CROSS_DIVISION]
    assert len(intra) == 4
    assert len(cross) == 1
    sw = [e for e in catalog if e.kind is EventKind.SW_CCF]
    # Categories a, b, c are always cataloged for software-capable groups.
    assert len(sw) == 3 * 5


def test_singleton_class_catalog_empty(rts_model):
    assert enumerate_ccf_catalog((), rts_model.ccf_policy) == ()


def test_catalog_superset_of_injected(rts_groups, rts_model):
    for policy in (
        rts_model.ccf_policy,
        CcfPolicy(include_intra_division=False),
        CcfPolicy(include_cross_all_divisions=False),
        CcfPolicy(software_categories=("b",)),
    ):
        catalog = {e.name for e in enumerate_ccf_catalog(rts_groups, policy)}
        assert {c.name for c in _candidates(rts_groups, policy)} <= catalog


def test_policy_monotonicity(rts_groups):
    narrow = CcfPolicy(
        include_intra_division=False,
        include_cross_all_divisions=True,
        software_categories=("a",),
    )
    wide = CcfPolicy(
        include_intra_division=True,
        include_cross_all_divisions=True,
        software_categories=("a", "c"),
    )
    assert {c.name for c in _candidates(rts_groups, narrow)} <= {
        c.name for c in _candidates(rts_groups, wide)
    }


def test_partial_interdivision_combinations_optional(rts_groups):
    without = {c.name for c in _candidates(rts_groups, CcfPolicy())}
    with_partial = {
        c.name for c in _candidates(rts_groups, CcfPolicy(include_partial_interdivision=True))
    }
    assert without <= with_partial
    extra = with_partial - without
    assert extra
    assert all("-DIV" in name for name in extra)
    # Pairs and triples of four divisions, never the full span.
    assert any("DIVAB-" in name for name in extra)
    assert not any("DIVABCD-" in name for name in extra)


def test_partial_subsets_that_build_one_name_raise():
    """Division tags join without a separator: the subsets A, BC and AB, C are both DIVABC."""
    members = tuple(parse_node_id(f"{d}00.00.01") for d in ("A", "AB", "BC", "C"))
    group = RedundancyGroup(EquipmentClass("pump", "PMP", "Pump"), GroupScope.CROSS_DIVISION, members)
    with pytest.raises(FaultTreeError, match="two CCF events are named 'PMP-DIVABC-HD-CCF'"):
        enumerate_ccf_catalog([group], CcfPolicy(include_partial_interdivision=True))


def test_analog_group_software_skipped_with_warning(rts_model, rts_groups, rps_tree, caplog):
    uv_groups = [g for g in rts_groups if g.equipment.tag == "rtb-undervoltage"]
    policy = CcfPolicy(software_categories=("a", "c"))
    base = build_hardware_fault_tree(rts_model, TOP_RPS)
    with caplog.at_level(logging.WARNING, logger="resha.ccf"):
        injected = inject_ccfs(base, uv_groups, policy)
    assert "RTB-UV-HD-CCF" in injected.events
    assert "RTB-UV-SF-CCF-TA" not in injected.events
    assert any("no software subtree" in record.getMessage() for record in caplog.records)


def test_shared_event_counts_once_in_cut_sets(rps_tree):
    css = solve_minimal_cut_sets(rps_tree, 1)
    for cut in css.cut_sets:
        assert cut.order == 1
        assert len(cut.events) == 1


def test_every_cross_ccf_alone_fails_rps_top(rps_tree):
    cross = sorted(CROSS_UV_PATH_HW | CROSS_UV_PATH_SW)
    for name in cross:
        assignment = {eid: eid == name for eid in rps_tree.events}
        assert evaluate_structure_function(rps_tree, assignment), name


def test_catalog_csv_columns(rts_groups, rts_model):
    text = catalog_to_csv(enumerate_ccf_catalog(rts_groups, rts_model.ccf_policy))
    lines = text.splitlines()
    assert lines[0] == "name,class,scope,kind,category,members"
    assert len(lines) > 20


def test_widening_the_ccf_policy_keeps_a_cut_set_inside_each(rts_model, rts_selected, rts_groups, rps_tree):
    """Partial CCFs only add OR inputs, so each default-policy cut set contains
    a cut set of the widened policy, of no higher order, at the same truncation."""
    tree = integrate_ucas(build_hardware_fault_tree(rts_model, TOP_RPS), rts_selected)
    wide = inject_ccfs(tree, rts_groups, rts_model.ccf_policy._replace(include_partial_interdivision=True))
    narrow_sets = solve_minimal_cut_sets(rps_tree, 3).cut_sets
    wide_sets = solve_minimal_cut_sets(wide, 3).cut_sets
    assert (len(narrow_sets), len(wide_sets)) == (829, 3300)
    # A cut set inside ``cut`` has its least event in ``cut``.
    by_least: dict[str, list[frozenset[str]]] = {}
    for w in wide_sets:
        by_least.setdefault(min(w.events), []).append(w.events)
    for cut in narrow_sets:
        assert any(w <= cut.events for e in cut.events for w in by_least.get(e, ())), cut.sorted_events()


def test_members_absent_from_scope_are_ignored(rts_model, rts_groups):
    # The manual-trip classes never appear in the RPS (UV path) tree, so
    # their CCFs must not be injected there.
    base = build_hardware_fault_tree(rts_model, TOP_RPS)
    injected = inject_ccfs(base, rts_groups, rts_model.ccf_policy)
    assert "RTB-MT-MCR-HD-CCF" not in injected.events
    assert "RTB-ST-HD-CCF" not in injected.events


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Exchange-format bytes of the integrated reference trees: they pin which
# CCF events are injected and the order in which they attach to each gate.
@pytest.mark.parametrize(
    "fixture, digest",
    [
        ("rps_tree", "af6bcac630383a615b05c92479c8438a90b5fff8f4acc887311a2debdfcae377"),
        ("auto_tree", "54d180c1497ab2f4f0bbdb29b21993bec4369c5fc190ba499e9881e66e35b094"),
        ("full_tree", "5e07d058ea11bf77b191bcc91f870a7eb1d5f3f38f3d21773c1aeb2754ea0a2f"),
    ],
)
def test_integrated_tree_bytes_pinned(fixture, digest, request):
    assert sha256(to_exchange_json(request.getfixturevalue(fixture))) == digest


@pytest.mark.parametrize(
    "partial, digest",
    [
        (False, "817ca3ea626e6ce744f425c393aa8b2618f9143643b1fa03aad8423a3b1a25f2"),
        (True, "a76d141f50a2e19a8629182ec99a24546407970f0f8a404641724945c8fbaecb"),
    ],
)
def test_catalog_bytes_pinned(partial, digest, rts_groups, rts_model):
    policy = rts_model.ccf_policy._replace(include_partial_interdivision=partial)
    assert sha256(catalog_to_csv(enumerate_ccf_catalog(rts_groups, policy))) == digest


@pytest.mark.parametrize(
    "top, partial",
    [
        (TOP_FULL, False),
        (TOP_FULL, True),
        (TOP_RPS, False),
        (TOP_RPS, True),
        (TOP_AUTOMATIC, True),
        ("DOM1-A-SILENT", False),
        ("DOM1-A-SILENT", True),
    ],
)
def test_ccf_events_attach_where_the_naming_functions_point(
    top, partial, rts_model, rts_selected, rts_groups
):
    """A hardware CCF sits under each subject's hardware gate and a software
    CCF under each software gate of its subjects, where the tree holds one; a tree
    read back from its exchange document injects byte for byte the same."""
    tree = integrate_ucas(build_hardware_fault_tree(rts_model, top), rts_selected)
    policy = rts_model.ccf_policy._replace(include_partial_interdivision=partial)
    injected = inject_ccfs(tree, rts_groups, policy)
    parents: dict[str, set[str]] = {}
    for gate in injected.gates.values():
        for child in gate.children:
            parents.setdefault(child, set()).add(gate.id)
    targets: dict[object, list] = {}
    for action in rts_model.actions:
        targets.setdefault(action.source, []).append(action.target)
    ccfs = [e for e in injected.events.values() if e.kind in CCF_KINDS]
    assert any(e.kind is EventKind.HW_CCF for e in ccfs)
    assert any(e.kind is EventKind.SW_CCF for e in ccfs)
    for event in ccfs:
        if event.kind is EventKind.HW_CCF:
            named = [hw_gate_id(s) for s in event.subjects]
        else:
            named = [sw_gate_id(s, t) for s in event.subjects for t in [None, *targets.get(s, ())]]
        assert parents[event.id] == {g for g in named if g in injected.gates}, event.id
    read_back = inject_ccfs(from_exchange_json(to_exchange_json(tree)), rts_groups, policy)
    assert to_exchange_json(read_back) == to_exchange_json(injected)
