from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from resha.cutset import (
    CutSet,
    CutSetError,
    EvaluationError,
    ResourceLimitError,
    brute_force_cut_sets,
    evaluate_structure_function,
    extract_spofs,
    random_coherent_tree,
    solve_minimal_cut_sets,
    tree_fingerprint,
    witness_check,
    _bit_subsets,
    _collect,
    _combine,
    _minimize,
    _order_budgets,
    _plan,
    _rename,
    _supports_and_bounds,
)
from resha.faulttree import BasicEvent, EventKind, FaultTree, Gate, GateKind, extract_subtree
from resha.sysmodel import NodeId


def ev(eid: str, kind=EventKind.HW_INDEP) -> BasicEvent:
    subjects = (NodeId("XA", 0, 0, 1),)
    if kind in (EventKind.HW_CCF, EventKind.SW_CCF):
        subjects = (NodeId("XA", 0, 0, 1), NodeId("XB", 0, 0, 1))
    return BasicEvent(id=eid, kind=kind, subjects=subjects)


def tree(top: str, gates: dict[str, Gate], event_ids, ccf=()) -> FaultTree:
    events = {e: ev(e, EventKind.HW_CCF if e in ccf else EventKind.HW_INDEP) for e in event_ids}
    return FaultTree(top=top, gates=gates, events=events)


def simple_or():
    return tree(
        "TOP",
        {"TOP": Gate(id="TOP", kind=GateKind.OR, children=("A", "B"))},
        ["A", "B"],
    )


def test_or_gives_singletons():
    css = solve_minimal_cut_sets(simple_or())
    assert {c.events for c in css.cut_sets} == {frozenset({"A"}), frozenset({"B"})}


def test_absorption_law():
    ft = tree(
        "TOP",
        {
            "TOP": Gate(id="TOP", kind=GateKind.OR, children=("G1", "A")),
            "G1": Gate(id="G1", kind=GateKind.AND, children=("A", "B")),
        },
        ["A", "B"],
    )
    css = solve_minimal_cut_sets(ft)
    assert {c.events for c in css.cut_sets} == {frozenset({"A"})}


def test_vote_two_of_three():
    ft = tree(
        "TOP",
        {"TOP": Gate(id="TOP", kind=GateKind.VOTE, k=2, children=("A", "B", "C"))},
        ["A", "B", "C"],
    )
    css = solve_minimal_cut_sets(ft)
    assert {c.events for c in css.cut_sets} == {
        frozenset({"A", "B"}),
        frozenset({"A", "C"}),
        frozenset({"B", "C"}),
    }


def test_brute_force_and():
    ft = tree(
        "TOP",
        {"TOP": Gate(id="TOP", kind=GateKind.AND, children=("A", "B"))},
        ["A", "B"],
    )
    css = brute_force_cut_sets(ft)
    assert {c.events for c in css.cut_sets} == {frozenset({"A", "B"})}


def test_single_event_tree():
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.OR, children=("E",))}, ["E"])
    assert {c.events for c in solve_minimal_cut_sets(ft).cut_sets} == {frozenset({"E"})}
    assert {c.events for c in brute_force_cut_sets(ft).cut_sets} == {frozenset({"E"})}


def test_event_as_top():
    ft = FaultTree(top="E", gates={}, events={"E": ev("E")})
    assert {c.events for c in solve_minimal_cut_sets(ft).cut_sets} == {frozenset({"E"})}
    assert {c.events for c in brute_force_cut_sets(ft).cut_sets} == {frozenset({"E"})}


def test_brute_force_event_limit():
    ids = [f"E{i:02d}" for i in range(21)]
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.OR, children=tuple(ids))}, ids)
    with pytest.raises(CutSetError):
        brute_force_cut_sets(ft)


def test_evaluate_all_false_and_all_true(full_tree):
    ids = sorted(full_tree.events)
    assert evaluate_structure_function(full_tree, {e: False for e in ids}) is False
    assert evaluate_structure_function(full_tree, {e: True for e in ids}) is True


def test_evaluate_requires_total_assignment(full_tree):
    ids = sorted(full_tree.events)
    with pytest.raises(EvaluationError):
        evaluate_structure_function(full_tree, {e: False for e in ids[:-1]})


def test_oracle_equivalence_randomized():
    rng = random.Random(12345)
    for _ in range(200):
        ft = random_coherent_tree(rng)
        solver = {c.events for c in solve_minimal_cut_sets(ft).cut_sets}
        oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
        assert solver == oracle


def test_truncation_soundness_randomized():
    rng = random.Random(999)
    for _ in range(60):
        ft = random_coherent_tree(rng)
        untruncated = solve_minimal_cut_sets(ft)
        full = {c.events for c in untruncated.cut_sets}
        previous: list[tuple[int, int]] = []
        for k in range(1, 7):
            truncated = solve_minimal_cut_sets(ft, k)
            got = {c.events for c in truncated.cut_sets}
            want = {s for s in full if len(s) <= k}
            assert got == want
            rows = [(o, c) for o, c, _ in truncated.rows()]
            assert rows[: len(previous)] == previous
            previous = rows
        assert untruncated.truncation is None


def test_witness_property_randomized():
    rng = random.Random(321)
    for _ in range(60):
        ft = random_coherent_tree(rng)
        for cut in solve_minimal_cut_sets(ft).cut_sets:
            assert witness_check(ft, cut)


@pytest.mark.parametrize(("n", "k"), [(1, 1), (6, 1), (6, 3), (6, 6), (20, 2), (20, 3)])
def test_oracle_vote_over_independent_events_gives_every_k_subset(n, k):
    ids = [f"E{i:02d}" for i in range(n)]
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.VOTE, k=k, children=tuple(ids))}, ids)
    css = brute_force_cut_sets(ft)
    assert len(css) == math.comb(n, k)
    assert {c.events for c in css.cut_sets} == {frozenset(c) for c in itertools.combinations(ids, k)}


def _assert_witness_rejects_non_minimal(ft, cut_sets):
    ids = sorted(ft.events)
    for cut in cut_sets:
        extra = next((e for e in ids if e not in cut.events), None)
        if extra is not None:
            assert not witness_check(ft, CutSet(cut.events | {extra}, cut.contains_ccf))
        members = sorted(cut.events)
        for r in range(1, len(members)):
            for part in itertools.combinations(members, r):
                assert not witness_check(ft, CutSet(frozenset(part), cut.contains_ccf))


def test_witness_rejects_supersets_and_proper_subsets_randomized():
    rng = random.Random(4242)
    for _ in range(60):
        ft = random_coherent_tree(rng)
        _assert_witness_rejects_non_minimal(ft, solve_minimal_cut_sets(ft).cut_sets)


def test_witness_rejects_supersets_and_proper_subsets_rps(rps_tree):
    cut_sets = solve_minimal_cut_sets(rps_tree, 2).cut_sets
    assert all(witness_check(rps_tree, c) for c in cut_sets)
    _assert_witness_rejects_non_minimal(rps_tree, cut_sets)


def test_antichain_randomized():
    rng = random.Random(777)
    for _ in range(60):
        ft = random_coherent_tree(rng)
        sets = [c.events for c in solve_minimal_cut_sets(ft).cut_sets]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a <= b


def test_solver_deterministic():
    rng = random.Random(5150)
    for _ in range(10):
        ft = random_coherent_tree(rng)
        serial = solve_minimal_cut_sets(ft)
        again = solve_minimal_cut_sets(ft)
        assert serial.to_csv() == again.to_csv()
        assert serial.fingerprint == tree_fingerprint(ft)


def test_resource_budget_reports_progress():
    ids = [f"E{i:02d}" for i in range(12)]
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.VOTE, k=6, children=tuple(ids)),
    }
    ft = tree("TOP", gates, ids)
    with pytest.raises(ResourceLimitError) as exc:
        solve_minimal_cut_sets(ft, max_sets=100)
    assert "progress" in str(exc.value)
    assert exc.value.largest_gate is None and exc.value.largest_rows == 0

    # A finished 12-row OR is the largest gate seen when its sibling overflows.
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.AND, children=("G1", "G2")),
        "G1": Gate(id="G1", kind=GateKind.OR, children=tuple(ids)),
        "G2": Gate(id="G2", kind=GateKind.VOTE, k=6, children=tuple(ids)),
    }
    with pytest.raises(ResourceLimitError) as exc:
        solve_minimal_cut_sets(tree("TOP", gates, ids), max_sets=100)
    assert "progress" in str(exc.value)
    assert (exc.value.largest_gate, exc.value.largest_rows) == ("G1", 12)
    assert "'G1' kept 12 rows" in str(exc.value)


def _pairs_tree() -> FaultTree:
    """AND of two disjoint ORs: 2 + 1 rows by 3 rows, taken whole (need <= 0), 9 sets."""
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.AND, children=("G1", "G2")),
        "G1": Gate(id="G1", kind=GateKind.OR, children=("A1", "A2", "P")),
        "P": Gate(id="P", kind=GateKind.AND, children=("A3", "A4")),
        "G2": Gate(id="G2", kind=GateKind.OR, children=("B1", "B2", "B3")),
    }
    return tree("TOP", gates, ["A1", "A2", "A3", "A4", "B1", "B2", "B3"])


def _join_tree() -> FaultTree:
    """AND of two ORs of pairs sharing E0: at order 3 every pair joins on E0, 9 sets."""
    gates = {"TOP": Gate(id="TOP", kind=GateKind.AND, children=("G1", "G2"))}
    events = ["E0"]
    for or_id, side in (("G1", "X"), ("G2", "Y")):
        pairs = (f"{side}1", f"{side}2", f"{side}3")
        gates[or_id] = Gate(id=or_id, kind=GateKind.OR, children=pairs)
        for p in pairs:
            gates[p] = Gate(id=p, kind=GateKind.AND, children=("E0", f"{p}E"))
            events.append(f"{p}E")
    return tree("TOP", gates, events)


@pytest.mark.parametrize("ft, max_order", [(_pairs_tree(), None), (_join_tree(), 3)], ids=["whole", "join"])
def test_and_budget_boundary(ft, max_order):
    # The AND's rows are counted as pushed: exactly max_sets pass, one more does not.
    css = solve_minimal_cut_sets(ft, max_order, max_sets=9)
    assert len(css.cut_sets) == 9
    with pytest.raises(ResourceLimitError) as exc:
        solve_minimal_cut_sets(ft, max_order, max_sets=8)
    assert str(exc.value).startswith("cut set expansion exceeded budget of 8 rows at gate 'TOP'")


def test_or_budget_counts_the_rows_of_all_children():
    """An OR of two 9-row ANDs: each child fits 17 rows, their 18 together do not."""
    gates = {"TOP": Gate(id="TOP", kind=GateKind.OR, children=("G1", "G2"))}
    for gate_id, (x, y) in {"G1": "AB", "G2": "CD"}.items():
        gates[gate_id] = Gate(id=gate_id, kind=GateKind.AND, children=(x, y))
        for name in (x, y):
            gates[name] = Gate(id=name, kind=GateKind.OR, children=tuple(f"{name}{i}" for i in range(3)))
    ft = tree("TOP", gates, [f"{name}{i}" for name in "ABCD" for i in range(3)])
    assert len(solve_minimal_cut_sets(ft, max_sets=18).cut_sets) == 18
    with pytest.raises(ResourceLimitError) as exc:
        solve_minimal_cut_sets(ft, max_sets=17)
    assert str(exc.value).startswith("cut set expansion exceeded budget of 17 rows at gate 'TOP'")
    assert (exc.value.largest_gate, exc.value.largest_rows) == ("G1", 9)


def test_cut_set_must_be_non_empty():
    with pytest.raises(CutSetError):
        CutSet(events=frozenset(), contains_ccf=False)


def test_spofs_flag_ccf_only_sets():
    ft = tree(
        "TOP",
        {
            "TOP": Gate(id="TOP", kind=GateKind.OR, children=("X", "G1", "CCF-Y")),
            "G1": Gate(id="G1", kind=GateKind.AND, children=("A", "B")),
        },
        ["X", "A", "B", "CCF-Y"],
        ccf=["CCF-Y"],
    )
    css = solve_minimal_cut_sets(ft)
    report = extract_spofs(css)
    names = {c.sorted_events()[0]: c.contains_ccf for c in report.spofs}
    assert names == {"X": False, "CCF-Y": True}


def test_spofs_fall_back_to_next_lowest_order():
    ft = tree(
        "TOP",
        {"TOP": Gate(id="TOP", kind=GateKind.VOTE, k=2, children=("A", "B", "C"))},
        ["A", "B", "C"],
    )
    report = extract_spofs(solve_minimal_cut_sets(ft))
    assert not report.has_spofs
    assert report.fallback_order == 2
    assert len(report.fallback_sets) == 3


def test_spofs_empty_collection():
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.OR, children=())}, [])
    report = extract_spofs(solve_minimal_cut_sets(ft))
    assert not report.has_spofs
    assert report.fallback_order is None


def test_histogram_cumulative_counts():
    ft = tree(
        "TOP",
        {
            "TOP": Gate(id="TOP", kind=GateKind.OR, children=("X", "G1")),
            "G1": Gate(id="G1", kind=GateKind.AND, children=("A", "B")),
        },
        ["X", "A", "B"],
    )
    css = solve_minimal_cut_sets(ft)
    assert css.per_order.get(1, 0) == 1
    assert css.per_order.get(2, 0) == 1
    assert css.cumulative_count(1) == 1
    assert css.cumulative_count(2) == 2


def test_histogram_empty_collection_zeroes():
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.OR, children=())}, [])
    css = solve_minimal_cut_sets(ft, 3)
    assert css.rows() == ((1, 0, 0), (2, 0, 0), (3, 0, 0))


def test_collection_csv_format():
    css = solve_minimal_cut_sets(simple_or())
    lines = css.to_csv().splitlines()
    assert lines[0] == "order,events,contains_ccf"
    assert lines[1] == "1,A,no"


def test_untruncated_solve_keeps_cut_set_of_every_event():
    # The only cut set uses every event, so an untruncated solve must allow
    # that order; the top's children share events, so the submask join runs.
    ft = tree(
        "TOP",
        {
            "TOP": Gate(id="TOP", kind=GateKind.AND, children=("G1", "G2")),
            "G1": Gate(id="G1", kind=GateKind.OR, children=("A", "B")),
            "G2": Gate(id="G2", kind=GateKind.VOTE, k=3, children=("A", "B", "C")),
        },
        ["A", "B", "C"],
    )
    css = solve_minimal_cut_sets(ft)
    assert {c.events for c in css.cut_sets} == {frozenset({"A", "B", "C"})}
    assert css.truncation is None
    assert css.rows() == ((1, 0, 0), (2, 0, 0), (3, 1, 1))


def test_max_order_argument_validated(full_tree):
    with pytest.raises(CutSetError):
        solve_minimal_cut_sets(full_tree, max_order=0)


def test_cli_import_does_not_load_numpy():
    # resha has no runtime dependency: neither the CLI nor the evaluators load numpy.
    code = (
        "import random, sys, resha.cli\n"
        "from resha.cutset import (brute_force_cut_sets, evaluate_structure_function,\n"
        "                          random_coherent_tree, witness_check)\n"
        "ft = random_coherent_tree(random.Random(1))\n"
        "css = brute_force_cut_sets(ft)\n"
        "assert css.cut_sets and all(witness_check(ft, c) for c in css.cut_sets)\n"
        "assert evaluate_structure_function(ft, dict.fromkeys(ft.events, True))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_cli_does_not_load_network_stack(tmp_path):
    # Only to_open_psa_xml needs xml.sax, whose import pulls in urllib, http, email and ssl.
    # Records are named tuples, so neither dataclasses nor the inspect it imports is loaded.
    code = (
        "import sys\n"
        "from importlib import resources\n"
        "from resha.cli import main\n"
        "model = str(resources.files('resha.data') / 'rts_model.json')\n"
        "assert main(['analyze', '--model', model, '--scope', 'RPS', '--truncate', '1',\n"
        "             '--deterministic', '--out', sys.argv[1]]) == 0\n"
        "loaded = [m for m in ('xml.sax', 'urllib.request', 'http.client', 'email', 'ssl', 'socket',\n"
        "                      'dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], check=True, env=env)


def disjoint_support_tree(rng: random.Random, max_events: int = 13) -> FaultTree:
    """Random tree whose AND/VOTE children mostly draw on fresh events.

    ``random_coherent_tree`` draws every child from one shared pool, so the
    disjoint-support budget rule seldom fires there. Here most subtrees get
    their own events; a few shared events, shared gates and empty ORs keep
    the overlapping and never-failing cases covered.
    """
    events: list[str] = []
    gates: dict[str, Gate] = {}

    def leaf() -> str:
        if events and (len(events) >= max_events or rng.random() < 0.15):
            return rng.choice(events)
        events.append(f"E{len(events) + 1:02d}")
        return events[-1]

    def node(depth: int, force_gate: bool = False) -> str:
        if not force_gate:
            if depth == 0 or rng.random() < 0.3:
                return leaf()
            if gates and rng.random() < 0.25:
                return rng.choice(sorted(gates))
        kind = rng.choice([GateKind.AND, GateKind.AND, GateKind.VOTE, GateKind.VOTE, GateKind.OR])
        if kind is GateKind.OR and rng.random() < 0.05:
            children: list[str] = []
        else:
            children = []
            for _ in range(rng.randint(2, 4)):
                child = node(depth - 1)
                if child not in children:
                    children.append(child)
        k = rng.randint(1, len(children)) if kind is GateKind.VOTE else None
        gate_id = f"G{len(gates) + 1}"
        gates[gate_id] = Gate(id=gate_id, kind=kind, children=tuple(children), k=k)
        return gate_id

    return tree(node(3, force_gate=True), gates, events)


def test_order_bounds_and_budgets_sound_on_disjoint_support_trees():
    rng = random.Random(2024)
    narrowed = 0
    for _ in range(150):
        ft = disjoint_support_tree(rng)
        index_of = {eid: i for i, eid in enumerate(sorted(ft.events))}
        supp, shared, lo = _supports_and_bounds(ft, index_of)
        for gate_id in ft.gate_order:
            orders = [c.order for c in brute_force_cut_sets(extract_subtree(ft, gate_id)).cut_sets]
            if orders:
                assert lo[gate_id] <= min(orders), gate_id
        oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
        for k in range(1, 6):
            got = {c.events for c in solve_minimal_cut_sets(ft, k).cut_sets}
            assert got == {s for s in oracle if len(s) <= k}
            budgets = _order_budgets(ft, supp, shared, lo, k)
            narrowed += any(0 < b < k for b in budgets.values())
    # The sibling rule must actually fire, or this test checks nothing new.
    assert narrowed > 100


def test_disjoint_support_skip_matches_oracle():
    """Gates whose children share no events skip absorption; results stay exact."""
    rng = random.Random(7)
    skipped = 0
    for _ in range(120):
        ft = disjoint_support_tree(rng)
        _, shared, _ = _supports_and_bounds(ft, {eid: i for i, eid in enumerate(sorted(ft.events))})
        skipped += sum(1 for g, s in shared.items() if not s and len(ft.gates[g].children) > 1)
        oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
        assert {c.events for c in solve_minimal_cut_sets(ft).cut_sets} == oracle
        for k in (2, 3):
            got = {c.events for c in solve_minimal_cut_sets(ft, k).cut_sets}
            assert got == {s for s in oracle if len(s) <= k}
    # The skip must actually fire, or this test checks nothing new.
    assert skipped > 100


def replicated_tree(rng: random.Random, max_events: int = 20) -> FaultTree:
    """Random template replicated into 2-4 division copies under a VOTE, AND or OR top.

    The template's AND, OR and VOTE gates draw on local leaves, one event per
    division, and on two or three shared leaves, which are drawn twice as
    often. A shared leaf is one CCF event of all divisions or, more often, a
    partial CCF of divisions A and B while the other divisions keep an event
    of their own, so A and B share with a sibling copy and the others do not
    and their budgets differ. The copies sit under the top in a shuffled
    order. In about half the trees one copy is rewired: a leaf slot takes
    another leaf of the same copy, so that copy keeps the shape and changes
    its sharing.
    """
    divisions = "ABCD"[: rng.randint(2, 4)]
    n = len(divisions)
    partial = [rng.random() < 0.8 for _ in range(rng.randint(2, 3))]
    spare = max_events - sum(n - 1 if p else 1 for p in partial)
    leaves = [("L", i) for i in range(rng.randint(1, min(4, spare // n)))]
    shared = [("S", j) for j in range(len(partial))]
    leaves += shared
    template: dict[str, tuple[GateKind, int | None, list]] = {}

    def node(depth: int, force_gate: bool = False):
        if not force_gate:
            if depth == 0 or rng.random() < 0.35:
                return rng.choice(leaves + shared)
            if template and rng.random() < 0.15:
                return rng.choice(sorted(template))
        kind = rng.choice([GateKind.AND, GateKind.OR, GateKind.VOTE])
        children: list = []
        for _ in range(rng.randint(2, 3)):
            child = node(depth - 1)
            if child not in children:
                children.append(child)
        k = rng.randint(1, len(children)) if kind is GateKind.VOTE else None
        name = f"T{len(template)}"
        template[name] = (kind, k, children)
        return name

    root = node(3, force_gate=True)

    def event(division: str, leaf) -> str:
        tag, i = leaf
        if tag == "L":
            return f"{division}L{i}"
        if not partial[i]:
            return f"CCF{i}"
        return f"CCF{i}AB" if division in "AB" else f"{division}S{i}"

    copies = {d: {name: list(children) for name, (_, _, children) in template.items()}
              for d in divisions}
    if rng.random() < 0.5:
        rewired = copies[rng.choice(divisions)]
        slots = [(name, i) for name, children in sorted(rewired.items())
                 for i, child in enumerate(children) if child in leaves]
        name, i = rng.choice(slots)
        others = [leaf for leaf in leaves if leaf not in rewired[name]]
        if others:
            rewired[name][i] = rng.choice(others)

    gates: dict[str, Gate] = {}
    for d in divisions:
        for name, (kind, k, _) in template.items():
            kids = tuple(f"{d}-{c}" if c in template else event(d, c) for c in copies[d][name])
            gates[f"{d}-{name}"] = Gate(id=f"{d}-{name}", kind=kind, children=kids, k=k)
    tops = [f"{d}-{root}" for d in divisions]
    rng.shuffle(tops)
    kind = rng.choice([GateKind.VOTE, GateKind.VOTE, GateKind.AND, GateKind.OR])
    k = rng.randint(2, max(2, n - 1)) if kind is GateKind.VOTE else None
    gates["TOP"] = Gate(id="TOP", kind=kind, children=tuple(tops), k=k)
    # A rewired copy may no longer use one of its events.
    used = sorted({c for g in gates.values() for c in g.children if c not in gates})
    ccf = {event("A", leaf) for leaf in shared}
    return tree("TOP", gates, used, ccf=ccf)


def _planned(ft: FaultTree, max_order: int):
    """(budgets, plan) of a solve truncated at ``max_order``."""
    index_of = {eid: i for i, eid in enumerate(sorted(ft.events))}
    supp, shared, lo = _supports_and_bounds(ft, index_of)
    budgets = _order_budgets(ft, supp, shared, lo, max_order)
    return budgets, _plan(ft, budgets, index_of)


def check_replicated_tree(ft: FaultTree) -> int:
    """Assert the solve of ``ft`` matches the oracle; return how many gates were mapped.

    Besides the top, every mapped gate is checked on its own: its
    representative's oracle cut sets within the representative's budget,
    renamed and cut to the gate's budget, are the gate's oracle cut sets
    within its budget. A wrong pairing or a representative short of budget
    shows there even when the top absorbs the difference.
    """
    oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
    untruncated = solve_minimal_cut_sets(ft)
    assert {c.events for c in untruncated.cut_sets} == oracle
    assert all(witness_check(ft, c) for c in untruncated.cut_sets)
    names = sorted(ft.events)
    bit = {eid: 1 << i for i, eid in enumerate(names)}
    gate_oracle: dict[str, list[frozenset[str]]] = {}

    def within(gate_id: str, order: int) -> set[frozenset[str]]:
        if gate_id not in gate_oracle:
            subtree = extract_subtree(ft, gate_id)
            gate_oracle[gate_id] = [c.events for c in brute_force_cut_sets(subtree).cut_sets]
        return {s for s in gate_oracle[gate_id] if len(s) <= order}

    mapped = 0
    for k in range(1, 5):
        got = {c.events for c in solve_minimal_cut_sets(ft, k).cut_sets}
        assert got == {s for s in oracle if len(s) <= k}
        budgets, plan = _planned(ft, k)
        for gate_id, source in plan.items():
            if source is None:
                continue
            mapped += 1
            rows = [sum(bit[e] for e in s) for s in within(source.rep, budgets[source.rep])]
            renamed = {frozenset(e for e in names if bit[e] & m)
                       for m in _rename(rows, budgets[gate_id], source)}
            assert renamed == within(gate_id, budgets[gate_id]), (gate_id, source.rep, k)
    return mapped


def test_replicated_trees_with_shared_ccf_events_match_oracle():
    """Division copies are solved once and renamed; results stay exact."""
    rng = random.Random(1414)
    mapped = 0
    for _ in range(150):
        ft = replicated_tree(rng)
        assert len(ft.events) <= 20
        mapped += check_replicated_tree(ft)
    # Copies must actually be mapped, or this test checks nothing new.
    assert mapped > 1000


@pytest.mark.parametrize(("scope", "order", "digest"), [
    ("full", 5, "3276ab21ae50d1b6be849bddc71af514dbc4b0987689548ea80c9576747d2040"),
    ("auto", 4, "ac8e53061f11e079939ef2fb8fbb3056c48246b50e1d8189afdfe03922e5384b"),
    ("rps", 4, "2078eb3452170910134755779921cadb7ac9cdfc660b8ac2c97845035ea50b18"),
], ids=["full@5", "AUTO@4", "RPS@4"])
def test_reference_cut_set_csv_bytes(scope, order, digest, request):
    ft = request.getfixturevalue(f"{scope}_tree")
    csv_text = solve_minimal_cut_sets(ft, order).to_csv()
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest


def test_full_model_order_4_maps_path_cd_from_path_ab(full_tree):
    _, plan = _planned(full_tree, 4)
    assert plan["RTS-PATH-CD"].rep == "RTS-PATH-AB"


def naive_antichain(masks: list[int]) -> list[int]:
    unique = set(masks)
    minimal = [m for m in unique if not any(s != m and s & m == s for s in unique)]
    return sorted(minimal, key=lambda m: (m.bit_count(), m))


def random_mask(rng: random.Random, width: int, bits: int) -> int:
    return sum(1 << b for b in rng.sample(range(width), bits))


def test_minimize_matches_naive_antichain_filter():
    rng = random.Random(11)
    for _ in range(200):
        width = rng.choice([10, 16, 24])
        masks = []
        for _ in range(rng.randint(0, 60)):
            bits = rng.choice([1, 2, 3, 5, 8, 9, 12])
            masks.append(sum(1 << b for b in rng.sample(range(width), min(bits, width))))
        masks += rng.sample(masks, len(masks) // 4)  # duplicates
        rng.shuffle(masks)
        assert _minimize(masks) == naive_antichain(masks)
    # One popcount: nothing absorbs anything, so the masks come back deduplicated and sorted.
    assert _minimize([]) == []
    assert _minimize([0b100, 0b100]) == [0b100]
    for _ in range(150):
        width = rng.choice([10, 24, 70])
        bits = rng.choice([1, 2, 4, 9])
        masks = [random_mask(rng, width, bits) for _ in range(rng.randint(1, 40))]
        masks += rng.sample(masks, len(masks) // 3)
        rng.shuffle(masks)
        assert _minimize(masks) == naive_antichain(masks)
    # A repeated lowest popcount, kept unchecked, under masks one and two bits
    # larger that it absorbs.
    for _ in range(150):
        width = rng.choice([12, 24, 70])
        bits = rng.choice([1, 2, 3, 9])
        lowest = [random_mask(rng, width, bits) for _ in range(rng.randint(1, 8))]
        masks = lowest * rng.randint(2, 3)
        for low in lowest:
            extra = random_mask(rng, width, 2) & ~low
            masks += [low | (extra & -extra), low | extra]
        masks += [random_mask(rng, width, bits + rng.randint(1, 3)) for _ in range(10)]
        rng.shuffle(masks)
        assert _minimize(masks) == naive_antichain(masks)


def overlapping_or(rng: random.Random) -> tuple[FaultTree, list[list[int]], int]:
    """(tree, rows of each child, budget) for an OR of 2-4 children whose rows share events.

    Every child is an OR over its rows, an antichain of private events and
    shared ones; a shared event is under two or more children, and under
    fewer than all of them when there are three or more. Some children are
    empty, some rows appear in two children, and some rows are a shared-only
    row of another child plus a private event, so that row absorbs them.
    """
    n = rng.randint(2, 4)
    pools = [[f"P{i}{j}" for j in range(rng.randint(1, 3))] for i in range(n)]
    for j in range(rng.randint(1, 4)):
        for i in rng.sample(range(n), rng.randint(2, max(2, n - 1))):
            pools[i].append(f"S{j}")
    shared_only = [rng.sample([e for e in pool if e[0] == "S"] or pool, 1) for pool in pools]
    wanted: list[list[frozenset[str]]] = []
    for i, pool in enumerate(pools):
        if rng.random() < 0.15:
            wanted.append([])
            continue
        rows = [frozenset(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
                for _ in range(rng.randint(1, 6))]
        other = rng.randrange(n)
        if set(shared_only[other]) <= set(pool):
            rows.append(frozenset(shared_only[other]))  # identical in two children
            rows.append(frozenset(shared_only[other]) | {pools[i][0]})  # absorbed by it
        wanted.append([r for r in set(rows) if not any(o < r for o in rows)])
    names = sorted({e for rows in wanted for row in rows for e in row})
    bit = {e: 1 << i for i, e in enumerate(names)}
    gates: dict[str, Gate] = {}
    parts = []
    for i, rows in enumerate(wanted):
        masks = sorted(sum(bit[e] for e in row) for row in rows)
        kids = []
        for r, mask in enumerate(masks):
            row = tuple(e for e in names if bit[e] & mask)
            if len(row) == 1:
                kids.append(row[0])
            else:
                gates[f"C{i}R{r}"] = Gate(id=f"C{i}R{r}", kind=GateKind.AND, children=row)
                kids.append(f"C{i}R{r}")
        gates[f"C{i}"] = Gate(id=f"C{i}", kind=GateKind.OR, children=tuple(kids))
        parts.append(masks)
    gates["TOP"] = Gate(id="TOP", kind=GateKind.OR, children=tuple(f"C{i}" for i in range(n)))
    return tree("TOP", gates, names), parts, rng.randint(1, 4)


def test_or_absorption_matches_minimize():
    """An OR whose children share events returns exactly ``_minimize`` of their rows."""
    rng = random.Random(18)
    seen = {"absorbed": 0, "identical": 0, "empty": 0, "over budget": 0}
    for _ in range(300):
        ft, parts, budget = overlapping_or(rng)
        index_of = {eid: i for i, eid in enumerate(sorted(ft.events))}
        _, shared, _ = _supports_and_bounds(ft, index_of)
        if not shared["TOP"]:
            continue  # the children's rows happen to share no event
        rows = [m for p in parts for m in p if m.bit_count() <= budget]
        expected = _minimize(rows)
        assert _combine(ft.gates["TOP"], parts, budget, 10**6, shared["TOP"]) == expected
        seen["absorbed"] += any(m & ~shared["TOP"] for m in set(rows) - set(expected))
        seen["identical"] += len(rows) > len(set(rows))
        seen["empty"] += not all(parts)
        seen["over budget"] += any(m.bit_count() > budget for p in parts for m in p)
        oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
        got = {c.events for c in solve_minimal_cut_sets(ft, budget).cut_sets}
        assert got == {s for s in oracle if len(s) <= budget}
    # Every case must actually occur, or this test checks less than it says.
    assert min(seen.values()) > 20, seen


def test_collect_walks_set_bits_above_64():
    ids = [f"E{i}" for i in range(80)]  # unpadded, so name order is not number order
    ccf = {"E7", "E66", "E71"}
    ft = tree("TOP", {"TOP": Gate(id="TOP", kind=GateKind.OR, children=tuple(ids))}, ids, ccf=ccf)
    index_to_id = sorted(ft.events)
    bit = {eid: i for i, eid in enumerate(index_to_id)}
    sets = [("E79", "E3", "E66"), ("E9",), ("E8", "E64"), ("E1", "E65"), ("E71", "E0"),
            ("E5", "E6", "E7", "E9"), ("E70",)]
    masks = [sum(1 << bit[e] for e in s) for s in sets]
    assert max(m.bit_length() for m in masks) > 70
    css = _collect(ft, masks, index_to_id, 4)
    expected = sorted((len(s), tuple(sorted(s))) for s in sets)
    assert css.cut_sets == tuple(
        CutSet(events=frozenset(names), contains_ccf=bool(ccf.intersection(names)))
        for _, names in expected
    )
    assert [(c.order, c.sorted_events()) for c in css.cut_sets] == expected
    assert [c.contains_ccf for c in css.cut_sets] == [False, False, True, False, False, True, True]
    assert list(css.per_order.items()) == [(1, 2), (2, 3), (3, 1), (4, 1)]
    assert css.truncation == 4


def test_bit_subsets_of_a_whole_mask_is_the_mask():
    assert tuple(_bit_subsets(0b1011, 3)) == (0b1011,)
    assert sorted(_bit_subsets(0b1011, 2)) == [0b0011, 0b1001, 0b1010]
    wide = (1 << 70) | (1 << 3) | 1
    assert sorted(_bit_subsets(wide, 1)) == [1, 1 << 3, 1 << 70]
    assert tuple(_bit_subsets(wide, 3)) == (wide,)


def groups_and_tree(rng: random.Random, size_a: int, size_b: int) -> FaultTree:
    """AND of two ORs over AND groups of ``size_a`` and ``size_b`` events drawn from
    one small pool, so the two sides share events (as the RTS path gates share CCFs)."""
    pool = [f"E{i}" for i in range(rng.randint(size_b + 1, 9))]
    gates: dict[str, Gate] = {}
    sides = []
    for side, size in (("A", size_a), ("B", size_b)):
        groups = sorted({tuple(sorted(rng.sample(pool, size))) for _ in range(rng.randint(2, 5))})
        kids = []
        for j, group in enumerate(groups):
            gid = f"{side}{j}"
            gates[gid] = Gate(id=gid, kind=GateKind.AND, children=group)
            kids.append(gid)
        gates[side] = Gate(id=side, kind=GateKind.OR, children=tuple(kids))
        sides.append(side)
    gates["TOP"] = Gate(id="TOP", kind=GateKind.AND, children=tuple(sides))
    used = sorted({c for g in gates.values() for c in g.children if c not in gates})
    return tree("TOP", gates, used, ccf=set(pool[:2]))


@pytest.mark.parametrize(("size_a", "size_b"), [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 4)],
                         ids=["equal-2", "equal-3", "equal-4", "subset-2-3", "subset-3-2",
                              "subset-2-4"])
def test_whole_mask_join_keys_match_oracle(size_a, size_b, monkeypatch):
    """At budget max(size_a, size_b) an AND of rows of those sizes joins on ``need`` =
    min(size_a, size_b) bits: an equality join on whole masks when the sizes are equal
    (as at RTS-PATH-AB at order 4), a join of the smaller rows against submasks of the
    larger otherwise."""
    whole = 0
    real = _bit_subsets

    def counting(mask, k):
        nonlocal whole
        whole += k == mask.bit_count()
        return real(mask, k)

    monkeypatch.setattr("resha.cutset._bit_subsets", counting)
    budget = max(size_a, size_b)
    rng = random.Random(100 * size_a + size_b)
    for _ in range(40):
        ft = groups_and_tree(rng, size_a, size_b)
        oracle = {c.events for c in brute_force_cut_sets(ft).cut_sets}
        assert {c.events for c in solve_minimal_cut_sets(ft).cut_sets} == oracle
        for k in (budget - 1, budget, budget + 1):
            got = {c.events for c in solve_minimal_cut_sets(ft, k).cut_sets}
            assert got == {s for s in oracle if len(s) <= k}
    assert whole > 40


def test_whole_mask_equality_join_by_hand():
    # Both sides hold only 2-event rows and share C1 C2: at order 2 the AND is
    # exactly the rows on both sides.
    gates = {
        "TOP": Gate(id="TOP", kind=GateKind.AND, children=("P", "Q")),
        "P": Gate(id="P", kind=GateKind.OR, children=("CC", "AB")),
        "Q": Gate(id="Q", kind=GateKind.OR, children=("CC", "DE")),
        "CC": Gate(id="CC", kind=GateKind.AND, children=("C1", "C2")),
        "AB": Gate(id="AB", kind=GateKind.AND, children=("A", "B")),
        "DE": Gate(id="DE", kind=GateKind.AND, children=("D", "E")),
    }
    ft = tree("TOP", gates, ["A", "B", "C1", "C2", "D", "E"], ccf={"C1", "C2"})
    assert {c.events for c in brute_force_cut_sets(ft).cut_sets} == {
        frozenset({"C1", "C2"}), frozenset({"A", "B", "D", "E"})}
    assert [c.events for c in solve_minimal_cut_sets(ft, 2).cut_sets] == [frozenset({"C1", "C2"})]
    assert [c.order for c in solve_minimal_cut_sets(ft).cut_sets] == [2, 4]


def test_full_model_order_5_reference_counts(full_tree):
    css = solve_minimal_cut_sets(full_tree, 5)
    assert dict(css.per_order) == {4: 468, 5: 8058}
    assert css.cumulative_count(5) == 8526


def test_rps_order_3_reference_counts(rps_tree):
    css = solve_minimal_cut_sets(rps_tree, 3)
    assert dict(css.per_order) == {1: 13, 2: 200, 3: 616}


def test_automatic_trip_order_4_reference_counts(auto_tree):
    css = solve_minimal_cut_sets(auto_tree, 4)
    assert dict(css.per_order) == {2: 52, 3: 826, 4: 2664}
    assert css.cumulative_count(4) == 3542


def naive_post_order(ft: FaultTree) -> list[str]:
    order: list[str] = []

    def visit(ref: str) -> None:
        if ref in ft.gates and ref not in order:
            for child in ft.gates[ref].children:
                visit(child)
            order.append(ref)

    visit(ft.top)
    return order


def test_gate_order_is_children_first(rps_tree, auto_tree, full_tree):
    rng = random.Random(31)
    trees = [random_coherent_tree(rng) for _ in range(200)]
    trees += [disjoint_support_tree(rng) for _ in range(100)]
    trees += [rps_tree, auto_tree, full_tree]
    for ft in trees:
        order = ft.gate_order
        assert isinstance(order, tuple)
        assert sorted(order) == sorted(ft.gates)  # every gate is reachable, listed once
        position = {g: i for i, g in enumerate(order)}
        for gate_id in order:
            for child in ft.gates[gate_id].children:
                if child in ft.gates:
                    assert position[child] < position[gate_id]
        assert list(order) == naive_post_order(ft)
