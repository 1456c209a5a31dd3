from __future__ import annotations

import pytest

from resha.ccf import enumerate_ccf_catalog, inject_ccfs
from resha.cutset import extract_spofs, solve_minimal_cut_sets
from resha.faulttree import HARDWARE_KINDS, EventKind, build_hardware_fault_tree, filter_events, integrate_ucas
from resha.report import (
    GuidanceBank,
    GuidanceBankError,
    GuidanceEntry,
    generate_worksheets,
    render_analysis_report,
    spof_table_to_csv,
)

from golden import TOP_RPS


@pytest.fixture(scope="module")
def rps_spofs(rps_tree):
    return extract_spofs(solve_minimal_cut_sets(rps_tree, 1)).spofs


def test_worksheet_per_distinct_event(rts_model, rps_spofs, rps_tree):
    sheets = generate_worksheets(rts_model, rps_spofs, rps_tree)
    assert len(sheets) == 13
    assert len({s.event.id for s in sheets}) == 13
    assert [s.event.id for s in sheets] == sorted(s.event.id for s in sheets)


def test_empty_cut_sets_give_no_worksheets(rts_model, rps_tree):
    assert generate_worksheets(rts_model, (), rps_tree) == ()


def test_bp_software_ccf_worksheet_prompts(rts_model, rps_spofs, rps_tree):
    sheets = generate_worksheets(rts_model, rps_spofs, rps_tree)
    sheet = next(s for s in sheets if s.event.id == "LC-BP-SF-CCF-TC")
    joined = " ".join(sheet.category1_prompts) + " " + sheet.scenario
    assert "delay" in joined.lower()
    assert sheet.category2_prompts is not None
    feedback = " ".join(sheet.category2_prompts)
    assert "steam generator pressure" in feedback.lower()
    assert sheet.historical_note is None


def test_partial_ccf_worksheet_takes_its_class_guidance(rts_model, rts_selected, rts_groups):
    tree = integrate_ucas(build_hardware_fault_tree(rts_model, TOP_RPS), rts_selected)
    policy = rts_model.ccf_policy._replace(include_partial_interdivision=True)
    tree = inject_ccfs(tree, rts_groups, policy)
    spofs = extract_spofs(solve_minimal_cut_sets(tree, 1)).spofs
    sheets = {s.event.id: s for s in generate_worksheets(rts_model, spofs, tree)}
    whole, partial = sheets["LC-BP-SF-CCF-TC"], sheets["LC-BP-DIVABC-SF-CCF-TC"]
    assert partial.category1_prompts == whole.category1_prompts
    assert partial.category2_prompts == whole.category2_prompts
    assert (partial.scenario, partial.guidance) == (whole.scenario, whole.guidance)


def test_hardware_ccf_worksheet_physical_only(rts_model, rps_spofs, rps_tree):
    sheets = generate_worksheets(rts_model, rps_spofs, rps_tree)
    sheet = next(s for s in sheets if s.event.id == "RTB-UV-HD-CCF")
    assert sheet.category2_prompts is None
    assert sheet.historical_note is not None
    assert all("algorithm" not in p for p in sheet.category1_prompts)


def test_worksheets_cover_all_selected_events(rts_model, rps_tree):
    css = solve_minimal_cut_sets(rps_tree, 2)
    sheets = generate_worksheets(rts_model, css.cut_sets, rps_tree)
    in_sets = {e for c in css.cut_sets for e in c.events}
    assert {s.event.id for s in sheets} == in_sets


def test_guidance_bank_fallback_for_unknown_class(rps_tree):
    bank = GuidanceBank.packaged()
    event = rps_tree.events["SNS-A-HD-A00.00.01"]
    entry = bank.lookup(event, "SNS-A")
    assert entry.category1


def test_empty_guidance_bank_gives_the_default_entry(rps_tree):
    event = rps_tree.events["SNS-A-HD-A00.00.01"]
    entry = GuidanceBank([]).lookup(event, None)
    assert entry == GuidanceEntry(event_kind="HW_INDEP")
    assert entry.category1[0] == "Physical failure of the controller itself."
    assert entry.category2[0] == "Required feedback or input is not received by the controller."
    assert entry.scenario == entry.guidance == ""


def bank_with(entry):
    return {"guidance_bank_version": 1, "entries": [{"event_kind": "SW_UCA"}, entry]}


def test_guidance_bank_entry_needs_event_kind():
    with pytest.raises(GuidanceBankError, match=r"^guidance bank entries\[1\]\.event_kind: missing event kind$"):
        GuidanceBank.from_document(bank_with({"scenario": "x"}))


def test_guidance_bank_entry_must_be_an_object():
    with pytest.raises(GuidanceBankError, match=r"^guidance bank entries\[1\]: must be an object$"):
        GuidanceBank.from_document(bank_with(["SW_UCA"]))


def test_guidance_bank_entry_rejects_unknown_key():
    with pytest.raises(GuidanceBankError, match=r"^guidance bank entries\[1\]\.scenaro: unknown field$"):
        GuidanceBank.from_document(bank_with({"event_kind": "SW_UCA", "scenaro": "x"}))


def test_guidance_bank_prompts_must_be_a_list_of_texts():
    with pytest.raises(GuidanceBankError,
                       match=r"^guidance bank entries\[1\]\.category1: must be an array of strings$"):
        GuidanceBank.from_document(bank_with({"event_kind": "SW_UCA", "category1": "abc"}))


@pytest.mark.parametrize(("doc", "message"), [
    ({"guidance_bank_version": 1, "entries": {"event_kind": "SW_UCA"}},
     r"^guidance bank entries: must be an array$"),
    (bank_with({"event_kind": 5}), r"^guidance bank entries\[1\]\.event_kind: unknown event kind 5$"),
    ({"guidance_bank_version": 2, "entries": []}, r"^expected guidance_bank_version 1$"),
    ({"guidance_bank_version": 1, "entrys": [{"event_kind": "SW_UCA"}]},
     r"^guidance bank entrys: unknown field$"),
    (bank_with({"event_kind": "SW-UCA"}),
     r"^guidance bank entries\[1\]\.event_kind: unknown event kind 'SW-UCA'$"),
    (bank_with({"event_kind": "SW_CCF", "category": "e"}),
     r"^guidance bank entries\[1\]\.category: unknown UCA category 'e'$"),
    ([], r"^guidance bank document must be a JSON object$"),
    ({"guidance_bank_version": True, "entries": []}, r"^expected guidance_bank_version 1$"),
    ({"guidance_bank_version": 1.0, "entries": []}, r"^expected guidance_bank_version 1$"),
], ids=["entries not a list", "event_kind not a text", "another version", "misspelt entries key",
        "event_kind not a kind", "category not a category", "document not an object",
        "version true", "version float"])
def test_guidance_bank_rejects_malformed_values(doc, message):
    with pytest.raises(GuidanceBankError, match=message):
        GuidanceBank.from_document(doc)


def test_guidance_bank_reads_every_key_of_an_entry():
    entry = {"event_kind": "SW_CCF", "class": "LC-BP", "category": None, "category1": ["p"],
             "category2": [], "scenario": "s", "guidance": "g"}
    bank = GuidanceBank.from_document(bank_with(entry))
    assert bank.entries[1] == GuidanceEntry("SW_CCF", "LC-BP", None, ("p",), (), "s", "g")


def test_guidance_bank_rejects_a_repeated_key():
    # The second entry of a key was never looked up.
    entries = [{"event_kind": "SW_CCF", "class": "LC-BP", "category": "c", "scenario": "first"},
               {"event_kind": "SW_UCA"},
               {"event_kind": "SW_CCF", "class": "LC-BP", "category": "c", "scenario": "second"}]
    with pytest.raises(GuidanceBankError, match=r"^guidance bank entries\[2\]: "
                                                r"same event_kind, class and category as entries\[0\]$"):
        GuidanceBank.from_document({"guidance_bank_version": 1, "entries": entries})


def test_guidance_lookup_takes_the_most_specific_entry(rps_tree):
    event = next(e for e in rps_tree.events.values() if e.kind is EventKind.SW_CCF and e.category)
    keys = [("LC-BP", event.category), ("LC-BP", None), (None, event.category), (None, None)]
    entries = [GuidanceEntry(EventKind.SW_CCF, tag, category, scenario=f"{tag} {category}")
               for tag, category in keys]
    for n in range(len(entries)):
        # Reversed: the order of the entries in the bank does not matter.
        assert GuidanceBank(entries[n:][::-1]).lookup(event, "LC-BP") == entries[n]
    assert GuidanceBank(entries).lookup(event, "SNS-A") == entries[2]
    assert GuidanceBank(entries).lookup(event._replace(kind=EventKind.HW_CCF), "LC-BP") == \
        GuidanceEntry(EventKind.HW_CCF)


def report_for(rts_model, rts_cs, rts_ucas, tree, label="RPS"):
    css = solve_minimal_cut_sets(tree, 1)
    spofs = extract_spofs(css)
    sheets = generate_worksheets(rts_model, spofs.spofs, tree)
    catalog = enumerate_ccf_catalog((), rts_model.ccf_policy)
    return render_analysis_report(
        rts_model, rts_cs, rts_ucas, tree, label, css, spofs, sheets, catalog=catalog
    )


def test_report_is_deterministic(rts_model, rts_cs, rts_ucas, rps_tree):
    a = report_for(rts_model, rts_cs, rts_ucas, rps_tree)
    b = report_for(rts_model, rts_cs, rts_ucas, rps_tree)
    assert a == b


def test_report_contains_spof_table(rts_model, rts_cs, rts_ucas, rps_tree):
    text = report_for(rts_model, rts_cs, rts_ucas, rps_tree)
    assert "| Number | Cut set | Description |" in text
    assert "| 13 |" in text
    assert "Single points of failure: 13" in text
    assert "| H1 | Reactor temperature too high | L1, L2, L3, L4, L5 |" in text


def test_report_notes_hardware_filter(rts_model, rts_cs, rts_ucas, rps_tree):
    filtered = filter_events(rps_tree, HARDWARE_KINDS)
    css = solve_minimal_cut_sets(filtered, 1)
    spofs = extract_spofs(css)
    sheets = generate_worksheets(rts_model, spofs.spofs, filtered)
    text = render_analysis_report(
        rts_model, rts_cs, rts_ucas, filtered, "RPS", css, spofs, sheets,
        notes=["Software failures excluded by filter."],
    )
    assert "software failures excluded by filter" in text.lower()


def test_spof_csv_layout(rps_tree):
    css = solve_minimal_cut_sets(rps_tree, 1)
    descriptions = {e.id: e.description for e in rps_tree.events.values()}
    text = spof_table_to_csv(extract_spofs(css), descriptions)
    lines = text.splitlines()
    assert lines[0] == "number,cut_set,description"
    assert len(lines) == 14
    assert lines[1].startswith("1,")


def test_report_histogram_rows_are_cumulative(rts_model, rts_cs, rts_ucas, rps_tree):
    css = solve_minimal_cut_sets(rps_tree, 2)
    spofs = extract_spofs(css)
    sheets = generate_worksheets(rts_model, spofs.spofs, rps_tree)
    text = render_analysis_report(
        rts_model, rts_cs, rts_ucas, rps_tree, "RPS", css, spofs, sheets
    )
    assert "| 2 | 213 |" in text  # 13 first-order + 200 second-order
    assert "| 1 | 13 |" in text
