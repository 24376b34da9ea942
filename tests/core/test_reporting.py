"""Tests for the plain-text table rendering helpers."""

from repro.core import format_cell, render_key_values, render_matrix, render_table


def test_format_cell_variants():
    assert format_cell(None) == "-"
    assert format_cell(float("nan")) == "-"
    assert format_cell(0.12345) == "0.123"
    assert format_cell(12.345) == "12.3"
    assert format_cell(1234.5) == "1234"
    assert format_cell(7) == "7"
    assert format_cell("TransE") == "TransE"


def test_render_table_alignment_and_content():
    rows = [
        {"model": "TransE", "FMRR": 0.391},
        {"model": "ComplEx", "FMRR": 0.685},
    ]
    text = render_table(rows, title="Results")
    lines = text.splitlines()
    assert lines[0] == "Results"
    assert "model" in lines[1] and "FMRR" in lines[1]
    assert "TransE" in text and "0.685" in text
    # All data lines share the header's width.
    assert len(set(len(line) for line in lines[1:])) == 1


def test_render_table_empty():
    assert "(empty)" in render_table([], title="Nothing")


def test_render_table_respects_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = render_table(rows, columns=["b"])
    assert "b" in text and "a" not in text.splitlines()[0]


def test_render_matrix():
    matrix = {"TransE": {"1-1": 3, "n-m": 1}, "RotatE": {"1-1": 0, "n-m": 5}}
    text = render_matrix(matrix, row_label="model", title="Wins")
    assert "Wins" in text
    assert "TransE" in text and "RotatE" in text
    assert "1-1" in text and "n-m" in text


def test_render_key_values():
    text = render_key_values({"share": 0.7, "count": 12}, title="Stats")
    assert text.splitlines()[0] == "Stats"
    assert "share: 0.700" in text
    assert "count: 12" in text


def test_render_audit_summary_keys_follow_the_audit_command(toy_dataset):
    from repro.core import analyse_leakage, analyse_redundancy, find_cartesian_relations
    from repro.core import render_audit_summary

    redundancy = analyse_redundancy(toy_dataset.all_triples(), 0.8, 0.8)
    leakage = analyse_leakage(toy_dataset, redundancy)
    cartesian = find_cartesian_relations(toy_dataset.all_triples(), density_threshold=0.8)
    lines = render_audit_summary(redundancy, leakage, cartesian, title="Audit").splitlines()
    assert lines[0] == "Audit"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "reverse relation pairs",
        "duplicate relation pairs",
        "reverse-duplicate relation pairs",
        "symmetric relations",
        "Cartesian product relations",
        "train triples in reverse pairs",
        "test triples with reverse in train",
        "test triples with any redundancy",
    ]
    assert lines[1] == f"  reverse relation pairs: {len(redundancy.reverse_pairs)}"
    assert lines[-1] == f"  test triples with any redundancy: {format_cell(leakage.test_redundant_share)}"
    # Without the optional reports only the four redundancy counts remain.
    assert render_audit_summary(redundancy).splitlines() == lines[1:5]
