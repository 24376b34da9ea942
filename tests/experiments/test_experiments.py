"""Integration tests: the experiment drivers reproduce the paper's qualitative claims.

A single session-scoped :class:`Runner` is shared by every test so each
(model, dataset) pair is trained exactly once with a deliberately small budget;
the assertions target structure and direction (the paper's R1-R3 claims), not
absolute accuracy values.
"""

import math

import pytest

from repro.api import ExperimentSpec, Runner
from repro.api.pipeline import (
    ensure_dataset,
    ensure_evaluation,
    ensure_redundancy,
    ensure_scorer,
    ingest_dataset_into_store,
)
from repro.experiments import (
    ALL_DATASETS,
    EXPERIMENT_INDEX,
    FB15K,
    FB15K237,
    WN18,
    WN18RR,
    ablation_thresholds,
    figure1_overview,
    figure2_mediators,
    figure4_redundancy_pie,
    figure5_6_per_relation_heatmap,
    figure7_8_category_breakdown,
    section42_leakage,
    table1_statistics,
    table2_cartesian_strength,
    table3_cartesian_predictor,
    table5_fb15k,
    table6_wn18,
    table7_outperform_redundancy,
    table8_best_model_counts,
    table9_10_12_category_hits,
    table11_yago,
    table13_hits1_simple_model,
)


def _spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec(models=["TransE", "DistMult", "ComplEx", "RotatE"], include_amie=True)
    spec.dataset.scale = "tiny"
    spec.dataset.seed = 13
    spec.model.dim = 16
    spec.training.epochs = 10
    spec.training.num_negatives = 2
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


@pytest.fixture(scope="session")
def runner() -> Runner:
    return Runner(_spec())


# ------------------------------------------------------------------ runner mechanics
def test_runner_builds_all_six_datasets(runner):
    datasets = {name: ensure_dataset(runner.store, runner.spec, name) for name in ALL_DATASETS}
    assert set(datasets) == set(ALL_DATASETS)
    assert len(datasets[FB15K237].train) < len(datasets[FB15K].train)
    assert len(datasets[WN18RR].train) < len(datasets[WN18].train)


def test_runner_rejects_unknown_dataset(runner):
    with pytest.raises(KeyError):
        ensure_dataset(runner.store, runner.spec, "FB15k-999")


def test_runner_caches_scorers_and_evaluations(runner):
    first = ensure_scorer(runner.store, runner.spec, "TransE", FB15K)
    second = ensure_scorer(runner.store, runner.spec, "TransE", FB15K)
    assert first is second
    assert ensure_evaluation(runner.store, runner.spec, "TransE", FB15K) is ensure_evaluation(
        runner.store, runner.spec, "TransE", FB15K
    )


def test_runner_ingests_streamed_dataset(tmp_path, toy_dataset):
    """A stream-ingested directory plugs into the builders' store."""
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    spec = _spec()
    spec.ingest.chunk_size = 4
    spec.ingest.max_queue_chunks = 2
    ingest_runner = Runner(spec)
    dataset = ingest_dataset_into_store(ingest_runner.store, ingest_runner.spec, directory)
    assert dataset.name == "toy"
    assert ensure_dataset(ingest_runner.store, ingest_runner.spec, "toy") is dataset
    assert ingest_runner.store[("ingest_report", "toy")].chunk_size == 4
    # the streamed dataset matches the source label-wise and feeds the audit builders
    streamed_labels = {dataset.vocab.decode_triple(t) for t in dataset.train}
    source_labels = {toy_dataset.vocab.decode_triple(t) for t in toy_dataset.train}
    assert streamed_labels == source_labels
    report = ensure_redundancy(ingest_runner.store, ingest_runner.spec, "toy")
    assert report.reverse_pairs  # directed_by / films_directed


def test_reingest_invalidates_analysis_caches(tmp_path, toy_dataset):
    """Re-ingesting under the same name must not serve the old data's analyses."""
    from repro.kg import Dataset, TripleSet, Vocabulary, save_dataset

    ingest_runner = Runner(_spec())
    store, spec = ingest_runner.store, ingest_runner.spec
    directory = save_dataset(toy_dataset, tmp_path / "v1")
    ingest_dataset_into_store(store, spec, directory, name="mydata")
    assert ensure_redundancy(store, spec, "mydata").reverse_pairs

    # v2: a plain chain with no redundancy at all, exported under the same name
    vocab = Vocabulary.from_labels([f"e{i}" for i in range(4)], ["r"])
    plain = Dataset(
        name="mydata",
        vocab=vocab,
        train=TripleSet([(0, 0, 1), (1, 0, 2), (2, 0, 3)]),
        valid=TripleSet(),
        test=TripleSet(),
    )
    ingest_dataset_into_store(store, spec, save_dataset(plain, tmp_path / "v2"), name="mydata")
    fresh = ensure_redundancy(store, spec, "mydata")
    assert not fresh.reverse_pairs
    assert not fresh.duplicate_pairs


@pytest.mark.multiprocess
def test_sharded_evaluation_matches_single_process(runner, capped_workers):
    """A sharded evaluation section reports bit-identical metrics for the same scorer."""
    single = ensure_evaluation(runner.store, runner.spec, "DistMult", WN18RR)
    spec = _spec(models=["DistMult"])
    spec.evaluation.workers = capped_workers(2)
    spec.evaluation.shard_size = 8
    sharded_runner = Runner(spec)
    sharded = ensure_evaluation(sharded_runner.store, sharded_runner.spec, "DistMult", WN18RR)
    assert single.metrics().as_dict() == sharded.metrics().as_dict()


def test_runner_lineup_includes_amie(runner):
    lineup = runner.lineup()
    assert lineup[-1] == "AMIE"
    assert "TransE" in lineup
    assert "AMIE" not in Runner(_spec(include_amie=False)).lineup()


# ------------------------------------------------------------------ lineup and overrides
def _small_spec(**overrides) -> ExperimentSpec:
    spec = _spec(**{"models": ["TransE", "DistMult"], "include_amie": False, **overrides})
    spec.model.dim = 8
    spec.training.epochs = 2
    return spec


def test_listed_amie_is_evaluated_once_per_dataset():
    """AMIE in models plus include_amie yields one AMIE row, not two."""
    runner = Runner(_small_spec(models=["TransE", "AMIE"], include_amie=True))
    rows = table6_wn18(runner)["rows"]
    for dataset in ("WN18-like", "WN18RR-like"):
        models = [row["model"] for row in rows if row["dataset"] == dataset]
        assert models.count("AMIE") == 1, (dataset, models)
        assert sorted(models) == ["AMIE", "TransE"]


def test_drivers_apply_per_model_overrides():
    """A per-model training override reaches the driver's rows for that model only."""
    base = table6_wn18(Runner(_small_spec()))["rows"]
    patched = table6_wn18(
        Runner(_small_spec(overrides={"models": {"TransE": {"training": {"epochs": 1}}}}))
    )["rows"]
    assert len(base) == len(patched) == 4
    for before, after in zip(base, patched):
        assert (before["model"], before["dataset"]) == (after["model"], after["dataset"])
        if before["model"] == "TransE":
            assert before != after
        else:
            assert before == after


def test_experiment_index_is_complete():
    assert len(EXPERIMENT_INDEX) >= 16
    assert all(callable(driver) for driver in EXPERIMENT_INDEX.values())


# ------------------------------------------------------------------ dataset-level drivers
def test_table1_rows_cover_all_datasets(runner):
    result = table1_statistics(runner)
    assert len(result["rows"]) == 6
    names = {row["Dataset"] for row in result["rows"]}
    assert names == set(ALL_DATASETS)
    assert "Table 1" in result["text"]


def test_figure2_snapshot_statistics(runner):
    values = figure2_mediators(runner)["values"]
    assert values["triples adjacent to CVT nodes"] > 0
    assert values["concatenated relations"] > 0
    assert values["reverse_property pairs"] > 0
    assert values["snapshot triples"] > values["FB15k-like triples"]


def test_figure4_breakdown_sums_to_100_and_shows_leakage(runner):
    breakdown = figure4_redundancy_pie(runner)["breakdown"]
    assert sum(breakdown.values()) == pytest.approx(100.0)
    # The dominant slices of the paper: reverse-in-train (1000) must be large.
    assert breakdown.get("1000", 0.0) > 20.0


def test_section42_leakage_shape(runner):
    rows = {row["dataset"]: row for row in section42_leakage(runner)["rows"]}
    assert rows[WN18]["train_reverse_share"] > rows[FB15K]["train_reverse_share"]
    assert rows[FB15K]["test_reverse_in_train_share"] > 0.4


def test_ablation_thresholds_monotone(runner):
    rows = ablation_thresholds(runner)["rows"]
    thetas = [row["theta"] for row in rows]
    assert thetas == sorted(thetas)
    detected = [row["duplicate_pairs"] + row["reverse_duplicate_pairs"] + row["reverse_pairs"] for row in rows]
    # Lower thresholds can only detect at least as many pairs.
    assert all(earlier >= later for earlier, later in zip(detected, detected[1:]))


# ------------------------------------------------------------------ headline drivers
def test_figure1_models_degrade_without_redundancy(runner):
    result = figure1_overview(runner)
    series = result["series"]
    models = list(runner.spec.models)
    fb_drops = [series[FB15K][m] - series[FB15K237][m] for m in models]
    wn_drops = [series[WN18][m] - series[WN18RR][m] for m in models]
    # R1: on average the models lose accuracy once redundancy is removed, and
    # the effect is visible for the majority of models on each dataset family.
    assert sum(fb_drops) > 0
    assert sum(wn_drops) > 0
    assert sum(1 for drop in wn_drops if drop > 0) >= len(models) - 1


def test_table5_and_table6_have_full_lineups(runner):
    for driver, expected_datasets in (
        (table5_fb15k, {"FB15k-like", "FB15k-237-like"}),
        (table6_wn18, {"WN18-like", "WN18RR-like"}),
    ):
        rows = driver(runner)["rows"]
        assert {row["dataset"] for row in rows} == expected_datasets
        assert {row["model"] for row in rows} == set(runner.lineup())
        for row in rows:
            assert not math.isnan(row["FMRR"])
            assert row["FMR"] >= 1.0


def test_table11_yago_rows(runner):
    rows = table11_yago(runner)["rows"]
    assert {row["dataset"] for row in rows} == {"YAGO3-10-like", "YAGO3-10-like-DR"}


def test_table13_simple_model_rivals_embeddings_on_redundant_data(runner):
    rows = {row["model"]: row for row in table13_hits1_simple_model(runner)["rows"]}
    assert "SimpleModel" in rows
    simple = rows["SimpleModel"]
    embedding_best_wn = max(
        rows[m]["WN18-like"] for m in runner.spec.models
    )
    # A2: the statistics-based rule model is competitive on the leaky WN18.
    assert simple["WN18-like"] >= embedding_best_wn - 10.0
    # ... and collapses once the redundancy is removed.
    assert simple["WN18RR-like"] <= simple["WN18-like"]


# ------------------------------------------------------------------ Cartesian drivers
def test_table2_reports_cartesian_relations(runner):
    result = table2_cartesian_strength(runner)
    assert result["relations"], "expected Cartesian relations in FB15k-237-like"


def test_table3_cartesian_predictor_beats_transe_on_cartesian_relations(runner):
    rows = table3_cartesian_predictor(runner)["rows"]
    assert rows, "expected detected Cartesian relations with test triples"
    wins = sum(1 for row in rows if row["Cartesian(FB) FMRR"] >= row["TransE FMRR"] - 0.05)
    assert wins >= len(rows) / 2
    # Filtering against the larger Freebase-style snapshot can only help.
    for row in rows:
        assert row["Cartesian(Freebase) FMRR"] >= row["Cartesian(FB) FMRR"] - 1e-9


# ------------------------------------------------------------------ comparison drivers
def test_table7_shares_are_percentages(runner):
    rows = table7_outperform_redundancy(runner)["rows"]
    assert rows
    for row in rows:
        for metric in ("FMR", "FMRR"):
            value = row[metric]
            assert math.isnan(value) or 0.0 <= value <= 100.0


def test_table7_redundant_share_is_high_on_fb(runner):
    tables = table7_outperform_redundancy(runner)["tables"]
    fb_shares = [
        value
        for shares in tables["FB15k-like"].values()
        for value in shares.values()
        if not math.isnan(value)
    ]
    assert fb_shares
    # The paper's Table 7 reports ~78-95 %; the replica must at least show a majority.
    assert max(fb_shares) > 50.0


def test_table8_counts_cover_lineup(runner):
    tables = table8_best_model_counts(runner)["tables"]
    for dataset_counts in tables.values():
        for metric_counts in dataset_counts.values():
            assert set(metric_counts) == set(runner.lineup())
            assert all(count >= 0 for count in metric_counts.values())


def test_figure5_6_win_percentages_are_valid(runner):
    heatmaps = figure5_6_per_relation_heatmap(runner)["heatmaps"]
    for heatmap in heatmaps.values():
        for wins in heatmap.values():
            assert all(0.0 <= value <= 100.0 for value in wins.values())
            assert max(wins.values()) > 0.0


def test_figure7_8_breakdown_uses_known_categories(runner):
    breakdowns = figure7_8_category_breakdown(runner)["breakdowns"]
    valid = {"1-1", "1-n", "n-1", "n-m"}
    for breakdown in breakdowns.values():
        for categories in breakdown.values():
            assert set(categories) <= valid


def test_table9_10_12_have_head_and_tail_columns(runner):
    tables = table9_10_12_category_hits(runner)["tables"]
    assert len(tables) == 3
    for rows in tables.values():
        for row in rows:
            head_columns = [key for key in row if key.endswith(" head")]
            tail_columns = [key for key in row if key.endswith(" tail")]
            assert head_columns and tail_columns
