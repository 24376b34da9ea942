"""Fixtures shared by the API tests: the direct, store-free evaluation path."""

from __future__ import annotations

import pytest

from repro.core import make_wn18rr_like
from repro.eval import evaluate_model
from repro.kg import wn18_like
from repro.models import make_model, train_model
from repro.rules.amie import AmieConfig, AmieMiner
from repro.rules.predictor import RuleBasedPredictor


@pytest.fixture
def direct_row():
    """``row(spec, model_name, dataset_name)``: one evaluation row built
    without the ``Runner`` or its artifact store.

    Embedding models take the path ``repro-kgc train`` runs: ``make_model`` +
    ``train_model`` + ``evaluate_model``, fed by the spec's ``model_config``,
    ``training_config`` and ``eval_options``.  AMIE mines its rules on the
    training split.  Datasets are the WN18-like replica pair, built from the
    spec's ``[dataset]`` section as ``repro-kgc train --dataset wn18`` builds
    them.
    """
    datasets = {}

    def dataset_for(spec, name):
        if name not in datasets:
            wn18 = wn18_like(spec.dataset.scale, spec.dataset.seed + 3)
            datasets.update({"WN18-like": wn18, "WN18RR-like": make_wn18rr_like(wn18)})
        return datasets[name]

    def row(spec, model_name, dataset_name):
        dataset = dataset_for(spec, dataset_name)
        if model_name == "AMIE":
            rules = AmieMiner(dataset.train, AmieConfig()).mine()
            scorer = RuleBasedPredictor(rules.rules, dataset.train, dataset.num_entities)
        else:
            scorer = make_model(
                model_name,
                dataset.num_entities,
                dataset.num_relations,
                spec.model_config(model_name),
            )
            train_model(scorer, dataset, spec.training_config())
        evaluation = evaluate_model(
            scorer, dataset, model_name=model_name, options=spec.eval_options()
        )
        return evaluation.as_row()

    return row
