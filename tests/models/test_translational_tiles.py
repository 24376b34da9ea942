"""The translational kernels score in 2-D tiles, bit-identical to row slices.

``iter_tiles`` cuts a ``(B, E)`` score block into ``(rows, cols)`` tiles
whose ``(rows, cols, width)`` broadcast stays within ``TILE_ELEMENTS``; the
batched kernels of TransE, TransH, TransR, TransD and RotatE broadcast one
tile at a time.  The tiled scores must equal the row-sliced kernels of
``tests/oracles/scoring.py`` byte for byte at any budget.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scoring import BATCH_SCORE_ORACLES
from repro.backend import DTYPE_SPECS
from repro.models import ModelConfig, make_model
from repro.models import translational
from repro.models.translational import TILE_ELEMENTS, iter_tiles

TRANSLATIONAL_MODELS = tuple(BATCH_SCORE_ORACLES)


def _tiles(num_rows, num_entities, width, budget):
    with mock.patch.object(translational, "TILE_ELEMENTS", budget):
        return list(iter_tiles(num_rows, num_entities, width))


@settings(max_examples=300, deadline=None)
@given(
    num_rows=st.integers(0, 40),
    num_entities=st.integers(1, 300),
    width=st.integers(1, 50),
    budget=st.integers(0, 20_000),
)
def test_tiles_respect_the_bound_and_cover_the_block_once(num_rows, num_entities, width, budget):
    bound = max(budget, width)
    covered = np.zeros((num_rows, num_entities), dtype=np.int64)
    for rows, cols in _tiles(num_rows, num_entities, width, budget):
        row_ids = range(num_rows)[rows]
        col_ids = range(num_entities)[cols]
        assert len(row_ids) and len(col_ids)
        assert (rows.stop - rows.start) * (cols.stop - cols.start) * width <= bound
        # A tile takes a second row only once it spans every entity.
        assert len(row_ids) == 1 or len(col_ids) == num_entities
        covered[rows, cols] += 1
    assert (covered == 1).all()


def test_a_row_wider_than_the_budget_is_split_across_entity_tiles():
    width = 64
    num_entities = 3 * (TILE_ELEMENTS // width) + 5
    tiles = list(iter_tiles(1, num_entities, width))
    assert [cols for _, cols in tiles] == [
        slice(start, start + TILE_ELEMENTS // width)
        for start in range(0, num_entities, TILE_ELEMENTS // width)
    ]
    assert all(rows == slice(0, 1) for rows, _ in tiles)
    # A width above the budget alone gets one entity per tile.
    assert _tiles(2, 3, 10, budget=4) == [
        (slice(row, row + 1), slice(col, col + 1)) for row in range(2) for col in range(3)
    ]


@pytest.mark.parametrize("side", ["tail", "head"])
@pytest.mark.parametrize("name", TRANSLATIONAL_MODELS)
def test_one_wide_row_is_scored_in_a_few_tiles_of_memory(name, side):
    """A one-row batch over 40,000 entities at dim 32 (10 MB per broadcast
    temporary) peaks at its score row plus a few tiles, not at the row's
    whole ``(1, E, d)`` broadcast."""
    num_entities = 40_000
    model = make_model(name, num_entities, 3, ModelConfig(dim=32, seed=0))
    model.train_mode(False)
    one, relation = np.array([5]), np.array([1])
    if side == "tail":
        score, args = model.score_tails_batch, (one, relation)
    else:
        score, args = model.score_heads_batch, (relation, one)
    score(*args)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        score(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tile_bytes = TILE_ELEMENTS * 8
    assert peak <= num_entities * 8 + 8 * tile_bytes, (peak, tile_bytes)


def _model(name, num_entities, dim, relation_dim, norm, seed):
    extra = {}
    if name == "TransE":
        extra["norm"] = norm
    if name == "TransR":
        extra["relation_dim"] = relation_dim
    model = make_model(name, num_entities, 4, ModelConfig(dim=dim, seed=seed, extra=extra))
    model.train_mode(False)
    return model


@settings(max_examples=250, deadline=None)
@given(
    name=st.sampled_from(TRANSLATIONAL_MODELS),
    num_entities=st.integers(1, 45),
    dim=st.integers(1, 9),
    relation_dim=st.integers(1, 9),
    norm=st.sampled_from([1, 2]),
    batch=st.sampled_from([0, 1, 2, 5, 17]),
    side=st.sampled_from(["tail", "head"]),
    eval_dtype=st.sampled_from(DTYPE_SPECS),
    seed=st.integers(0, 3),
    data=st.data(),
)
def test_property_tiled_scores_equal_the_row_sliced_oracle(
    name, num_entities, dim, relation_dim, norm, batch, side, eval_dtype, seed, data
):
    model = _model(name, num_entities, dim, relation_dim, norm, seed)
    model.set_eval_dtype(eval_dtype)
    width = relation_dim if name == "TransR" else dim
    budget = data.draw(
        st.sampled_from(
            [
                1,
                width - 1,
                width,
                width + 1,
                3 * width,                            # entity tiles of 3
                2 * num_entities * width + 1,         # two-row tiles
                TILE_ELEMENTS,
                max(batch, 1) * num_entities * width + 1,  # one tile
            ]
        ),
        label="budget",
    )
    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, num_entities, batch)
    relations = rng.integers(0, 4, batch)
    kernel = BATCH_SCORE_ORACLES[name][side]
    if side == "tail":
        expected = kernel(model, anchors, relations)
        with mock.patch.object(translational, "TILE_ELEMENTS", budget):
            actual = model.score_tails_batch(anchors, relations)
    else:
        expected = kernel(model, relations, anchors)
        with mock.patch.object(translational, "TILE_ELEMENTS", budget):
            actual = model.score_heads_batch(relations, anchors)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape == (batch, num_entities)
    assert actual.tobytes() == expected.tobytes()
