"""Shared fixtures: tiny synthetic benchmarks, a handcrafted toy dataset, and
the multi-process test guard (skip without fork/spawn, cap worker counts).
Warnings are errors for the whole suite."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.kg import (
    Dataset,
    DatasetMetadata,
    RelationProvenance,
    TripleSet,
    Vocabulary,
    fb15k_like,
    wn18_like,
    yago3_like,
)


def _multiprocessing_supported() -> bool:
    return bool(multiprocessing.get_all_start_methods())


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "multiprocess: the test spawns evaluation worker processes; skipped on "
        "platforms without fork/spawn/forkserver support",
    )
    # A warning is a test failure: deprecated call paths must not linger.
    config.addinivalue_line("filterwarnings", "error")
    # Except one raised outside the code under test: reporting a failing
    # property, hypothesis's plugin imports libcst (where installed), which
    # warns on import; as an error it aborts the session unreported.
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )


def pytest_collection_modifyitems(config, items):
    """Skip ``multiprocess``-marked tests where no start method exists."""
    if _multiprocessing_supported():
        return
    skip = pytest.mark.skip(reason="platform supports no multiprocessing start method")
    for item in items:
        if "multiprocess" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def capped_workers():
    """Clamp requested evaluation worker counts to ``REPRO_TEST_MAX_WORKERS``.

    CI runners set the variable so multi-process tests never oversubscribe the
    shared machines; without it the requested count is used as-is.  The clamp
    never changes results — sharded ranks are bit-identical at any count.
    """

    def cap(requested: int) -> int:
        limit = os.environ.get("REPRO_TEST_MAX_WORKERS", "").strip()
        if limit:
            return max(1, min(int(requested), int(limit)))
        return int(requested)

    return cap


@pytest.fixture(scope="session")
def fb_tiny_pair():
    """The tiny FB15k-like benchmark and its simulated Freebase snapshot."""
    return fb15k_like("tiny", seed=13)


@pytest.fixture(scope="session")
def fb_tiny(fb_tiny_pair) -> Dataset:
    return fb_tiny_pair[0]


@pytest.fixture(scope="session")
def freebase_snapshot(fb_tiny_pair):
    return fb_tiny_pair[1]


@pytest.fixture(scope="session")
def wn_tiny() -> Dataset:
    return wn18_like("tiny", seed=16)


@pytest.fixture(scope="session")
def yago_tiny() -> Dataset:
    return yago3_like("tiny", seed=21)


@pytest.fixture()
def toy_dataset() -> Dataset:
    """A handcrafted 8-entity dataset with a known reverse pair and a symmetric relation.

    Relations:
      0 directed_by      (film -> person), reverse of 1
      1 films_directed   (person -> film), reverse of 0
      2 married_to       symmetric
      3 born_in          plain n-1
    Entities 0-3 are films/persons, 4-7 are persons/cities.
    """
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(8)],
        ["directed_by", "films_directed", "married_to", "born_in"],
    )
    train = TripleSet(
        [
            (0, 0, 4), (4, 1, 0),
            (1, 0, 4), (4, 1, 1),
            (2, 0, 5),
            (4, 2, 5), (5, 2, 4),
            (6, 2, 7), (7, 2, 6),
            (0, 3, 6), (1, 3, 6), (2, 3, 7),
        ]
    )
    valid = TripleSet([(3, 0, 5), (5, 1, 3)])
    test = TripleSet([(3, 3, 7), (5, 1, 2)])
    metadata = DatasetMetadata(
        source="handcrafted",
        relation_provenance={
            "directed_by": RelationProvenance("directed_by", "reverse_pair", reverse_of="films_directed"),
            "films_directed": RelationProvenance("films_directed", "reverse_pair", reverse_of="directed_by"),
            "married_to": RelationProvenance("married_to", "symmetric", symmetric=True),
            "born_in": RelationProvenance("born_in", "normal"),
        },
        reverse_property_pairs=[("directed_by", "films_directed")],
    )
    dataset = Dataset(
        name="toy", vocab=vocab, train=train, valid=valid, test=test, metadata=metadata
    )
    dataset.validate()
    return dataset
