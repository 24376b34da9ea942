"""Sparse/dense optimizer equivalence and the lazy-Adam row semantics.

The contract (see ``docs/training.md``):

* SGD and Adagrad: the sparse row update is **bit-identical** to the dense
  update — asserted here per-step on synthetic gathers and end-to-end on the
  full 10-model zoo (loss curves *and* final parameters).
* Adam: *lazy* per-row state — a touched row sees exactly the update a dense
  Adam would apply to a parameter stepped only when that row was touched.
"""

import numpy as np
import pytest

from repro.autodiff import Parameter
from repro.models import (
    ALL_EMBEDDING_MODELS,
    Adam,
    ModelConfig,
    TrainingConfig,
    make_model,
    make_optimizer,
    train_model,
)

NUM_ROWS = 9
DIM = 4


def _run_steps(optimizer_name, sparse, steps, learning_rate=0.1):
    """Apply a fixed sequence of gather gradients; return the final table."""
    rng = np.random.default_rng(11)
    parameter = Parameter(rng.normal(size=(NUM_ROWS, DIM)), sparse_updates=sparse)
    optimizer = make_optimizer(optimizer_name, {"table": parameter}, learning_rate)
    for indices, grad in steps:
        parameter.zero_grad()
        parameter.gather(indices).backward(grad)
        optimizer.step()
    return parameter.data.copy()


def _gather_steps(num_steps=7, seed=23):
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(num_steps):
        length = int(rng.integers(1, 12))
        steps.append(
            (rng.integers(0, NUM_ROWS, size=length), rng.normal(size=(length, DIM)))
        )
    return steps


@pytest.mark.parametrize("optimizer_name", ["sgd", "adagrad"])
def test_sgd_adagrad_sparse_updates_are_bit_identical_to_dense(optimizer_name):
    steps = _gather_steps()
    dense = _run_steps(optimizer_name, sparse=False, steps=steps)
    sparse = _run_steps(optimizer_name, sparse=True, steps=steps)
    assert np.array_equal(dense, sparse)


def test_lazy_adam_touched_row_matches_dense_adam_on_its_own_schedule():
    """A row touched at steps {1, 3, 4} equals a dense Adam stepped 3 times."""
    row_grads = [np.array([[0.3, -0.7]]), np.array([[-0.2, 0.4]]), np.array([[0.9, 0.1]])]
    start = np.array([[1.0, -2.0]])

    # Lazy run: a 5-row table where row 2 is touched at global steps 1, 3, 4
    # (other steps touch other rows).
    table = np.tile(start, (5, 1))
    lazy_param = Parameter(table.copy(), sparse_updates=True)
    lazy = Adam({"table": lazy_param}, learning_rate=0.05)
    schedule = [
        (np.array([2]), row_grads[0]),
        (np.array([0]), np.ones((1, 2))),
        (np.array([2]), row_grads[1]),
        (np.array([2]), row_grads[2]),
        (np.array([4]), np.ones((1, 2))),
    ]
    for indices, grad in schedule:
        lazy_param.zero_grad()
        lazy_param.gather(indices).backward(grad)
        lazy.step()

    # Dense reference: a 1-row parameter receiving the row's gradients at
    # consecutive steps 1, 2, 3.
    dense_param = Parameter(start.copy())
    dense = Adam({"row": dense_param}, learning_rate=0.05)
    for grad in row_grads:
        dense_param.zero_grad()
        dense_param.gather(np.array([0])).backward(grad)
        dense.step()

    assert np.array_equal(lazy_param.data[2], dense_param.data[0])
    assert lazy._row_steps["table"][2] == 3
    # Untouched rows keep their values and step counts.
    assert np.array_equal(lazy_param.data[1], start[0])
    assert lazy._row_steps["table"][1] == 0


def test_lazy_adam_with_all_rows_touched_equals_dense_adam():
    """When every step touches every row, lazy == dense exactly."""
    rng = np.random.default_rng(3)
    start = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(6)]
    indices = np.arange(4)

    dense_param = Parameter(start.copy())
    dense = Adam({"t": dense_param}, learning_rate=0.02)
    lazy_param = Parameter(start.copy(), sparse_updates=True)
    lazy = Adam({"t": lazy_param}, learning_rate=0.02)
    for grad in grads:
        for parameter, optimizer in ((dense_param, dense), (lazy_param, lazy)):
            parameter.zero_grad()
            parameter.gather(indices).backward(grad)
            optimizer.step()
    assert np.allclose(dense_param.data, lazy_param.data, rtol=0, atol=0)


def test_optimizer_state_dict_roundtrip():
    steps = _gather_steps(num_steps=4)
    rng = np.random.default_rng(11)
    parameter = Parameter(rng.normal(size=(NUM_ROWS, DIM)), sparse_updates=True)
    optimizer = Adam({"table": parameter}, learning_rate=0.05)
    for indices, grad in steps:
        parameter.zero_grad()
        parameter.gather(indices).backward(grad)
        optimizer.step()
    state = {key: value.copy() for key, value in optimizer.state_dict().items()}
    assert int(state["step_count"]) == 4

    clone_param = Parameter(parameter.data.copy(), sparse_updates=True)
    clone = Adam({"table": clone_param}, learning_rate=0.05)
    clone.load_state_dict(state)
    assert clone._step_count == 4
    assert np.array_equal(clone._row_steps["table"], optimizer._row_steps["table"])

    # Both continue identically from the restored state.
    extra = _gather_steps(num_steps=2, seed=99)
    for indices, grad in extra:
        for p, opt in ((parameter, optimizer), (clone_param, clone)):
            p.zero_grad()
            p.gather(indices).backward(grad)
            opt.step()
    assert np.array_equal(parameter.data, clone_param.data)


def _dense_adam_rows(start, grads, learning_rate):
    """A dense 1-row Adam stepped once per gradient: the lazy row's oracle."""
    parameter = Parameter(start.copy())
    optimizer = Adam({"row": parameter}, learning_rate=learning_rate)
    for grad in grads:
        parameter.zero_grad()
        parameter.gather(np.array([0])).backward(grad)
        optimizer.step()
    return parameter.data[0]


def test_lazy_adam_mixes_step_counts_beyond_the_bias_table():
    """One update holds a row past the initial table size and a first-step row."""
    rng = np.random.default_rng(5)
    busy_steps = Adam._BIAS_TABLE_SIZE + 9
    busy_grads = [rng.normal(size=(1, 3)) for _ in range(busy_steps)]
    fresh_grad = rng.normal(size=(1, 3))
    start = rng.normal(size=(3, 3))

    parameter = Parameter(start.copy(), sparse_updates=True)
    lazy = Adam({"table": parameter}, learning_rate=0.03)
    for step, grad in enumerate(busy_grads):
        parameter.zero_grad()
        if step == busy_steps - 1:
            # The last update touches row 0 (step count past the table) and
            # row 2 (its first step) together.
            parameter.gather(np.array([0, 2])).backward(np.concatenate([grad, fresh_grad]))
        else:
            parameter.gather(np.array([0])).backward(grad)
        lazy.step()

    assert lazy._row_steps["table"].tolist() == [busy_steps, 0, 1]
    busy = _dense_adam_rows(start[:1], busy_grads, 0.03)
    fresh = _dense_adam_rows(start[2:], [fresh_grad], 0.03)
    assert parameter.data[0].tobytes() == busy.tobytes()
    assert parameter.data[2].tobytes() == fresh.tobytes()
    assert parameter.data[1].tobytes() == start[1].tobytes()


def test_lazy_adam_resumes_bit_identically_past_the_bias_table():
    """A fresh Adam loaded at step counts beyond the initial table keeps going."""
    rng = np.random.default_rng(8)
    first = [
        (rng.integers(0, 4, size=3), rng.normal(size=(3, 2)))
        for _ in range(Adam._BIAS_TABLE_SIZE * 2 + 5)
    ]
    extra = [(rng.integers(0, 4, size=3), rng.normal(size=(3, 2))) for _ in range(6)]
    start = rng.normal(size=(4, 2))

    def run(parameter, optimizer, steps):
        for indices, grad in steps:
            parameter.zero_grad()
            parameter.gather(indices).backward(grad)
            optimizer.step()

    parameter = Parameter(start.copy(), sparse_updates=True)
    optimizer = Adam({"table": parameter}, learning_rate=0.01)
    run(parameter, optimizer, first)
    assert optimizer._row_steps["table"].max() > Adam._BIAS_TABLE_SIZE

    state = {key: np.array(value, copy=True) for key, value in optimizer.state_dict().items()}
    clone_param = Parameter(parameter.data.copy(), sparse_updates=True)
    clone = Adam({"table": clone_param}, learning_rate=0.01)
    clone.load_state_dict(state)
    run(parameter, optimizer, extra)
    run(clone_param, clone, extra)
    assert clone_param.data.tobytes() == parameter.data.tobytes()
    for key, value in optimizer.state_dict().items():
        assert np.asarray(clone.state_dict()[key]).tobytes() == np.asarray(value).tobytes(), key


@pytest.mark.parametrize("optimizer_name", ["sgd", "adagrad"])
@pytest.mark.parametrize("model_name", ALL_EMBEDDING_MODELS)
def test_sparse_training_is_bit_identical_to_dense_for_all_models(
    model_name, optimizer_name, toy_dataset
):
    """Acceptance: sparse loss curves + parameters == dense, all 10 models."""
    extra = {"embedding_height": 4} if model_name == "ConvE" else {}
    dim = 16 if model_name == "ConvE" else 8
    curves, finals = [], []
    for sparse in (True, False):
        model = make_model(
            model_name,
            toy_dataset.num_entities,
            toy_dataset.num_relations,
            ModelConfig(dim=dim, seed=3, extra=extra),
        )
        result = train_model(
            model,
            toy_dataset,
            TrainingConfig(
                epochs=3,
                batch_size=4,
                num_negatives=2,
                seed=3,
                optimizer=optimizer_name,
                sparse_updates=sparse,
            ),
        )
        curves.append(result.epoch_losses)
        finals.append({name: p.data.copy() for name, p in model.parameters().items()})
    assert np.array_equal(curves[0], curves[1])
    for name in finals[0]:
        assert np.array_equal(finals[0][name], finals[1][name]), name


def test_lazy_adam_trains_the_zoo_without_nans(toy_dataset):
    """The default engine (sparse + adam) stays finite across the model zoo."""
    for model_name in ("TransE", "DistMult", "RotatE"):
        model = make_model(
            model_name,
            toy_dataset.num_entities,
            toy_dataset.num_relations,
            ModelConfig(dim=8, seed=1),
        )
        result = train_model(
            model, toy_dataset, TrainingConfig(epochs=3, batch_size=4, seed=1)
        )
        assert np.all(np.isfinite(result.epoch_losses))
