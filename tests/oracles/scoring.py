"""The translational models' batched score kernels in row slices.

These are the ``score_tails_batch`` / ``score_heads_batch`` bodies of TransE,
TransH, TransR, TransD and RotatE before :func:`repro.models.translational.iter_tiles`
replaced their row slices with 2-D tiles: each slice broadcasts whole
``(rows, E, width)`` tensors of at most 2M elements, and a row wider than
that is one slice.  The tiled kernels must return the same bytes.
"""

from __future__ import annotations

import numpy as np


def row_slices(batch: int, row_elements: int) -> "list[slice]":
    """Slices over a batch holding at most ``2_000_000 // row_elements`` rows each."""
    step = max(1, 2_000_000 // max(1, row_elements))
    return [slice(start, start + step) for start in range(0, batch, step)]


# The models' helpers, copied so that no arithmetic is shared with the
# kernels under test.
def _distance(norm: int, delta: np.ndarray) -> np.ndarray:
    if norm == 1:
        return np.sum(np.abs(delta), axis=-1)
    return np.sqrt(np.sum(delta ** 2, axis=-1))


def _unit_normals(normals_table, relations):
    w_r = normals_table[relations]
    norm = np.sqrt(np.sum(w_r ** 2, axis=-1, keepdims=True) + 1e-12)
    return w_r / norm


def _project(vectors: np.ndarray, normals: np.ndarray) -> np.ndarray:
    component = np.sum(vectors * normals, axis=-1, keepdims=True)
    return vectors - component * normals


def _rotations(model, relations, ec) -> tuple:
    phases = ec.table(model.phase)[relations]
    return np.cos(phases), np.sin(phases)


def transe_tails(model, heads, relations):
    ec = model.score_compute
    entities = ec.table(model.entity)
    h = entities[ec.index(heads)]
    r = ec.table(model.relation)[ec.index(relations)]
    query = h + r
    scores = ec.empty((len(query), model.num_entities))
    for rows in row_slices(len(query), model.entity.data.size):
        scores[rows] = -_distance(model.norm, query[rows, None, :] - entities[None, :, :])
    return scores


def transe_heads(model, relations, tails):
    ec = model.score_compute
    entities = ec.table(model.entity)
    r = ec.table(model.relation)[ec.index(relations)]
    t = entities[ec.index(tails)]
    scores = ec.empty((len(r), model.num_entities))
    for rows in row_slices(len(r), model.entity.data.size):
        delta = (entities[None, :, :] + r[rows, None, :]) - t[rows, None, :]
        scores[rows] = -_distance(model.norm, delta)
    return scores


def transh_tails(model, heads, relations):
    ec = model.score_compute
    relations = ec.index(relations)
    entities = ec.table(model.entity)
    h = entities[ec.index(heads)]
    d_r = ec.table(model.relation)[relations]
    w_r = _unit_normals(ec.table(model.normal), relations)
    query = _project(h, w_r) + d_r
    scores = ec.empty((len(query), model.num_entities))
    for rows in row_slices(len(query), model.entity.data.size):
        t_proj = _project(entities[None, :, :], w_r[rows, None, :])
        scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
    return scores


def transh_heads(model, relations, tails):
    ec = model.score_compute
    relations = ec.index(relations)
    entities = ec.table(model.entity)
    t = entities[ec.index(tails)]
    d_r = ec.table(model.relation)[relations]
    w_r = _unit_normals(ec.table(model.normal), relations)
    t_proj = _project(t, w_r)
    scores = ec.empty((len(t), model.num_entities))
    for rows in row_slices(len(t), model.entity.data.size):
        h_proj = _project(entities[None, :, :], w_r[rows, None, :])
        delta = (h_proj + d_r[rows, None, :]) - t_proj[rows, None, :]
        scores[rows] = -np.sum(np.abs(delta), axis=-1)
    return scores


def transr_tails(model, heads, relations):
    ec = model.score_compute
    relations = ec.index(relations)
    entities = ec.table(model.entity)
    h = entities[ec.index(heads)]
    r = ec.table(model.relation)[relations]
    m_r = ec.table(model.projection)[relations]
    query = np.einsum("bkd,bd->bk", m_r, h) + r
    scores = ec.empty((len(query), model.num_entities))
    for rows in row_slices(len(query), model.num_entities * model.relation_dim):
        t_proj = np.einsum("bkd,ed->bek", m_r[rows], entities)
        scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
    return scores


def transr_heads(model, relations, tails):
    ec = model.score_compute
    relations = ec.index(relations)
    entities = ec.table(model.entity)
    t = entities[ec.index(tails)]
    r = ec.table(model.relation)[relations]
    m_r = ec.table(model.projection)[relations]
    t_proj = np.einsum("bkd,bd->bk", m_r, t)
    scores = ec.empty((len(t), model.num_entities))
    for rows in row_slices(len(t), model.num_entities * model.relation_dim):
        h_proj = np.einsum("bkd,ed->bek", m_r[rows], entities)
        delta = (h_proj + r[rows, None, :]) - t_proj[rows, None, :]
        scores[rows] = -np.sum(np.abs(delta), axis=-1)
    return scores


def transd_tails(model, heads, relations):
    ec = model.score_compute
    heads = ec.index(heads)
    relations = ec.index(relations)
    entities = ec.table(model.entity)
    h = entities[heads]
    r = ec.table(model.relation)[relations]
    h_p = ec.table(model.entity_proj)[heads]
    r_p = ec.table(model.relation_proj)[relations]
    query = h + (np.sum(h_p * h, axis=-1, keepdims=True)) * r_p + r
    components = np.sum(ec.table(model.entity_proj) * entities, axis=-1)
    scores = ec.empty((len(query), model.num_entities))
    for rows in row_slices(len(query), model.entity.data.size):
        t_proj = entities[None, :, :] + components[None, :, None] * r_p[rows, None, :]
        scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
    return scores


def transd_heads(model, relations, tails):
    ec = model.score_compute
    relations = ec.index(relations)
    tails = ec.index(tails)
    entities = ec.table(model.entity)
    t = entities[tails]
    r = ec.table(model.relation)[relations]
    t_p = ec.table(model.entity_proj)[tails]
    r_p = ec.table(model.relation_proj)[relations]
    t_proj = t + (np.sum(t_p * t, axis=-1, keepdims=True)) * r_p
    components = np.sum(ec.table(model.entity_proj) * entities, axis=-1)
    scores = ec.empty((len(t), model.num_entities))
    for rows in row_slices(len(t), model.entity.data.size):
        h_proj = entities[None, :, :] + components[None, :, None] * r_p[rows, None, :]
        delta = (h_proj + r[rows, None, :]) - t_proj[rows, None, :]
        scores[rows] = -np.sum(np.abs(delta), axis=-1)
    return scores


def rotate_tails(model, heads, relations):
    ec = model.score_compute
    heads = ec.index(heads)
    relations = ec.index(relations)
    entities_re = ec.table(model.entity_re)
    entities_im = ec.table(model.entity_im)
    h_re = entities_re[heads]
    h_im = entities_im[heads]
    cos_r, sin_r = _rotations(model, relations, ec)
    rotated_re = h_re * cos_r - h_im * sin_r
    rotated_im = h_re * sin_r + h_im * cos_r
    scores = ec.empty((len(rotated_re), model.num_entities))
    for rows in row_slices(len(rotated_re), model.entity_re.data.size):
        delta_sq = (
            (rotated_re[rows, None, :] - entities_re[None, :, :]) ** 2
            + (rotated_im[rows, None, :] - entities_im[None, :, :]) ** 2
        )
        scores[rows] = -np.sqrt(np.sum(delta_sq, axis=-1) + 1e-12)
    return scores


def rotate_heads(model, relations, tails):
    ec = model.score_compute
    relations = ec.index(relations)
    tails = ec.index(tails)
    entities_re = ec.table(model.entity_re)
    entities_im = ec.table(model.entity_im)
    t_re = entities_re[tails]
    t_im = entities_im[tails]
    cos_r, sin_r = _rotations(model, relations, ec)
    scores = ec.empty((len(t_re), model.num_entities))
    for rows in row_slices(len(t_re), model.entity_re.data.size):
        rotated_re = (
            entities_re[None, :, :] * cos_r[rows, None, :]
            - entities_im[None, :, :] * sin_r[rows, None, :]
        )
        rotated_im = (
            entities_re[None, :, :] * sin_r[rows, None, :]
            + entities_im[None, :, :] * cos_r[rows, None, :]
        )
        delta_sq = (rotated_re - t_re[rows, None, :]) ** 2 + (rotated_im - t_im[rows, None, :]) ** 2
        scores[rows] = -np.sqrt(np.sum(delta_sq, axis=-1) + 1e-12)
    return scores


#: Model name -> ``{side: kernel}``; a tail kernel takes ``(model, heads,
#: relations)`` and a head kernel ``(model, relations, tails)``, like the
#: model methods they replaced.
BATCH_SCORE_ORACLES = {
    "TransE": {"tail": transe_tails, "head": transe_heads},
    "TransH": {"tail": transh_tails, "head": transh_heads},
    "TransR": {"tail": transr_tails, "head": transr_heads},
    "TransD": {"tail": transd_tails, "head": transd_heads},
    "RotatE": {"tail": rotate_tails, "head": rotate_heads},
}


class OracleScorer:
    """A translational model whose batched kernels are the row-sliced oracles.

    Evaluating it ranks with the model's parameters through the kernels
    above, in the model's eval dtype (fp64 unless set on the model).
    """

    def __init__(self, model) -> None:
        self.model = model
        self._kernels = BATCH_SCORE_ORACLES[model.name]

    def score_tails_batch(self, heads, relations):
        return self._kernels["tail"](self.model, heads, relations)

    def score_heads_batch(self, relations, tails):
        return self._kernels["head"](self.model, relations, tails)
