"""The translational model family: TransE, TransH, TransR, TransD, RotatE.

These models represent a relation as a geometric transformation between the
head and the tail embedding and score a triple by the (negated) distance
between the transformed head and the tail.  They are trained with the
margin-ranking loss in the paper's experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Tensor
from ..autodiff.fused import translation_score
from .base import KGEModel, ModelConfig, iter_row_slices


class TransE(KGEModel):
    """Bordes et al. (2013): ``f(h, r, t) = -|| h + r - t ||_p``.

    ``config.extra["norm"]`` selects the L1 (default) or L2 distance, matching
    the ℓ1/ℓ2 choice in the original paper.
    """

    default_loss = "margin"
    normalize_entities = True

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity = self.register_parameter("entity", self.uniform_init(num_entities, dim))
        self.relation = self.register_parameter("relation", self.uniform_init(num_relations, dim))
        self.norm = int(self.config.extra.get("norm", 1))

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        return translation_score(self.entity, self.relation, heads, relations, tails, self.norm)

    def _distance_np(self, delta: np.ndarray) -> np.ndarray:
        if self.norm == 1:
            return np.sum(np.abs(delta), axis=-1)
        return np.sqrt(np.sum(delta ** 2, axis=-1))

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]
        r = ec.table(self.relation)[ec.index(relations)]
        query = h + r
        scores = ec.empty((len(query), self.num_entities))
        for rows in iter_row_slices(len(query), self.entity.data.size):
            scores[rows] = -self._distance_np(query[rows, None, :] - entities[None, :, :])
        return scores

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        r = ec.table(self.relation)[ec.index(relations)]
        t = entities[ec.index(tails)]
        scores = ec.empty((len(r), self.num_entities))
        for rows in iter_row_slices(len(r), self.entity.data.size):
            delta = (entities[None, :, :] + r[rows, None, :]) - t[rows, None, :]
            scores[rows] = -self._distance_np(delta)
        return scores


class TransH(KGEModel):
    """Wang et al. (2014): translation on a relation-specific hyperplane.

    Entities are projected onto the hyperplane with normal ``w_r`` before the
    TransE-style translation by ``d_r``: ``h_⊥ = h - (w_r·h) w_r``.
    """

    default_loss = "margin"
    normalize_entities = True

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity = self.register_parameter("entity", self.uniform_init(num_entities, dim))
        self.relation = self.register_parameter("relation", self.uniform_init(num_relations, dim))
        self.normal = self.register_parameter("normal", self.normal_init(num_relations, dim, std=0.3))

    def _project(self, vectors: Tensor, normals: Tensor) -> Tensor:
        component = (vectors * normals).sum(axis=-1, keepdims=True)
        return vectors - component * normals

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h = self.entity.gather(heads)
        t = self.entity.gather(tails)
        d_r = self.relation.gather(relations)
        w_r = self.normal.gather(relations)
        # Keep the hyperplane normals approximately unit-length by scaling with
        # their current norm (a soft version of the original hard constraint).
        norm = ((w_r ** 2).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        w_r = w_r / norm
        delta = self._project(h, w_r) + d_r - self._project(t, w_r)
        return -delta.abs().sum(axis=-1)

    @staticmethod
    def _unit_normals(normals_table, relations):
        w_r = normals_table[relations]
        norm = np.sqrt(np.sum(w_r ** 2, axis=-1, keepdims=True) + 1e-12)
        return w_r / norm

    @staticmethod
    def _project_np(vectors: np.ndarray, normals: np.ndarray) -> np.ndarray:
        component = np.sum(vectors * normals, axis=-1, keepdims=True)
        return vectors - component * normals

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]
        d_r = ec.table(self.relation)[relations]
        w_r = self._unit_normals(ec.table(self.normal), relations)        # (B, d)
        query = self._project_np(h, w_r) + d_r                            # (B, d)
        scores = ec.empty((len(query), self.num_entities))
        for rows in iter_row_slices(len(query), self.entity.data.size):
            t_proj = self._project_np(entities[None, :, :], w_r[rows, None, :])
            scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
        return scores

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        entities = ec.table(self.entity)
        t = entities[ec.index(tails)]
        d_r = ec.table(self.relation)[relations]
        w_r = self._unit_normals(ec.table(self.normal), relations)
        t_proj = self._project_np(t, w_r)                                 # (B, d)
        scores = ec.empty((len(t), self.num_entities))
        for rows in iter_row_slices(len(t), self.entity.data.size):
            h_proj = self._project_np(entities[None, :, :], w_r[rows, None, :])
            delta = (h_proj + d_r[rows, None, :]) - t_proj[rows, None, :]
            scores[rows] = -np.sum(np.abs(delta), axis=-1)
        return scores


class TransR(KGEModel):
    """Lin et al. (2015): entities and relations live in different spaces.

    Each relation owns a projection matrix ``M_r ∈ R^{k×d}`` mapping entity
    embeddings (dimension ``d``) into the relation space (dimension ``k``)
    before the translation.  ``config.extra["relation_dim"]`` sets ``k``
    (defaults to ``dim``).
    """

    default_loss = "margin"
    normalize_entities = True

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.relation_dim = int(self.config.extra.get("relation_dim", dim))
        self.entity = self.register_parameter("entity", self.uniform_init(num_entities, dim))
        self.relation = self.register_parameter(
            "relation", self.uniform_init(num_relations, self.relation_dim)
        )
        # Initialize every projection near the identity so early training
        # behaves like TransE, as recommended by the original paper.
        identity_like = np.tile(
            np.eye(self.relation_dim, dim).reshape(1, self.relation_dim, dim),
            (num_relations, 1, 1),
        )
        noise = self.normal_init(num_relations, self.relation_dim, dim, std=0.05)
        self.projection = self.register_parameter("projection", identity_like + noise)

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h = self.entity.gather(heads).reshape(len(heads), -1, 1)
        t = self.entity.gather(tails).reshape(len(tails), -1, 1)
        r = self.relation.gather(relations)
        m_r = self.projection.gather(relations)          # (batch, k, d)
        h_proj = (m_r @ h).reshape(len(heads), self.relation_dim)
        t_proj = (m_r @ t).reshape(len(tails), self.relation_dim)
        return -(h_proj + r - t_proj).abs().sum(axis=-1)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]                                      # (B, d)
        r = ec.table(self.relation)[relations]                             # (B, k)
        m_r = ec.table(self.projection)[relations]                         # (B, k, d)
        query = np.einsum("bkd,bd->bk", m_r, h) + r                        # (B, k)
        scores = ec.empty((len(query), self.num_entities))
        for rows in iter_row_slices(len(query), self.num_entities * self.relation_dim):
            t_proj = np.einsum("bkd,ed->bek", m_r[rows], entities)         # (rows, E, k)
            scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
        return scores

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        entities = ec.table(self.entity)
        t = entities[ec.index(tails)]
        r = ec.table(self.relation)[relations]
        m_r = ec.table(self.projection)[relations]
        t_proj = np.einsum("bkd,bd->bk", m_r, t)                           # (B, k)
        scores = ec.empty((len(t), self.num_entities))
        for rows in iter_row_slices(len(t), self.num_entities * self.relation_dim):
            h_proj = np.einsum("bkd,ed->bek", m_r[rows], entities)         # (rows, E, k)
            delta = (h_proj + r[rows, None, :]) - t_proj[rows, None, :]
            scores[rows] = -np.sum(np.abs(delta), axis=-1)
        return scores


class TransD(KGEModel):
    """Ji et al. (2015): dynamic per entity-relation projection vectors.

    The projection matrix of TransR is decomposed into the outer product of a
    relation projection vector and an entity projection vector plus the
    identity, which reduces to ``h_⊥ = h + (h_p · h) r_p`` when entity and
    relation spaces share a dimension.
    """

    default_loss = "margin"
    normalize_entities = True

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity = self.register_parameter("entity", self.uniform_init(num_entities, dim))
        self.relation = self.register_parameter("relation", self.uniform_init(num_relations, dim))
        self.entity_proj = self.register_parameter("entity_proj", self.normal_init(num_entities, dim, std=0.2))
        self.relation_proj = self.register_parameter("relation_proj", self.normal_init(num_relations, dim, std=0.2))

    def _project(self, vectors: Tensor, vector_proj: Tensor, relation_proj: Tensor) -> Tensor:
        component = (vector_proj * vectors).sum(axis=-1, keepdims=True)
        return vectors + component * relation_proj

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h = self.entity.gather(heads)
        t = self.entity.gather(tails)
        r = self.relation.gather(relations)
        h_p = self.entity_proj.gather(heads)
        t_p = self.entity_proj.gather(tails)
        r_p = self.relation_proj.gather(relations)
        delta = self._project(h, h_p, r_p) + r - self._project(t, t_p, r_p)
        return -delta.abs().sum(axis=-1)

    def _entity_components(self, ec) -> np.ndarray:
        """``(e_p · e)`` for every entity — the dynamic projection coefficients."""
        return np.sum(ec.table(self.entity_proj) * ec.table(self.entity), axis=-1)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        heads = ec.index(heads)
        relations = ec.index(relations)
        entities = ec.table(self.entity)
        h = entities[heads]
        r = ec.table(self.relation)[relations]
        h_p = ec.table(self.entity_proj)[heads]
        r_p = ec.table(self.relation_proj)[relations]
        query = h + (np.sum(h_p * h, axis=-1, keepdims=True)) * r_p + r    # (B, d)
        components = self._entity_components(ec)                            # (E,)
        scores = ec.empty((len(query), self.num_entities))
        for rows in iter_row_slices(len(query), self.entity.data.size):
            t_proj = entities[None, :, :] + components[None, :, None] * r_p[rows, None, :]
            scores[rows] = -np.sum(np.abs(query[rows, None, :] - t_proj), axis=-1)
        return scores

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        tails = ec.index(tails)
        entities = ec.table(self.entity)
        t = entities[tails]
        r = ec.table(self.relation)[relations]
        t_p = ec.table(self.entity_proj)[tails]
        r_p = ec.table(self.relation_proj)[relations]
        t_proj = t + (np.sum(t_p * t, axis=-1, keepdims=True)) * r_p        # (B, d)
        components = self._entity_components(ec)
        scores = ec.empty((len(t), self.num_entities))
        for rows in iter_row_slices(len(t), self.entity.data.size):
            h_proj = entities[None, :, :] + components[None, :, None] * r_p[rows, None, :]
            delta = (h_proj + r[rows, None, :]) - t_proj[rows, None, :]
            scores[rows] = -np.sum(np.abs(delta), axis=-1)
        return scores


class RotatE(KGEModel):
    """Sun et al. (2019): relations as rotations in the complex plane.

    Entities are complex vectors (stored as concatenated real and imaginary
    halves); a relation is a vector of phases.  The score is the negated L2
    distance ``-|| h ∘ r - t ||`` where ``∘`` is the complex Hadamard product
    with the unit-modulus rotation ``r = e^{iθ}``.
    """

    default_loss = "self_adversarial"
    normalize_entities = False

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity_re = self.register_parameter("entity_re", self.uniform_init(num_entities, dim, scale=0.5))
        self.entity_im = self.register_parameter("entity_im", self.uniform_init(num_entities, dim, scale=0.5))
        # Phases are stored directly; cos/sin are recomputed per batch.
        self.phase = self.register_parameter(
            "phase", self.rng.uniform(-np.pi, np.pi, size=(num_relations, dim))
        )

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h_re = self.entity_re.gather(heads)
        h_im = self.entity_im.gather(heads)
        t_re = self.entity_re.gather(tails)
        t_im = self.entity_im.gather(tails)
        phases = self.phase.gather(relations)
        cos_r = phases.cos()
        sin_r = phases.sin()
        rotated_re = h_re * cos_r - h_im * sin_r
        rotated_im = h_re * sin_r + h_im * cos_r
        delta_sq = (rotated_re - t_re) ** 2 + (rotated_im - t_im) ** 2
        distance = (delta_sq.sum(axis=-1) + 1e-12).sqrt()
        return -distance

    def _rotations(self, relations: np.ndarray, ec) -> tuple:
        phases = ec.table(self.phase)[relations]
        return np.cos(phases), np.sin(phases)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        heads = ec.index(heads)
        relations = ec.index(relations)
        entities_re = ec.table(self.entity_re)
        entities_im = ec.table(self.entity_im)
        h_re = entities_re[heads]
        h_im = entities_im[heads]
        cos_r, sin_r = self._rotations(relations, ec)
        rotated_re = h_re * cos_r - h_im * sin_r                            # (B, d)
        rotated_im = h_re * sin_r + h_im * cos_r
        scores = ec.empty((len(rotated_re), self.num_entities))
        for rows in iter_row_slices(len(rotated_re), self.entity_re.data.size):
            delta_sq = (
                (rotated_re[rows, None, :] - entities_re[None, :, :]) ** 2
                + (rotated_im[rows, None, :] - entities_im[None, :, :]) ** 2
            )
            scores[rows] = -np.sqrt(np.sum(delta_sq, axis=-1) + 1e-12)
        return scores

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        tails = ec.index(tails)
        entities_re = ec.table(self.entity_re)
        entities_im = ec.table(self.entity_im)
        t_re = entities_re[tails]
        t_im = entities_im[tails]
        cos_r, sin_r = self._rotations(relations, ec)
        scores = ec.empty((len(t_re), self.num_entities))
        for rows in iter_row_slices(len(t_re), self.entity_re.data.size):
            rotated_re = (
                entities_re[None, :, :] * cos_r[rows, None, :]
                - entities_im[None, :, :] * sin_r[rows, None, :]
            )                                                               # (rows, E, d)
            rotated_im = (
                entities_re[None, :, :] * sin_r[rows, None, :]
                + entities_im[None, :, :] * cos_r[rows, None, :]
            )
            delta_sq = (rotated_re - t_re[rows, None, :]) ** 2 + (rotated_im - t_im[rows, None, :]) ** 2
            scores[rows] = -np.sqrt(np.sum(delta_sq, axis=-1) + 1e-12)
        return scores

    def apply_constraints(
        self,
        touched_entities: Optional[np.ndarray] = None,
        touched_relations: Optional[np.ndarray] = None,
    ) -> None:
        # Keep phases within (-π, π] for interpretability; entity embeddings
        # are unconstrained as in the original model.  Phases are a relation
        # table, so only the touched relation rows need re-wrapping.
        phase = self.phase.data
        if touched_relations is None:
            np.mod(phase + np.pi, 2 * np.pi, out=phase)
            phase -= np.pi
        else:
            rows = np.asarray(touched_relations, dtype=np.int64)
            phase[rows] = np.mod(phase[rows] + np.pi, 2 * np.pi) - np.pi
