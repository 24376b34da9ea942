"""Tensor-factorization models: RESCAL, DistMult, ComplEx, TuckER.

These models treat the knowledge graph as a partially observed third-order
binary tensor and score a triple through a (multi-)linear product of the head,
relation and tail representations.  They are trained with the logistic /
binary-cross-entropy loss in the paper's experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Tensor
from ..autodiff.fused import trilinear_score
from .base import KGEModel, ModelConfig


class RESCAL(KGEModel):
    """Nickel et al. (2011): ``f(h, r, t) = h^T W_r t`` with a full relation matrix."""

    default_loss = "bce"

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity = self.register_parameter("entity", self.normal_init(num_entities, dim, std=0.2))
        self.relation = self.register_parameter(
            "relation", self.normal_init(num_relations, dim, dim, std=0.2)
        )

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h = self.entity.gather(heads).reshape(len(heads), 1, -1)    # (b, 1, d)
        t = self.entity.gather(tails).reshape(len(tails), -1, 1)    # (b, d, 1)
        w_r = self.relation.gather(relations)                        # (b, d, d)
        return (h @ w_r @ t).reshape(len(heads))

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]                                      # (B, d)
        w_r = ec.table(self.relation)[ec.index(relations)]                 # (B, d, d)
        query = np.einsum("bd,bdk->bk", h, w_r)                            # h^T W_r
        return query @ entities.T

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        t = entities[ec.index(tails)]
        w_r = ec.table(self.relation)[ec.index(relations)]
        query = np.einsum("bdk,bk->bd", w_r, t)                            # W_r t
        return query @ entities.T


class DistMult(KGEModel):
    """Yang et al. (2015): RESCAL restricted to diagonal relation matrices.

    ``f(h, r, t) = <h, w_r, t>``.  The symmetry of the score in ``h`` and ``t``
    is the reason the paper notes DistMult can only model symmetric relations.
    """

    default_loss = "bce"

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity = self.register_parameter("entity", self.normal_init(num_entities, dim, std=0.3))
        self.relation = self.register_parameter("relation", self.normal_init(num_relations, dim, std=0.3))

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        return trilinear_score(self.entity, self.relation, heads, relations, tails)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]
        r = ec.table(self.relation)[ec.index(relations)]
        return (h * r) @ entities.T

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        r = ec.table(self.relation)[ec.index(relations)]
        t = entities[ec.index(tails)]
        return (r * t) @ entities.T


class ComplEx(KGEModel):
    """Trouillon et al. (2016): DistMult over complex embeddings.

    ``f(h, r, t) = Re(<h, w_r, conj(t)>)`` which expands into four real
    tri-linear terms, allowing asymmetric relations to be modelled.
    """

    default_loss = "bce"

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.entity_re = self.register_parameter("entity_re", self.normal_init(num_entities, dim, std=0.3))
        self.entity_im = self.register_parameter("entity_im", self.normal_init(num_entities, dim, std=0.3))
        self.relation_re = self.register_parameter("relation_re", self.normal_init(num_relations, dim, std=0.3))
        self.relation_im = self.register_parameter("relation_im", self.normal_init(num_relations, dim, std=0.3))

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        h_re = self.entity_re.gather(heads)
        h_im = self.entity_im.gather(heads)
        t_re = self.entity_re.gather(tails)
        t_im = self.entity_im.gather(tails)
        r_re = self.relation_re.gather(relations)
        r_im = self.relation_im.gather(relations)
        score = (
            (h_re * r_re * t_re).sum(axis=-1)
            + (h_im * r_re * t_im).sum(axis=-1)
            + (h_re * r_im * t_im).sum(axis=-1)
            - (h_im * r_im * t_re).sum(axis=-1)
        )
        return score

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        heads = ec.index(heads)
        relations = ec.index(relations)
        entities_re = ec.table(self.entity_re)
        entities_im = ec.table(self.entity_im)
        h_re = entities_re[heads]
        h_im = entities_im[heads]
        r_re = ec.table(self.relation_re)[relations]
        r_im = ec.table(self.relation_im)[relations]
        # Re(<h, w_r, conj(t)>) grouped by the tail factors: the real part of
        # the candidate multiplies (h_re r_re - h_im r_im), the imaginary part
        # multiplies (h_im r_re + h_re r_im).
        query_re = h_re * r_re - h_im * r_im
        query_im = h_im * r_re + h_re * r_im
        return query_re @ entities_re.T + query_im @ entities_im.T

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        relations = ec.index(relations)
        tails = ec.index(tails)
        entities_re = ec.table(self.entity_re)
        entities_im = ec.table(self.entity_im)
        t_re = entities_re[tails]
        t_im = entities_im[tails]
        r_re = ec.table(self.relation_re)[relations]
        r_im = ec.table(self.relation_im)[relations]
        query_re = r_re * t_re + r_im * t_im
        query_im = r_re * t_im - r_im * t_re
        return query_re @ entities_re.T + query_im @ entities_im.T


class TuckER(KGEModel):
    """Balažević et al. (2019): Tucker decomposition of the KG tensor.

    ``f(h, r, t) = W ×₁ h ×₂ w_r ×₃ t`` with a shared core tensor
    ``W ∈ R^{d_e × d_r × d_e}``.  ``config.extra["relation_dim"]`` sets the
    relation dimension (defaults to the entity dimension).
    """

    default_loss = "bce"

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.relation_dim = int(self.config.extra.get("relation_dim", dim))
        self.entity = self.register_parameter("entity", self.normal_init(num_entities, dim, std=0.3))
        self.relation = self.register_parameter(
            "relation", self.normal_init(num_relations, self.relation_dim, std=0.3)
        )
        self.core = self.register_parameter(
            "core", self.normal_init(dim, self.relation_dim, dim, std=0.2)
        )

    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        dim = self.config.dim
        h = self.entity.gather(heads)                              # (b, d_e)
        r = self.relation.gather(relations)                        # (b, d_r)
        t = self.entity.gather(tails)                              # (b, d_e)
        # W ×₁ h : contract the first mode of the core with the head.
        core_matrix = self.core.reshape(dim, self.relation_dim * dim)
        hw = (h @ core_matrix).reshape(len(heads), self.relation_dim, dim)   # (b, d_r, d_e)
        # ×₂ w_r : contract the relation mode.
        hwr = (r.reshape(len(heads), 1, self.relation_dim) @ hw).reshape(len(heads), dim)
        # ×₃ t : inner product with the tail.
        return (hwr * t).sum(axis=-1)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        h = entities[ec.index(heads)]                                      # (B, d_e)
        r = ec.table(self.relation)[ec.index(relations)]                   # (B, d_r)
        hw = np.einsum("bi,ijk->bjk", h, ec.table(self.core))              # W ×₁ h
        query = np.einsum("bj,bjk->bk", r, hw)                             # ×₂ w_r
        return query @ entities.T

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        ec = self.score_compute
        entities = ec.table(self.entity)
        r = ec.table(self.relation)[ec.index(relations)]
        t = entities[ec.index(tails)]
        wt = np.einsum("ijk,bk->bij", ec.table(self.core), t)              # W ×₃ t
        query = np.einsum("bij,bj->bi", wt, r)                             # ×₂ w_r
        return query @ entities.T
