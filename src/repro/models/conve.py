"""ConvE (Dettmers et al., 2018): 2D-convolutional knowledge graph embeddings.

The head and relation embeddings are reshaped into 2D grids, stacked, passed
through a 2D convolution and a fully connected projection, and the resulting
vector is matched against the tail embedding with a dot product plus a
per-entity bias.  Compared to the original implementation, batch
normalization is omitted (documented substitution: it mainly accelerates
convergence and our training runs are small) while dropout is kept.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..autodiff import Tensor, conv2d
from .base import KGEModel, ModelConfig


def iter_row_slices(batch: int, row_elements: int) -> "list[slice]":
    """Slices over ``batch`` rows of ``row_elements`` each, ~2M elements a slice.

    The bound keeps a slice's temporaries near 16 MB of float64.  The slice
    height is part of the arithmetic: ``ConvE._hidden_np`` runs BLAS products
    whose rounding can depend on how many rows they multiply, so changing
    the bound can change the last bits of ConvE's head scores.
    """
    step = max(1, 2_000_000 // max(1, row_elements))
    return [slice(start, start + step) for start in range(0, batch, step)]


def _reshape_height(dim: int, kernel_size: int) -> int:
    """Rows of ConvE's 2D embedding reshape when none is configured.

    A height fits when it divides ``dim`` and the stacked
    ``2*height x dim/height`` image is at least ``kernel_size`` both ways.
    The fitting height nearest 4 wins (the smaller on a tie), so every
    ``dim`` that 4 rows fit keeps the 4-row reshape.  Raises
    :class:`ValueError` naming the nearest dims that work when no height
    fits (prime dims, or dims too small for the kernel).
    """

    def heights(candidate: int):
        return [
            h
            for h in range(1, candidate + 1)
            if candidate % h == 0 and 2 * h >= kernel_size and candidate // h >= kernel_size
        ]

    fitting = heights(dim)
    if fitting:
        return min(fitting, key=lambda h: (abs(h - 4), h))
    below = next((d for d in range(dim - 1, 0, -1) if heights(d)), None)
    above = next(d for d in itertools.count(dim + 1) if heights(d))
    nearby = ", ".join(str(d) for d in (below, above) if d is not None)
    raise ValueError(
        f"no ConvE embedding reshape of dim {dim} fits kernel_size {kernel_size}; "
        f"nearest dims that work: {nearby} (or set embedding_height)"
    )


class ConvE(KGEModel):
    """ConvE with a single valid-convolution layer and a dense projection.

    ``config.extra`` keys:

    ``embedding_height`` / ``embedding_width``
        The 2D reshape of the embedding (their product must equal ``dim``).
        Without a height the model picks the divisor of ``dim`` nearest 4
        whose reshape fits the kernel.
    ``num_filters``
        Convolution output channels (default 8).
    ``kernel_size``
        Square kernel size (default 3).
    ``dropout``
        Dropout rate applied to the hidden representation while training.
    """

    default_loss = "bce"

    def __init__(self, num_entities: int, num_relations: int, config: Optional[ModelConfig] = None) -> None:
        super().__init__(num_entities, num_relations, config)
        dim = self.config.dim
        self.kernel_size = int(self.config.extra.get("kernel_size", 3))
        if "embedding_height" in self.config.extra:
            self.height = int(self.config.extra["embedding_height"])
        else:
            self.height = _reshape_height(dim, self.kernel_size)
        self.width = int(self.config.extra.get("embedding_width", dim // self.height))
        if self.height * self.width != dim:
            raise ValueError(
                f"embedding_height * embedding_width must equal dim "
                f"({self.height} * {self.width} != {dim})"
            )
        self.num_filters = int(self.config.extra.get("num_filters", 8))
        self.dropout_rate = float(self.config.extra.get("dropout", 0.1))

        stacked_height = 2 * self.height
        conv_out_h = stacked_height - self.kernel_size + 1
        conv_out_w = self.width - self.kernel_size + 1
        if conv_out_h <= 0 or conv_out_w <= 0:
            raise ValueError("kernel_size too large for the embedding reshape")
        self.flat_size = self.num_filters * conv_out_h * conv_out_w

        self.entity = self.register_parameter("entity", self.normal_init(num_entities, dim, std=0.3))
        self.relation = self.register_parameter("relation", self.normal_init(num_relations, dim, std=0.3))
        self.conv_weight = self.register_parameter(
            "conv_weight",
            self.normal_init(self.num_filters, 1, self.kernel_size, self.kernel_size, std=0.2),
        )
        self.conv_bias = self.register_parameter("conv_bias", np.zeros(self.num_filters))
        self.fc_weight = self.register_parameter(
            "fc_weight", self.normal_init(dim, self.flat_size, std=np.sqrt(2.0 / self.flat_size))
        )
        self.fc_bias = self.register_parameter("fc_bias", np.zeros(dim))
        self.entity_bias = self.register_parameter("entity_bias", np.zeros(num_entities))
        # Last (relation, all-entity hidden matrix) pair computed by head
        # scoring; the evaluator sorts head queries by relation, so one slot
        # bridges chunk boundaries without unbounded retention.  Invalidated
        # on train_mode flips and on zero_grad, which every gradient-based
        # update path goes through; mutating parameter arrays directly
        # without either bypasses the invalidation.
        self._head_hidden_cache: "Optional[tuple]" = None

    def train_mode(self, enabled: bool = True) -> None:
        # Any mode flip brackets a training phase that may have updated the
        # parameters the cached hidden matrix was computed from.
        super().train_mode(enabled)
        self._head_hidden_cache = None

    def zero_grad(self) -> None:
        # Called before every optimizer step, so parameter updates made
        # without a train_mode flip still drop the cached hidden matrix.
        super().zero_grad()
        self._head_hidden_cache = None

    # -- internals ----------------------------------------------------------------
    def _hidden(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        """The ConvE hidden vector for each (head, relation) query."""
        batch = len(heads)
        h = self.entity.gather(heads).reshape(batch, 1, self.height, self.width)
        r = self.relation.gather(relations).reshape(batch, 1, self.height, self.width)
        stacked = h.concat([r], axis=2)                       # (b, 1, 2*height, width)
        features = conv2d(stacked, self.conv_weight, self.conv_bias).relu()
        flat = features.reshape(batch, self.flat_size)
        flat = flat.dropout(self.dropout_rate, self.rng, training=self.training)
        hidden = (flat @ self.fc_weight.transpose()) + self.fc_bias
        return hidden.relu()

    # -- scoring -------------------------------------------------------------------
    def score_triples(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        hidden = self._hidden(np.asarray(heads), np.asarray(relations))
        t = self.entity.gather(tails)
        bias = self.entity_bias.gather(tails)
        return (hidden * t).sum(axis=-1) + bias

    def _hidden_np(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """Hidden vectors with dropout forced off (candidate scoring is eval-time)."""
        was_training = self.training
        self.training = False
        try:
            return self._hidden(np.asarray(heads, dtype=np.int64), np.asarray(relations, dtype=np.int64)).data
        finally:
            self.training = was_training

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        """1-N scoring: compute the hidden vector once, match every entity."""
        hidden = self._hidden_np(np.array([head]), np.array([relation]))[0]
        return self.entity.data @ hidden + self.entity_bias.data

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """1-N scoring: one hidden vector per query, matched against every entity.

        The convolutional hidden vectors are computed on the fp64 autodiff
        path; only the large entity matmul runs in the configured eval dtype.
        """
        ec = self.score_compute
        hidden = ec.array(self._hidden_np(heads, relations))              # (B, d)
        return hidden @ ec.table(self.entity).T + ec.table(self.entity_bias)[None, :]

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Head scoring groups queries by relation: the expensive convolution
        over all candidate heads runs once per distinct relation and is reused
        by every query sharing it."""
        ec = self.score_compute
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        entities = ec.table(self.entity)
        entity_bias = ec.table(self.entity_bias)
        scores = ec.empty((len(relations), self.num_entities))
        candidates = np.arange(self.num_entities)
        for relation in np.unique(relations):
            rows = np.nonzero(relations == relation)[0]
            if self._head_hidden_cache is not None and self._head_hidden_cache[0] == int(relation):
                hidden = self._head_hidden_cache[1]
            else:
                # Sweep the candidate heads in slices: the convolution
                # temporaries scale with flat_size per candidate, so an
                # unchunked all-entity pass would defeat the evaluator's
                # memory bounding.  The cache stays fp64 so it is valid
                # across eval dtype changes.
                hidden = np.empty((self.num_entities, self.config.dim))
                for candidate_rows in iter_row_slices(self.num_entities, self.flat_size):
                    chunk = candidates[candidate_rows]
                    hidden[candidate_rows] = self._hidden_np(chunk, np.full(len(chunk), relation))
                self._head_hidden_cache = (int(relation), hidden)
            query_tails = ec.index(tails[rows])
            t = entities[query_tails]                                     # (k, d)
            bias = entity_bias[query_tails]                               # (k,)
            scores[ec.index(rows)] = t @ ec.array(hidden).T + bias[:, None]
        return scores
