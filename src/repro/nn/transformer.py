"""Transformer encoder used for the RL state representation (paper Sec. 5.1).

The default configuration matches the paper: 4 encoder layers, 8 attention
heads, absolute (sinusoidal) positional encodings added to the token
embeddings, and a 256-dimensional output taken from the ``[CLS]`` position.
Smaller configurations are used by the tests and the scaled-down training
runs; the architecture is identical.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Embedding, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor

__all__ = ["positional_encoding", "TransformerEncoderLayer", "TransformerEncoder"]


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Sinusoidal absolute positional encodings of shape ``(length, dim)``."""
    positions = np.arange(length)[:, None]
    dimensions = np.arange(dim)[None, :]
    angle_rates = 1.0 / np.power(10000.0, (2 * (dimensions // 2)) / dim)
    angles = positions * angle_rates
    encoding = np.zeros((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class TransformerEncoderLayer(Module):
    """One pre-norm Transformer encoder layer (attention + feed-forward)."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        feedforward_dim: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        feedforward_dim = feedforward_dim or 4 * model_dim
        base = 0 if seed is None else seed
        self.attention = MultiHeadSelfAttention(model_dim, num_heads, seed=base + 10)
        self.norm1 = LayerNorm(model_dim)
        self.norm2 = LayerNorm(model_dim)
        self.ff1 = Linear(model_dim, feedforward_dim, seed=base + 20)
        self.ff2 = Linear(feedforward_dim, model_dim, seed=base + 21)

    def forward(self, inputs: Tensor, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(self.norm1(inputs), padding_mask)
        return self._feed_forward(inputs + attended)

    def forward_first(self, inputs: Tensor, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        """The layer's output at position 0 only, shape ``(batch, model_dim)``.

        Equal to ``forward(inputs, padding_mask)[:, 0, :]`` in exact
        arithmetic: ``norm1`` and the attention keys/values still see every
        position, everything after them runs on the first position alone.
        """
        attended = self.attention.forward_first(self.norm1(inputs), padding_mask)
        return self._feed_forward(inputs[:, 0, :] + attended)

    def _feed_forward(self, inputs: Tensor) -> Tensor:
        hidden = self.ff2(self.ff1(self.norm2(inputs)).relu())
        return inputs + hidden


class TransformerEncoder(Module):
    """Token-id sequences → fixed-length program embeddings.

    ``forward`` returns the per-token representations; :meth:`encode`
    returns the pooled ``[CLS]`` embedding used as the RL state.
    """

    def __init__(
        self,
        vocab_size: int,
        model_dim: int = 256,
        num_layers: int = 4,
        num_heads: int = 8,
        max_length: int = 256,
        feedforward_dim: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.model_dim = model_dim
        self.max_length = max_length
        self.embedding = Embedding(vocab_size, model_dim, seed=seed)
        self._positional = positional_encoding(max_length, model_dim)
        self.layers_count = num_layers
        for index in range(num_layers):
            layer_seed = None if seed is None else seed + 100 * (index + 1)
            setattr(
                self,
                f"layer{index}",
                TransformerEncoderLayer(model_dim, num_heads, feedforward_dim, seed=layer_seed),
            )
        self.final_norm = LayerNorm(model_dim)

    def _embed(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        length = token_ids.shape[1]
        if length > self.max_length:
            raise ValueError(f"sequence length {length} exceeds max_length {self.max_length}")
        return self.embedding(token_ids) + Tensor(self._positional[:length])

    def forward(self, token_ids: np.ndarray, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        hidden = self._embed(token_ids)
        for index in range(self.layers_count):
            hidden = getattr(self, f"layer{index}")(hidden, padding_mask)
        return self.final_norm(hidden)

    def encode(self, token_ids: np.ndarray, padding_mask: Optional[np.ndarray] = None) -> Tensor:
        """Pooled ``[CLS]`` embedding of shape ``(batch, model_dim)``.

        Equal to ``forward(token_ids, padding_mask)[:, 0, :]`` in exact
        arithmetic (not bit for bit), but only the first position is
        carried through the last layer: all earlier layers run over every
        position, the last one computes keys and values over every position
        and the rest (query, attention row, output projection, residual,
        feed-forward, ``final_norm``) for ``[CLS]`` alone.  The backward
        pass of an RL loss shrinks the same way.
        """
        hidden = self._embed(token_ids)
        if self.layers_count == 0:
            return self.final_norm(hidden[:, 0, :])
        last = self.layers_count - 1
        for index in range(last):
            hidden = getattr(self, f"layer{index}")(hidden, padding_mask)
        return self.final_norm(getattr(self, f"layer{last}").forward_first(hidden, padding_mask))
