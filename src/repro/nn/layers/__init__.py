"""Layer implementations for the numpy DNN framework."""

from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.activations import ReLU, GELU
from repro.nn.layers.pooling import MaxPool2D, GlobalAvgPool2D
from repro.nn.layers.norm import BatchNorm2D, LayerNorm
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.reshape import Flatten
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.attention import MultiHeadSelfAttention

__all__ = [
    "Conv2D",
    "Linear",
    "ReLU",
    "GELU",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "BatchNorm2D",
    "LayerNorm",
    "Dropout",
    "Flatten",
    "Embedding",
    "MultiHeadSelfAttention",
]
