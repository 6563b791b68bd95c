"""A small, from-scratch numpy DNN training framework.

The framework implements explicit forward/backward passes for the layer
types the MERCURY paper exercises (convolution, fully-connected,
attention, pooling, normalisation) so that the reuse engine in
:mod:`repro.core` can intercept every dot product that the paper's
accelerator would perform.
"""

from repro.nn.module import Module, Parameter
from repro.nn.network import Sequential
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.activations import ReLU, GELU
from repro.nn.layers.pooling import MaxPool2D, GlobalAvgPool2D
from repro.nn.layers.norm import BatchNorm2D, LayerNorm
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.reshape import Flatten
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.attention import MultiHeadSelfAttention
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD, Adam

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
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
    "CrossEntropyLoss",
    "SGD",
    "Adam",
]
