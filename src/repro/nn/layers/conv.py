"""2D convolution implemented via im2col.

The forward pass extracts *input vectors* (im2col rows) and multiplies
them with the filter matrix — exactly the dot products MERCURY reuses.
When a compute engine is attached (``self.engine``), both the forward
product and the input-gradient product of the backward pass are routed
through it so the reuse engine can group similar vectors by signature.
"""

from __future__ import annotations

import numpy as np

from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.init import default_rng, he_normal
from repro.nn.module import Module, Parameter


class Conv2D(Module):
    """A standard 2D convolution layer.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of input and output feature maps.
    kernel_size:
        Square filter size ``k`` (the paper's examples use 3x3).
    stride, padding:
        Convolution stride and zero padding.
    bias:
        Whether to add a per-output-channel bias.
    seed:
        Seed for weight initialisation.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 seed: int | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        rng = default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        weight = he_normal((out_channels, in_channels, kernel_size, kernel_size),
                           fan_in, rng)
        self.weight = Parameter(weight, name="conv_weight")
        self.bias = Parameter(np.zeros(out_channels), name="conv_bias") if bias else None

        self._cache = None
        # (weight array, its 2-D (out_channels, features) view).  The
        # optimizers update parameter arrays in place, so the view stays
        # valid across steps; it is rebuilt only if ``weight.value`` is
        # rebound to a different array.
        self._weight_matrix_cache: tuple | None = None

    # ------------------------------------------------------------------
    def output_shape(self, height: int, width: int) -> tuple:
        """Spatial output shape for a given input height/width."""
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return out_h, out_w

    def _weight_matrix(self) -> np.ndarray:
        """The filters as a cached ``(out_channels, features)`` view.

        Forward multiplies input vectors by its transpose, backward by
        the matrix itself; both orientations are zero-copy views of the
        parameter array.
        """
        value = self.weight.value
        cache = self._weight_matrix_cache
        if cache is None or cache[0] is not value:
            flat = value.reshape(self.out_channels, -1)
            if flat.base is not value:
                # reshape copied (non-contiguous weights, e.g. rebound
                # to a transposed array): caching the copy would freeze
                # the layer against in-place optimizer updates, so
                # rebuild per call instead.
                return flat
            cache = (value, flat)
            self._weight_matrix_cache = cache
        return cache[1]

    def _engine_forward(self, cols: np.ndarray, weight_matrix: np.ndarray) -> np.ndarray:
        """Route the forward dot products through the engine.

        An engine with ``matmul_groups`` (the training reuse engine)
        hashes each input channel's ``k x k`` patches on their own
        (§III-B): it gets the same ``cols`` and ``(features,
        out_channels)`` weight view the engine-less product multiplies,
        split into ``in_channels`` groups, and runs that product once
        with every HIT channel patch replaced by its representative's.
        Every other engine, and a single-channel conv, multiplies the
        whole patch with one ``matmul``.
        """
        if (self.in_channels == 1
                or not hasattr(self.engine, "matmul_groups")):
            return self.engine.matmul(cols, weight_matrix,
                                      layer=self.layer_name, phase="forward")
        return self.engine.matmul_groups(cols, weight_matrix,
                                         groups=self.in_channels,
                                         layer=self.layer_name)

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, _, height, width = x.shape
        out_h, out_w = self.output_shape(height, width)

        cols = im2col(x, self.kernel_size, self.kernel_size,
                      self.stride, self.padding)
        weight_matrix = self._weight_matrix().T

        if self.engine is not None:
            out = self._engine_forward(cols, weight_matrix)
        else:
            out = cols @ weight_matrix

        if self.bias is not None:
            # Both branches above return a fresh array, so the bias add
            # can be in place.
            out += self.bias.value

        self._cache = (x.shape, cols)
        out = out.reshape(batch, out_h, out_w, self.out_channels)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        input_shape, cols = self._cache
        batch = grad_output.shape[0]

        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)

        if self.bias is not None:
            self.bias.grad += grad_matrix.sum(axis=0)

        # Weight gradient: convolution of output gradients with saved inputs
        # (equation (1) in the paper).  Computed directly in the filter
        # orientation so the reshape back to 4-D is a view, not a copy.
        weight_grad = grad_matrix.T @ cols
        self.weight.grad += weight_grad.reshape(self.weight.value.shape)

        # Input gradient: each row of grad_matrix is a *gradient vector*;
        # MERCURY reuses results among similar gradient vectors during
        # backward propagation (equation (2) / §III-C2).
        weight_matrix = self._weight_matrix()
        if self.engine is not None:
            grad_cols = self.engine.matmul(grad_matrix, weight_matrix,
                                           layer=self.layer_name, phase="backward")
        else:
            grad_cols = grad_matrix @ weight_matrix

        grad_input = col2im(grad_cols, input_shape, self.kernel_size,
                            self.kernel_size, self.stride, self.padding)
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Conv2D({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")
