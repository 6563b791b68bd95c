"""Base classes for layers: ``Parameter`` and ``Module``.

The framework deliberately avoids a tape-based autograd.  Each layer
caches what it needs during ``forward`` and implements ``backward``
explicitly, mirroring how the paper describes forward and backward
propagation as separate convolution / matrix-multiplication passes on
the accelerator (§II-C of the paper).
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor together with its accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class for all layers and composite networks.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Child
    modules and parameters assigned as attributes are discovered
    automatically by :meth:`parameters` and :meth:`modules`.
    """

    def __init__(self):
        self.training = True
        # Optional compute engine (see repro.core.reuse.ReuseEngine).
        # When set on a layer that performs dot products, the layer
        # routes its matrix multiplications through the engine so
        # MERCURY can skip similar computations.
        self.engine = None
        # A stable name used to key signature tables saved between the
        # forward and backward passes; set by Sequential / models.
        self.layer_name = self.__class__.__name__

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        """Yield ``(name, Parameter)`` pairs for this module and children."""
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{attr}", value)
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{prefix}{attr}.{i}.")
                    elif isinstance(item, Parameter):
                        yield (f"{prefix}{attr}.{i}", item)

    def parameters(self) -> list:
        """Return all trainable parameters of this module and children."""
        return [p for _, p in self.named_parameters()]

    def modules(self):
        """Yield this module and all child modules, depth first."""
        yield self
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # Modes and engines
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def set_engine(self, engine) -> "Module":
        """Attach a compute engine (e.g. a MERCURY ReuseEngine) to every
        layer that performs dot products."""
        for m in self.modules():
            m.engine = engine
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


def assign_unique_layer_names(root: Module, prefix: str = "layer") -> Module:
    """Give every module in ``root`` a unique ``layer_name``.

    MERCURY keys its per-layer signature tables and statistics by
    ``layer_name``; composite models (ResNet blocks, Inception branches,
    ...) contain many instances of the same class, so the default
    class-name value would collide.  Model builders call this once after
    construction.
    """
    for index, module in enumerate(root.modules()):
        module.layer_name = f"{prefix}{index}:{module.__class__.__name__}"
    return root
