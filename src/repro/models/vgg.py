"""Scaled VGG-13 / VGG-16 / VGG-19.

The original VGG configurations (2x64, 2x128, 2x256, 2x512, 2x512 for
VGG-13, with 3- and 4-convolution stages for VGG-16/19) are kept
structurally intact with channel widths divided by eight, so VGG-13
still has the ten convolution layers the paper's Figure 1 / Figure 15
case study analyses.
"""

from __future__ import annotations

from repro.nn import (BatchNorm2D, Conv2D, GlobalAvgPool2D, Linear, MaxPool2D,
                      ReLU, Sequential)
from repro.nn.module import assign_unique_layer_names

# Channel configurations; "P" is a 2x2 max pool.
_VGG_CONFIGS = {
    "vgg13": [8, 8, "P", 16, 16, "P", 32, 32, "P", 64, 64, "P", 64, 64],
    "vgg16": [8, 8, "P", 16, 16, "P", 32, 32, 32, "P", 64, 64, 64, "P",
              64, 64, 64],
    "vgg19": [8, 8, "P", 16, 16, "P", 32, 32, 32, 32, "P", 64, 64, 64, 64,
              "P", 64, 64, 64, 64],
}


def build_vgg(variant: str, num_classes: int = 8, in_channels: int = 3,
              seed: int = 0) -> Sequential:
    """Build one of the three VGG variants."""
    if variant not in _VGG_CONFIGS:
        raise ValueError(f"unknown VGG variant {variant!r}")
    layers = []
    channels = in_channels
    conv_seed = seed
    for item in _VGG_CONFIGS[variant]:
        if item == "P":
            layers.append(MaxPool2D(2))
        else:
            # Batch-normalised variant (VGG-BN); the plain configuration
            # does not train reliably at this reduced width.
            layers.append(Conv2D(channels, item, 3, padding=1, seed=conv_seed))
            layers.append(BatchNorm2D(item))
            layers.append(ReLU())
            channels = item
            conv_seed += 1
    layers.append(GlobalAvgPool2D())
    layers.append(Linear(channels, 32, seed=conv_seed))
    layers.append(ReLU())
    layers.append(Linear(32, num_classes, seed=conv_seed + 1))
    model = Sequential(*layers)
    return assign_unique_layer_names(model, prefix=variant)


def build_vgg13(num_classes: int = 8, in_channels: int = 3, seed: int = 0) -> Sequential:
    return build_vgg("vgg13", num_classes, in_channels, seed)


def build_vgg16(num_classes: int = 8, in_channels: int = 3, seed: int = 0) -> Sequential:
    return build_vgg("vgg16", num_classes, in_channels, seed)


def build_vgg19(num_classes: int = 8, in_channels: int = 3, seed: int = 0) -> Sequential:
    return build_vgg("vgg19", num_classes, in_channels, seed)
