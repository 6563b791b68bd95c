"""Tests for the model zoo and the synthetic datasets."""

import numpy as np
import pytest

from repro.data import (BatchLoader, ClusteredImageDataset, ImageDatasetConfig,
                        TranslationConfig, TranslationDataset, train_test_split)
from repro.models import CNN_MODEL_NAMES, MODEL_NAMES, build_model, get_spec
from repro.models.blocks import (ConvBNReLU, FireBlock, InceptionBlock,
                                 ResidualBlock, SeparableBlock,
                                 TransformerEncoderBlock)
from repro.nn import Conv2D, CrossEntropyLoss

RNG = np.random.default_rng(5)


def _num_parameters(model) -> int:
    return sum(parameter.size for parameter in model.parameters())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_has_twelve_models():
    assert len(MODEL_NAMES) == 12
    assert len(CNN_MODEL_NAMES) == 11
    assert "transformer" in MODEL_NAMES


def test_get_spec_and_unknown_model():
    spec = get_spec("vgg13")
    assert spec.kind == "cnn"
    with pytest.raises(ValueError):
        get_spec("lenet")
    with pytest.raises(ValueError):
        build_model("lenet")


def test_vgg13_has_ten_convolutions():
    for name, convs in (("vgg13", 10), ("vgg16", 13), ("vgg19", 16)):
        assert sum(isinstance(module, Conv2D)
                   for module in build_model(name).modules()) == convs


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_runs_forward_and_backward(name):
    spec = get_spec(name)
    model = build_model(name, seed=0)
    if spec.kind == "cnn":
        x = RNG.normal(size=(2, *spec.input_shape))
        y = RNG.integers(0, spec.num_classes, size=2)
    else:
        x = RNG.integers(0, spec.num_classes, size=(2, spec.input_shape[0]))
        y = RNG.integers(0, spec.num_classes, size=(2, spec.input_shape[0]))
    loss_fn = CrossEntropyLoss()
    logits = model(x)
    assert logits.shape[-1] == spec.num_classes
    loss = loss_fn(logits, y)
    assert np.isfinite(loss)
    model.zero_grad()
    model.backward(loss_fn.backward())
    # Every parameter receives some gradient signal somewhere.
    grads = np.concatenate([p.grad.reshape(-1) for p in model.parameters()])
    assert np.any(grads != 0)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_layer_names_are_unique(name):
    model = build_model(name, seed=0)
    names = [m.layer_name for m in model.modules()]
    assert len(names) == len(set(names))


def test_resnet_family_size_ordering():
    sizes = [_num_parameters(build_model(n))
             for n in ("resnet50", "resnet101", "resnet152")]
    assert sizes == sorted(sizes)


def test_vgg_family_size_ordering():
    sizes = [_num_parameters(build_model(n))
             for n in ("vgg13", "vgg16", "vgg19")]
    assert sizes == sorted(sizes)


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------
def _roundtrip(block, x):
    out = block(x)
    grad = block.backward(np.ones_like(out))
    assert grad.shape == x.shape
    return out


def test_residual_block_shapes_and_projection():
    block = ResidualBlock(4, 8, stride=2, seed=0)
    out = _roundtrip(block, RNG.normal(size=(2, 4, 8, 8)))
    assert out.shape == (2, 8, 4, 4)
    identity = ResidualBlock(4, 4, stride=1, seed=0)
    assert identity.shortcut_conv is None


def test_inception_block_concatenates_branches():
    block = InceptionBlock(6, (2, 3, 4), seed=0)
    out = _roundtrip(block, RNG.normal(size=(1, 6, 8, 8)))
    assert out.shape == (1, 9, 8, 8)
    assert block.out_channels == 9


def test_fire_block_output_channels():
    block = FireBlock(8, 4, 6, seed=0)
    out = _roundtrip(block, RNG.normal(size=(1, 8, 6, 6)))
    assert out.shape == (1, 12, 6, 6)


def test_separable_block():
    block = SeparableBlock(4, 10, stride=2, seed=0)
    out = _roundtrip(block, RNG.normal(size=(1, 4, 8, 8)))
    assert out.shape == (1, 10, 4, 4)


def test_conv_bn_relu_is_nonnegative():
    block = ConvBNReLU(3, 4, seed=0)
    out = block(RNG.normal(size=(2, 3, 6, 6)))
    assert np.all(out >= 0)


def test_transformer_encoder_block_preserves_shape():
    block = TransformerEncoderBlock(8, 2, 16, seed=0)
    out = _roundtrip(block, RNG.normal(size=(2, 5, 8)))
    assert out.shape == (2, 5, 8)


# ----------------------------------------------------------------------
# Image dataset
# ----------------------------------------------------------------------
def test_image_dataset_shapes_and_labels():
    config = ImageDatasetConfig(num_classes=4, samples_per_class=6, image_size=16)
    dataset = ClusteredImageDataset(config)
    assert len(dataset) == 24
    assert dataset.images.shape == (24, 3, 16, 16)
    assert set(np.unique(dataset.labels)) == set(range(4))
    image, label = dataset[0]
    assert image.shape == dataset.input_shape
    assert 0 <= label < 4


def test_image_dataset_is_deterministic():
    config = ImageDatasetConfig(num_classes=3, samples_per_class=4, image_size=12)
    a = ClusteredImageDataset(config)
    b = ClusteredImageDataset(config)
    np.testing.assert_array_equal(a.images, b.images)


def test_image_dataset_classes_are_separable():
    """Class prototypes are far apart relative to the sample noise."""
    config = ImageDatasetConfig(num_classes=3, samples_per_class=10, image_size=16)
    dataset = ClusteredImageDataset(config)
    prototypes = dataset.prototypes
    across = np.mean([np.abs(prototypes[a] - prototypes[b]).mean()
                      for a in range(3) for b in range(a + 1, 3)])
    assert across > 3 * config.noise_std


def test_image_dataset_has_patch_similarity():
    """The property MERCURY exploits: repeated patch signatures."""
    from repro.core.rpq import RPQHasher
    from repro.nn.im2col import im2col
    dataset = ClusteredImageDataset(ImageDatasetConfig(num_classes=3,
                                                       samples_per_class=4,
                                                       image_size=16))
    cols = im2col(dataset.images[:4, :1], 3, 3)
    similarity = RPQHasher(seed=1).similarity_fraction(cols, 20)
    assert similarity > 0.3


def test_image_dataset_validation():
    with pytest.raises(ValueError):
        ImageDatasetConfig(num_classes=1)
    with pytest.raises(ValueError):
        ImageDatasetConfig(image_size=4)


# ----------------------------------------------------------------------
# Translation dataset
# ----------------------------------------------------------------------
def test_translation_dataset_mapping_is_deterministic():
    dataset = TranslationDataset(TranslationConfig(num_samples=20))
    np.testing.assert_array_equal(dataset.targets,
                                  dataset.translate(dataset.sources))
    assert dataset.sources.shape == dataset.targets.shape


def test_translation_tokens_in_vocab():
    dataset = TranslationDataset(TranslationConfig(vocab_size=32, num_samples=10))
    assert dataset.sources.max() < 32
    assert dataset.targets.max() < 32
    assert dataset.vocab_size == 32


def test_translation_mapping_is_a_permutation():
    dataset = TranslationDataset()
    mapping = dataset.token_mapping
    assert len(set(mapping.tolist())) == len(mapping)
    assert mapping[0] == dataset.PAD


def test_translation_validation():
    with pytest.raises(ValueError):
        TranslationConfig(vocab_size=4)
    with pytest.raises(ValueError):
        TranslationConfig(sequence_length=4, slots_per_sentence=4)


# ----------------------------------------------------------------------
# Loaders
# ----------------------------------------------------------------------
def test_train_test_split_partitions():
    inputs = np.arange(40).reshape(20, 2)
    labels = np.arange(20)
    xtr, ytr, xte, yte = train_test_split(inputs, labels, test_fraction=0.25,
                                          seed=1)
    assert len(xtr) == 15 and len(xte) == 5
    assert set(ytr.tolist()) | set(yte.tolist()) == set(range(20))


def test_train_test_split_validation():
    with pytest.raises(ValueError):
        train_test_split(np.zeros((4, 1)), np.zeros(4), test_fraction=0.0)
    with pytest.raises(ValueError):
        train_test_split(np.zeros((4, 1)), np.zeros(3))


def test_batch_loader_covers_all_samples():
    inputs = np.arange(10)[:, None]
    labels = np.arange(10)
    loader = BatchLoader(inputs, labels, batch_size=3, shuffle=True, seed=0)
    assert len(loader) == 4
    seen = []
    for batch_inputs, batch_labels in loader:
        assert len(batch_inputs) == len(batch_labels)
        seen.extend(batch_labels.tolist())
    assert sorted(seen) == list(range(10))


def test_batch_loader_validation():
    with pytest.raises(ValueError):
        BatchLoader(np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        BatchLoader(np.zeros((3, 1)), np.zeros(3), batch_size=0)
