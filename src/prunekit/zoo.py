"""Bundled benchmark architectures with seeded random weights.

These reconstruct the standard 32x32-input configurations used throughout the
CIFAR pruning literature, so cost counters and pruning behaviour can be
exercised at realistic scale without shipping tens of megabytes of weights.
Weights are deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .graph import GraphBuilder, ModelGraph, infer_shapes

VGG16_WIDTHS = (64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512, "M")


def _conv_w(rng: np.random.Generator, n: int, m: int, k: int) -> np.ndarray:
    std = (2.0 / (k * k * m)) ** 0.5
    return (rng.standard_normal((n, m, k, k)) * std).astype(np.float32)


def _linear_w(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    std = (1.0 / m) ** 0.5
    return (rng.standard_normal((n, m)) * std).astype(np.float32)


def _bn_params(rng: np.random.Generator, c: int) -> dict:
    return {
        "gamma": rng.uniform(0.5, 1.5, c).astype(np.float32),
        "beta": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_mean": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_var": rng.uniform(0.5, 1.5, c).astype(np.float32),
    }


def vgg16(seed: int = 0, num_classes: int = 10, input_size: int = 32) -> ModelGraph:
    """13 conv layers (each conv-BN-ReLU, biased convs), 5 max pools, one
    classifier. Conv ids follow the usual block naming: conv1_1 .. conv5_3.
    The five pools divide ``input_size`` by 32, so it must be a multiple of 32;
    the classifier reads the flattened 512 x (input_size/32)^2 features."""
    if input_size < 32 or input_size % 32:
        raise ShapeError(f"vgg16 input_size must be a positive multiple of 32, got {input_size}")
    rng = np.random.default_rng(seed)
    b = GraphBuilder(3, input_size)
    prev = "input"
    width = 3
    block, pos = 1, 1
    for item in VGG16_WIDTHS:
        if item == "M":
            prev = b.pool(f"pool{block}", prev, "max", kernel=2, stride=2)
            block, pos = block + 1, 1
            continue
        name = f"conv{block}_{pos}"
        prev = b.conv(
            name,
            prev,
            _conv_w(rng, item, width, 3),
            bias=(rng.standard_normal(item) * 0.01).astype(np.float32),
            padding=1,
        )
        prev = b.batchnorm(f"bn{block}_{pos}", prev, **_bn_params(rng, item))
        prev = b.relu(f"relu{block}_{pos}", prev)
        width = item
        pos += 1
    prev = b.flatten("flatten", prev)
    features = width * (input_size // 32) ** 2
    prev = b.linear(
        "classifier", prev, _linear_w(rng, num_classes, features), bias=np.zeros(num_classes, np.float32)
    )
    return infer_shapes(b.output(prev))


def densenet40(seed: int = 0, growth: int = 12, num_classes: int = 10, input_size: int = 32) -> ModelGraph:
    """Three dense blocks of 12 layers each (BN-ReLU-3x3 conv, concatenated),
    1x1-conv transitions with 2x2 average pooling, global pooling classifier."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(3, input_size)
    width = 2 * growth
    prev = b.conv("conv0", "input", _conv_w(rng, width, 3, 3), padding=1)
    for block in range(1, 4):
        for layer in range(1, 13):
            tag = f"b{block}l{layer}"
            bn = b.batchnorm(f"{tag}_bn", prev, **_bn_params(rng, width))
            act = b.relu(f"{tag}_relu", bn)
            conv = b.conv(f"{tag}_conv", act, _conv_w(rng, growth, width, 3), padding=1)
            prev = b.concat(f"{tag}_cat", [prev, conv])
            width += growth
        if block < 3:
            bn = b.batchnorm(f"t{block}_bn", prev, **_bn_params(rng, width))
            act = b.relu(f"t{block}_relu", bn)
            conv = b.conv(f"t{block}_conv", act, _conv_w(rng, width, width, 1))
            prev = b.pool(f"t{block}_pool", conv, "avg", kernel=2, stride=2)
    bn = b.batchnorm("final_bn", prev, **_bn_params(rng, width))
    act = b.relu("final_relu", bn)
    pooled = b.pool("final_pool", act, "global-avg")
    flat = b.flatten("flatten", pooled)
    head = b.linear(
        "classifier", flat, _linear_w(rng, num_classes, width), bias=np.zeros(num_classes, np.float32)
    )
    return infer_shapes(b.output(head))


def resnet56(seed: int = 0, num_classes: int = 10, input_size: int = 32) -> ModelGraph:
    """Bottleneck variant: three stages of six 1x1-3x3-1x1 blocks (planes
    16/32/64, expansion 4), projection shortcut on each stage's first block."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(3, input_size)
    prev = b.conv("conv1", "input", _conv_w(rng, 16, 3, 3), padding=1)
    prev = b.batchnorm("bn1", prev, **_bn_params(rng, 16))
    prev = b.relu("relu1", prev)
    width = 16
    for stage, planes in enumerate((16, 32, 64), start=1):
        out_width = 4 * planes
        for block in range(1, 7):
            tag = f"s{stage}b{block}"
            stride = 2 if (stage > 1 and block == 1) else 1
            x = b.conv(f"{tag}_conv1", prev, _conv_w(rng, planes, width, 1))
            x = b.batchnorm(f"{tag}_bn1", x, **_bn_params(rng, planes))
            x = b.relu(f"{tag}_relu1", x)
            x = b.conv(f"{tag}_conv2", x, _conv_w(rng, planes, planes, 3), stride=stride, padding=1)
            x = b.batchnorm(f"{tag}_bn2", x, **_bn_params(rng, planes))
            x = b.relu(f"{tag}_relu2", x)
            x = b.conv(f"{tag}_conv3", x, _conv_w(rng, out_width, planes, 1))
            x = b.batchnorm(f"{tag}_bn3", x, **_bn_params(rng, out_width))
            if width != out_width or stride != 1:
                sc = b.conv(f"{tag}_proj", prev, _conv_w(rng, out_width, width, 1), stride=stride)
                sc = b.batchnorm(f"{tag}_projbn", sc, **_bn_params(rng, out_width))
            else:
                sc = prev
            added = b.addnode(f"{tag}_add", [x, sc])
            prev = b.relu(f"{tag}_out", added)
            width = out_width
    pooled = b.pool("final_pool", prev, "global-avg")
    flat = b.flatten("flatten", pooled)
    head = b.linear(
        "classifier", flat, _linear_w(rng, num_classes, width), bias=np.zeros(num_classes, np.float32)
    )
    return infer_shapes(b.output(head))


ARCHITECTURES = {"vgg16": vgg16, "densenet40": densenet40, "resnet56": resnet56}
