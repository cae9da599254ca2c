"""Seeded model builders for the benchmark's workloads.

``resnet164`` is built here from the public ``GraphBuilder`` with the
benchmark's own initialisation, so the stress model does not depend on the
zoo's private helpers. The zoo models come from ``prunekit.zoo``.
"""

from __future__ import annotations

import numpy as np

from prunekit import GraphBuilder, ModelGraph, infer_shapes, zoo


def _conv(rng: np.random.Generator, n: int, m: int, k: int) -> np.ndarray:
    return (rng.standard_normal((n, m, k, k)) * (2.0 / (k * k * m)) ** 0.5).astype(np.float32)


def _bn(rng: np.random.Generator, c: int) -> dict:
    return {
        "gamma": rng.uniform(0.5, 1.5, c).astype(np.float32),
        "beta": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_mean": (rng.standard_normal(c) * 0.1).astype(np.float32),
        "running_var": rng.uniform(0.5, 1.5, c).astype(np.float32),
    }


def resnet164(seed: int) -> ModelGraph:
    """Bottleneck ResNet-164: three stages of 18 1x1-3x3-1x1 blocks (planes
    16/32/64, expansion 4), projection shortcut on each stage's first block."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(3, 32)
    x = b.conv("conv1", "input", _conv(rng, 16, 3, 3), padding=1)
    prev = b.relu("relu1", b.batchnorm("bn1", x, **_bn(rng, 16)))
    width = 16
    for stage, planes in enumerate((16, 32, 64), start=1):
        out_width = 4 * planes
        for block in range(1, 19):
            tag = f"s{stage}b{block}"
            stride = 2 if stage > 1 and block == 1 else 1
            x = b.conv(f"{tag}_conv1", prev, _conv(rng, planes, width, 1))
            x = b.relu(f"{tag}_relu1", b.batchnorm(f"{tag}_bn1", x, **_bn(rng, planes)))
            x = b.conv(f"{tag}_conv2", x, _conv(rng, planes, planes, 3), stride=stride, padding=1)
            x = b.relu(f"{tag}_relu2", b.batchnorm(f"{tag}_bn2", x, **_bn(rng, planes)))
            x = b.conv(f"{tag}_conv3", x, _conv(rng, out_width, planes, 1))
            x = b.batchnorm(f"{tag}_bn3", x, **_bn(rng, out_width))
            if width != out_width or stride != 1:
                sc = b.conv(f"{tag}_proj", prev, _conv(rng, out_width, width, 1), stride=stride)
                sc = b.batchnorm(f"{tag}_projbn", sc, **_bn(rng, out_width))
            else:
                sc = prev
            prev = b.relu(f"{tag}_out", b.addnode(f"{tag}_add", [x, sc]))
            width = out_width
    flat = b.flatten("flatten", b.pool("final_pool", prev, "global-avg"))
    head_w = (rng.standard_normal((10, width)) * (1.0 / width) ** 0.5).astype(np.float32)
    head = b.linear("classifier", flat, head_w, bias=np.zeros(10, np.float32))
    return infer_shapes(b.output(head))


BUILDERS = {"vgg16": zoo.vgg16, "densenet40": zoo.densenet40, "resnet164": resnet164}
