"""The per-image oracle that row-axis training and the gradient audit are
pinned to: one input on its own, with no row axis anywhere.

An encoder input is one (H, W, C) image: `encode_with_cache` encodes it
alone, `model_forward` and `backward` run the head on its features, and
`encode_backward` takes that image's feature gradient back through its own
cache. A bypass input is one feature row for `model_forward` and
`backward`.
"""
import numpy as np

from qembed.autodiff import backward, bce_loss, reduce_input_gradient
from qembed.encoder import encode_backward, encode_with_cache
from qembed.encoder import named_parameters as encoder_named_parameters
from qembed.model import check_input_shape, model_forward


def image_forward(model, x):
    """(encoder cache or None, `model_forward` cache) of one input alone."""
    x = np.asarray(x, dtype=float)
    if model.bypass:
        return None, model_forward(model, x)
    check_input_shape(x.shape, None)
    feat, encoder_cache = encode_with_cache(x, model.encoder_weights, model.encoder_config)
    return encoder_cache, model_forward(model, feat)


def image_loss(model, x, label):
    cache = image_forward(model, x)[1]
    return bce_loss(cache.p0, cache.p1, label)


def image_step(model, x, label, encoder=True):
    """(loss, gradients) of one input alone, keyed as `named_parameters`
    keys the model (no encoder keys unless `encoder`)."""
    encoder_cache, cache = image_forward(model, x)
    grads = backward(model, cache, label)
    if encoder and encoder_cache is not None:
        g_feat = reduce_input_gradient(grads["reduction.b"], model.reduction)
        g_encoder = encode_backward(g_feat, encoder_cache, model.encoder_weights,
                                    model.encoder_config)
        for name, g in encoder_named_parameters(g_encoder).items():
            grads[f"encoder.{name}"] = g
    return bce_loss(cache.p0, cache.p1, label), grads
