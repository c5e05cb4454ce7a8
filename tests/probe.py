"""A probe encoder that runs given layers on a given token matrix.

`encode_with_cache` is the encoder's one forward, and it takes images. A
(T, D) token matrix passed as one (1, T, D) image, with patch size 1, an
identity patch projection, zero positional rows and no class token,
enters the layers unchanged, so the tests of attention, the feed-forward
sublayer and the layer stack read the intermediates the model itself
computes from the returned cache.
"""
import numpy as np

from qembed.encoder import EncoderConfig, EncoderWeights, encode_with_cache


def probe_cache(x, layers, heads=1):
    """`encode_with_cache`'s cache of the (T, D) tokens `x` through
    `layers`: `layer_caches[i]` holds layer i's intermediates (`attn`,
    `concat`, `u`, `hpre`, `relu`, ...) and `top` the last layer's output."""
    x = np.asarray(x, dtype=float)
    t, d = x.shape
    config = EncoderConfig(patch_size=1, embed_dim=d, layers=len(layers), heads=heads,
                           ffn_hidden=layers[0].w1.shape[1], out_dim=1, use_class_token=False)
    weights = EncoderWeights(patch_projection=np.eye(d), positional=np.zeros((t, d)),
                             class_token=None, layers=list(layers),
                             head_w=np.zeros((d, 1)), head_b=np.zeros(1))
    cache = encode_with_cache(x[None], weights, config)[1]
    assert np.array_equal(cache.x0, x), "the probe changed the tokens before the layers"
    return cache
