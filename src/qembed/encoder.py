"""Toy-scale vision-transformer encoder on plain numpy.

Pipeline: patch tokenization -> positional add -> L post-norm encoder
layers (self-attention + ReLU feed-forward, each with a skip connection
followed by layer normalization) -> linear head on token 0.

Array conventions: images are (H, W, C) float64 arrays in row-major
(row, column, channel) order; token sequences are (T, D) float64 matrices.
Multi-head attention views the (T, D) queries, keys and values as
(heads, T, D // heads) arrays in which head h is column block h, so every
head runs in one batched matmul; attention weights are (heads, T, T).
The forward pass also takes a block of images with leading row axes,
(..., H, W, C) -> tokens (..., T, D) -> features (..., out_dim): every
step indexes from the last axis, so a row of a block gets the same bits
as the image encoded alone. The backward pass takes one image's cache or
a block's, and gives every weight gradient the block's leading row axes.
The forward pass also takes one weight array with a leading copy axis
(`with_array`), the rest plain: K C-contiguous copies, (K, 1, 1, n) for a
vector added along the token axis (ffn biases, layer-norm gains and
biases) and (K, 1, *shape) for any other, score (S, H, W, C) images as
(K, S, out_dim) features, the ops upstream of that array once for the S
images, and each (k, s) slice the bits of image s encoded alone with copy
k. A copy axis that is not outermost sends numpy's matmul to a loop that
sums in another order.
Forward passes are pure given the weights. `encode_with_cache` records the
intermediates needed by `encode_backward`, which returns analytic gradients
for every weight as an `EncoderWeights` of gradient arrays, so that
`named_parameters` names them as it names the weights
(`patch_projection`, `positional`, `class_token`, `layer.{i}.attn.wq`, ...,
`head.w`, `head.b`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

LAYER_NORM_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    patch_size: int
    embed_dim: int
    layers: int
    heads: int
    ffn_hidden: int
    out_dim: int = 16
    use_class_token: bool = True

    def __post_init__(self) -> None:
        for name in ("patch_size", "embed_dim", "layers", "heads", "ffn_hidden", "out_dim"):
            value = getattr(self, name)
            if name == "layers":
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
            elif value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}")


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray


@dataclass
class EncoderWeights:
    patch_projection: np.ndarray          # (N*N*C, D)
    positional: np.ndarray                # (T, D), T includes the class token slot
    class_token: np.ndarray | None        # (D,) when enabled
    layers: list[LayerWeights]
    head_w: np.ndarray                    # (D, out_dim)
    head_b: np.ndarray                    # (out_dim,)


# (name suffix, LayerWeights field, shape as embed_dim "d" and ffn_hidden "h")
_LAYER_FIELDS = (
    ("attn.wq", "wq", "dd"),
    ("attn.wk", "wk", "dd"),
    ("attn.wv", "wv", "dd"),
    ("attn.wo", "wo", "dd"),
    ("ffn.w1", "w1", "dh"),
    ("ffn.b1", "b1", "h"),
    ("ffn.w2", "w2", "hd"),
    ("ffn.b2", "b2", "d"),
    ("ln1.gain", "ln1_gain", "d"),
    ("ln1.bias", "ln1_bias", "d"),
    ("ln2.gain", "ln2_gain", "d"),
    ("ln2.bias", "ln2_bias", "d"),
)


def named_parameters(weights: EncoderWeights) -> dict[str, np.ndarray]:
    """Live views of every trainable array, keyed by canonical name."""
    params: dict[str, np.ndarray] = {"patch_projection": weights.patch_projection}
    params["positional"] = weights.positional
    if weights.class_token is not None:
        params["class_token"] = weights.class_token
    for i, lw in enumerate(weights.layers):
        for suffix, attr, _ in _LAYER_FIELDS:
            params[f"layer.{i}.{suffix}"] = getattr(lw, attr)
    params["head.w"] = weights.head_w
    params["head.b"] = weights.head_b
    return params


def with_array(weights: EncoderWeights, name: str, array: np.ndarray) -> EncoderWeights:
    """`weights` with the array `named_parameters` calls `name` replaced by
    `array`, sharing every other array."""
    if not name.startswith("layer."):
        return replace(weights, **{name.replace(".", "_"): array})
    _, i, suffix = name.split(".", 2)
    layers = list(weights.layers)
    layers[int(i)] = replace(layers[int(i)], **{dict(f[:2] for f in _LAYER_FIELDS)[suffix]: array})
    return replace(weights, layers=layers)


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def check_image_shape(image_shape: tuple[int, int, int], patch_size: int) -> None:
    """The ranges of an (H, W, C) image shape, checked by `parameter_shapes`
    (so by `init_encoder_weights`), `extract_patches` and `config.load_config`:
    each at least 1, H and W divisible by the patch size."""
    for name, value in zip(("image_h", "image_w", "channels"), image_shape):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        if name != "channels" and value % patch_size:
            raise ValueError(f"{name} {value} must be divisible by patch_size {patch_size}")


def parameter_shapes(config: EncoderConfig, image_shape: tuple[int, int, int]) -> dict:
    """The shape of every array `named_parameters` names, in its order, for
    images of the given (H, W, C) shape; nothing is allocated."""
    check_image_shape(image_shape, config.patch_size)
    img_h, img_w, channels = image_shape
    n, d = config.patch_size, config.embed_dim
    tokens = (img_h // n) * (img_w // n) + config.use_class_token
    shapes = {"patch_projection": (n * n * channels, d), "positional": (tokens, d)}
    if config.use_class_token:
        shapes["class_token"] = (d,)
    size = {"d": d, "h": config.ffn_hidden}
    for i in range(config.layers):
        for suffix, _, dims in _LAYER_FIELDS:
            shapes[f"layer.{i}.{suffix}"] = tuple(size[c] for c in dims)
    shapes["head.w"] = (d, config.out_dim)
    shapes["head.b"] = (config.out_dim,)
    return shapes


def init_encoder_weights(
    config: EncoderConfig,
    image_shape: tuple[int, int, int],
    seed_or_rng,
) -> EncoderWeights:
    """Fresh weights for images of the given (H, W, C) shape, each at its
    `parameter_shapes` shape, the layers' drawn first.

    Projection matrices use uniform(+-sqrt(6/(fan_in+fan_out))), biases are
    zero, layer-norm gain/bias are 1/0, positional rows and the class token
    are normal(0, 0.02).
    """
    rng = np.random.default_rng(seed_or_rng)
    shapes = parameter_shapes(config, image_shape)

    def draw(name: str) -> np.ndarray:
        shape = shapes[name]
        if name in ("positional", "class_token"):
            return rng.normal(0.0, 0.02, size=shape)
        if len(shape) == 2:
            return _glorot(rng, shape)
        return np.ones(shape) if name.endswith("gain") else np.zeros(shape)

    layers = [
        LayerWeights(**{field: draw(f"layer.{i}.{suffix}") for suffix, field, _ in _LAYER_FIELDS})
        for i in range(config.layers)
    ]
    return EncoderWeights(
        patch_projection=draw("patch_projection"),
        positional=draw("positional"),
        class_token=draw("class_token") if config.use_class_token else None,
        layers=layers,
        head_w=draw("head.w"),
        head_b=draw("head.b"),
    )


def extract_patches(image: np.ndarray, patch_size: int) -> np.ndarray:
    """Non-overlapping patches in row-major grid order, each flattened row-major.

    (..., H, W, C) images give (..., patches, N*N*C) arrays.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim < 3:
        raise ValueError(f"image must be (H, W, C), got shape {image.shape}")
    check_image_shape(image.shape[-3:], patch_size)
    *lead, img_h, img_w, channels = image.shape
    n = patch_size
    grid = image.reshape(*lead, img_h // n, n, img_w // n, n, channels)
    return grid.swapaxes(-4, -3).reshape(*lead, -1, n * n * channels)


def _embed_patches(image: np.ndarray, weights: EncoderWeights, config: EncoderConfig):
    """(flattened patches, token matrix with the class token first if enabled)."""
    patches = extract_patches(image, config.patch_size)
    if patches.shape[-1] != weights.patch_projection.shape[-2]:
        raise ValueError(
            f"patch length {patches.shape[-1]} does not match projection rows "
            f"{weights.patch_projection.shape[-2]}"
        )
    projected = patches @ weights.patch_projection
    if not config.use_class_token:
        return patches, projected
    # the class token (and any copy axis of its own) is broadcast over the row
    # axes by assignment (np.broadcast_to costs more than the whole copy here)
    *lead, t, d = projected.shape
    if weights.class_token.ndim > 1:
        lead = np.broadcast_shapes(tuple(lead), weights.class_token.shape[:-1])
    tokens = np.empty((*lead, t + 1, d))
    tokens[..., 0, :] = weights.class_token
    tokens[..., 1:, :] = projected
    return patches, tokens


def add_positional(tokens: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    if tokens.shape[-2:] != weights.positional.shape[-2:]:
        raise ValueError(
            f"token matrix {tokens.shape[-2:]} does not match positional matrix "
            f"{weights.positional.shape[-2:]}"
        )
    return tokens + weights.positional


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(m: np.ndarray, heads: int) -> np.ndarray:
    """(..., T, D) -> (..., heads, T, D // heads) view; head h is column block h."""
    return m.reshape(m.shape[:-1] + (heads, -1)).swapaxes(-3, -2)


def _merge_heads(m: np.ndarray) -> np.ndarray:
    """(..., heads, T, dk) -> (..., T, heads * dk), the inverse of _split_heads."""
    return m.swapaxes(-3, -2).reshape(m.shape[:-3] + (m.shape[-2], -1))


def encode(image: np.ndarray, weights: EncoderWeights, config: EncoderConfig) -> np.ndarray:
    """Image (H, W, C) -> feature vector (out_dim): full stack, head applied
    to token 0. A block (..., H, W, C) gives (..., out_dim), row by row the
    bits of encoding each image alone."""
    return encode_with_cache(image, weights, config)[0]


# ---------------------------------------------------------------------------
# Forward with cache + analytic reverse mode
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    x: np.ndarray                 # layer input (T, D)
    q: np.ndarray                 # (heads, T, dk), head h = column block h
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray              # (heads, T, T) softmax weights
    concat: np.ndarray            # heads concatenated, pre-output-projection
    xhat1: np.ndarray             # normalized (x + attention) pre gain/bias
    istd1: np.ndarray             # (T, 1) inverse std of the first norm
    u: np.ndarray                 # output of the first norm
    hpre: np.ndarray              # u @ w1 + b1, pre-ReLU
    relu: np.ndarray
    xhat2: np.ndarray
    istd2: np.ndarray


@dataclass
class EncodeCache:
    patches: np.ndarray
    x0: np.ndarray                # tokens + positional
    layer_caches: list[_LayerCache] = field(default_factory=list)
    top: np.ndarray | None = None # final token matrix


def _layer_norm_fwd(s: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    # sum / d and the squared centered values: the bits of mean() and var()
    d = s.shape[-1]
    x = s - s.sum(axis=-1, keepdims=True) / d
    istd = 1.0 / np.sqrt((x * x).sum(axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    xhat = x * istd
    return gain * xhat + bias, xhat, istd


def _layer_forward(x: np.ndarray, lw: LayerWeights, heads: int) -> tuple[np.ndarray, _LayerCache]:
    """One post-norm encoder layer and the intermediates its backward needs."""
    q, k, v = (_split_heads(x @ w, heads) for w in (lw.wq, lw.wk, lw.wv))
    attn = softmax_rows(q @ k.swapaxes(-1, -2) / math.sqrt(q.shape[-1]))
    concat = _merge_heads(attn @ v)
    u, xhat1, istd1 = _layer_norm_fwd(x + concat @ lw.wo, lw.ln1_gain, lw.ln1_bias)
    hpre = u @ lw.w1 + lw.b1
    relu = np.maximum(0.0, hpre)
    y, xhat2, istd2 = _layer_norm_fwd(u + relu @ lw.w2 + lw.b2, lw.ln2_gain, lw.ln2_bias)
    return y, _LayerCache(
        x=x, q=q, k=k, v=v, attn=attn, concat=concat,
        xhat1=xhat1, istd1=istd1, u=u, hpre=hpre, relu=relu,
        xhat2=xhat2, istd2=istd2,
    )


def _layer_norm_bwd(g_out: np.ndarray, xhat: np.ndarray, istd: np.ndarray, gain: np.ndarray):
    g_gain = (g_out * xhat).sum(axis=-2)
    g_bias = g_out.sum(axis=-2)
    g_xhat = g_out * gain
    d = g_xhat.shape[-1]
    g_x = istd * (
        g_xhat
        - g_xhat.sum(axis=-1, keepdims=True) / d
        - xhat * (g_xhat * xhat).sum(axis=-1, keepdims=True) / d
    )
    return g_x, g_gain, g_bias


def encode_with_cache(
    image: np.ndarray, weights: EncoderWeights, config: EncoderConfig
) -> tuple[np.ndarray, EncodeCache]:
    """Forward pass recording every intermediate needed for encode_backward."""
    patches, tokens = _embed_patches(image, weights, config)
    x = add_positional(tokens, weights)
    cache = EncodeCache(patches=patches, x0=x)
    for lw in weights.layers:
        x, layer_cache = _layer_forward(x, lw, config.heads)
        cache.layer_caches.append(layer_cache)
    cache.top = x
    # a (1, D) product per row: a (B, D) @ (D, out) matmul sums in another order
    return (x[..., :1, :] @ weights.head_w)[..., 0, :] + weights.head_b, cache


def _attention_backward(g_attn_out: np.ndarray, lc: _LayerCache, lw: LayerWeights):
    heads, dk = lc.q.shape[-3], lc.q.shape[-1]
    g_concat = _split_heads(g_attn_out @ lw.wo.T, heads)
    g_wo = lc.concat.swapaxes(-1, -2) @ g_attn_out
    g_attn = g_concat @ lc.v.swapaxes(-1, -2)
    g_v = _merge_heads(lc.attn.swapaxes(-1, -2) @ g_concat)
    # softmax rows: g_s = attn * (g_attn - sum(g_attn * attn, row))
    g_scores = lc.attn * (g_attn - (g_attn * lc.attn).sum(axis=-1, keepdims=True))
    scale = 1.0 / math.sqrt(dk)
    g_q = _merge_heads(g_scores @ lc.k * scale)
    g_k = _merge_heads(g_scores.swapaxes(-1, -2) @ lc.q * scale)
    g_x = g_q @ lw.wq.T + g_k @ lw.wk.T + g_v @ lw.wv.T
    x_t = lc.x.swapaxes(-1, -2)
    return g_x, x_t @ g_q, x_t @ g_k, x_t @ g_v, g_wo


def _layer_backward(
    g_y: np.ndarray, lc: _LayerCache, lw: LayerWeights
) -> tuple[np.ndarray, LayerWeights]:
    """Gradient at the layer input and the layer's weight gradients."""
    g_s2, g_ln2_gain, g_ln2_bias = _layer_norm_bwd(g_y, lc.xhat2, lc.istd2, lw.ln2_gain)
    g_f = g_s2
    g_w2 = lc.relu.swapaxes(-1, -2) @ g_f
    g_b2 = g_f.sum(axis=-2)
    g_h = (g_f @ lw.w2.T) * (lc.hpre > 0)
    g_w1 = lc.u.swapaxes(-1, -2) @ g_h
    g_b1 = g_h.sum(axis=-2)
    g_u = g_s2 + g_h @ lw.w1.T
    g_s1, g_ln1_gain, g_ln1_bias = _layer_norm_bwd(g_u, lc.xhat1, lc.istd1, lw.ln1_gain)
    g_x_attn, g_wq, g_wk, g_wv, g_wo = _attention_backward(g_s1, lc, lw)
    return g_s1 + g_x_attn, LayerWeights(
        wq=g_wq, wk=g_wk, wv=g_wv, wo=g_wo, w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2,
        ln1_gain=g_ln1_gain, ln1_bias=g_ln1_bias, ln2_gain=g_ln2_gain, ln2_bias=g_ln2_bias,
    )


def encode_backward(
    g_feature: np.ndarray,
    cache: EncodeCache,
    weights: EncoderWeights,
    config: EncoderConfig,
) -> EncoderWeights:
    """Gradients of a scalar loss for every encoder weight, in the shape of
    the weights.

    `g_feature` is the upstream gradient with respect to encode()'s output.
    A block cache takes (..., out_dim) rows of `g_feature` and gives every
    gradient the same leading row axes, row by row the bits of that image's
    backward pass alone.
    """
    if cache.top is None:
        raise RuntimeError("cache is incomplete; run encode_with_cache first")
    g_feature = np.asarray(g_feature, dtype=float)
    g_x = np.zeros_like(cache.top)
    g_x[..., 0, :] = (weights.head_w @ g_feature[..., :, None])[..., 0]
    layer_grads: list[LayerWeights] = []
    for lc, lw in zip(reversed(cache.layer_caches), reversed(weights.layers)):
        g_x, g_layer = _layer_backward(g_x, lc, lw)
        layer_grads.insert(0, g_layer)
    g_tokens = g_x[..., 1:, :] if config.use_class_token else g_x
    return EncoderWeights(
        patch_projection=cache.patches.swapaxes(-1, -2) @ g_tokens,
        positional=g_x.copy(),
        class_token=g_x[..., 0, :].copy() if config.use_class_token else None,
        layers=layer_grads,
        head_w=cache.top[..., 0, :, None] * g_feature[..., None, :],
        head_b=g_feature.copy(),
    )
