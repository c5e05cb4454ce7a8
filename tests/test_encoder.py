"""Encoder forward ops against independent hand-rolled oracles.

Attention, the feed-forward sublayer and whole layers are read from the
intermediates of `encode_with_cache`, the model's one forward, through the
probe encoder of `tests/probe.py`.
"""
import itertools
import math

import numpy as np
import pytest

from qembed.encoder import (
    EncoderConfig,
    EncoderWeights,
    LayerWeights,
    add_positional,
    encode,
    encode_backward,
    encode_with_cache,
    extract_patches,
    init_encoder_weights,
    named_parameters,
    softmax_rows,
    with_array,
)

from probe import probe_cache


def make_layer(rng, d, hidden):
    return LayerWeights(
        wq=rng.normal(size=(d, d)),
        wk=rng.normal(size=(d, d)),
        wv=rng.normal(size=(d, d)),
        wo=rng.normal(size=(d, d)),
        w1=rng.normal(size=(d, hidden)),
        b1=rng.normal(size=hidden),
        w2=rng.normal(size=(hidden, d)),
        b2=rng.normal(size=d),
        ln1_gain=np.ones(d),
        ln1_bias=np.zeros(d),
        ln2_gain=np.ones(d),
        ln2_bias=np.zeros(d),
    )


def zero_layer(d, hidden):
    return LayerWeights(
        wq=np.zeros((d, d)),
        wk=np.zeros((d, d)),
        wv=np.zeros((d, d)),
        wo=np.zeros((d, d)),
        w1=np.zeros((d, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, d)),
        b2=np.zeros(d),
        ln1_gain=np.ones(d),
        ln1_bias=np.zeros(d),
        ln2_gain=np.ones(d),
        ln2_bias=np.zeros(d),
    )


def layernorm_ref(x, gain, bias, eps=1e-5):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        out[i] = gain * (row - mu) / math.sqrt(var + eps) + bias
    return out


def attention_ref(x, lw):
    # single-head reference built from loops, no shared code with the package
    q = x @ lw.wq
    k = x @ lw.wk
    v = x @ lw.wv
    t, d = x.shape
    out = np.zeros_like(x)
    for i in range(t):
        logits = np.array([np.dot(q[i], k[j]) / math.sqrt(d) for j in range(t)])
        weights = np.exp(logits)
        weights /= weights.sum()
        for j in range(t):
            out[i] += weights[j] * v[j]
    return out @ lw.wo


def ffn_ref(x, lw):
    hidden = x @ lw.w1 + lw.b1
    hidden[hidden < 0] = 0.0
    return hidden @ lw.w2 + lw.b2


# ---------------------------------------------------------------------------
# Tokenization / positional
# ---------------------------------------------------------------------------

def test_patch_grid_square_image():
    image = np.arange(16, dtype=float).reshape(4, 4, 1)
    patches = extract_patches(image, 2)
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], [0, 1, 4, 5])  # rows 0-1, cols 0-1, row-major
    assert np.array_equal(patches[1], [2, 3, 6, 7])
    assert np.array_equal(patches[3], [10, 11, 14, 15])


def test_patch_grid_rectangular_enumeration_oracle():
    rng = np.random.default_rng(0)
    image = rng.normal(size=(6, 4, 2))
    patches = extract_patches(image, 2)
    assert patches.shape == (6, 8)
    k = 0
    for pr in range(3):
        for pc in range(2):
            block = image[2 * pr : 2 * pr + 2, 2 * pc : 2 * pc + 2, :]
            assert np.array_equal(patches[k], block.reshape(-1))
            k += 1


def test_non_divisible_image_rejected():
    with pytest.raises(ValueError):
        extract_patches(np.zeros((5, 4, 1)), 2)


def test_identity_projection_keeps_patch_values():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4,
                        out_dim=4, use_class_token=False)
    rng = np.random.default_rng(1)
    weights = init_encoder_weights(cfg, (4, 4, 1), rng)
    weights.patch_projection = np.eye(4)
    weights.positional = np.zeros((4, 4))
    image = rng.normal(size=(4, 4, 1))
    tokens = encode_with_cache(image, weights, cfg)[1].x0
    assert np.allclose(tokens, extract_patches(image, 2), atol=1e-15)


def test_class_token_prepended():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4)
    weights = init_encoder_weights(cfg, (4, 4, 1), 2)
    weights.positional = np.zeros((5, 4))
    tokens = encode_with_cache(np.zeros((4, 4, 1)), weights, cfg)[1].x0
    assert tokens.shape == (5, 4)
    assert np.array_equal(tokens[0], weights.class_token)


def test_add_positional_cases():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4,
                        use_class_token=False)
    weights = init_encoder_weights(cfg, (4, 4, 1), 3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 4))

    weights.positional = np.zeros((4, 4))
    assert np.array_equal(add_positional(x, weights), x)

    weights.positional = rng.normal(size=(4, 4))
    assert np.array_equal(add_positional(np.zeros((4, 4)), weights), weights.positional)

    summed = add_positional(x, weights)
    for i in range(4):
        for j in range(4):
            assert summed[i, j] == x[i, j] + weights.positional[i, j]


def test_add_positional_shape_mismatch():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4)
    weights = init_encoder_weights(cfg, (4, 4, 1), 5)
    with pytest.raises(ValueError):
        add_positional(np.zeros((3, 4)), weights)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def test_single_token_attention_is_projected_value():
    rng = np.random.default_rng(6)
    lw = make_layer(rng, 4, 8)
    x = rng.normal(size=(1, 4))
    lc = probe_cache(x, [lw]).layer_caches[0]
    assert np.allclose(lc.concat, x @ lw.wv, atol=1e-12)
    expected = layernorm_ref(x + (x @ lw.wv) @ lw.wo, lw.ln1_gain, lw.ln1_bias)
    assert np.allclose(lc.u, expected, atol=1e-12)


def test_identical_tokens_give_uniform_weights():
    rng = np.random.default_rng(7)
    lw = make_layer(rng, 4, 8)
    row = rng.normal(size=4)
    x = np.vstack([row, row])
    lc = probe_cache(x, [lw]).layer_caches[0]
    assert np.allclose(lc.attn[0], 0.5, atol=1e-12)
    expected = layernorm_ref(x + (x @ lw.wv) @ lw.wo, lw.ln1_gain, lw.ln1_bias)
    assert np.allclose(lc.u, expected, atol=1e-12)


def test_identical_tokens_uniform_under_key_rescaling():
    # identical keys wash out any uniform logit temperature change
    rng = np.random.default_rng(8)
    lw = make_layer(rng, 4, 8)
    row = rng.normal(size=4)
    x = np.vstack([row, row, row])
    for factor in (1.0, 10.0, 100.0):
        lw.wk *= factor
        lc = probe_cache(x, [lw]).layer_caches[0]
        assert np.allclose(lc.attn[0], 1.0 / 3.0, atol=1e-12)
        expected = layernorm_ref(x + (x @ lw.wv) @ lw.wo, lw.ln1_gain, lw.ln1_bias)
        assert np.allclose(lc.u, expected, atol=1e-12)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(9)
    lw = make_layer(rng, 6, 8)
    x = rng.normal(size=(3, 6))
    lc = probe_cache(x, [lw]).layer_caches[0]
    expected = layernorm_ref(x + attention_ref(x, lw), lw.ln1_gain, lw.ln1_bias)
    assert np.allclose(lc.u, expected, atol=1e-10)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_multi_head_splits_columns(heads):
    """h heads over D=8 equal h independent single-head d_k=8/h attentions,
    head h on column block h."""
    rng = np.random.default_rng(10)
    lw = make_layer(rng, 8, 8)
    x = rng.normal(size=(3, 8))
    lc = probe_cache(x, [lw], heads).layer_caches[0]
    assert lc.attn.shape == (heads, 3, 3)
    dk = 8 // heads
    q, k, v = x @ lw.wq, x @ lw.wk, x @ lw.wv
    concat = np.zeros_like(x)
    for hh in range(heads):
        sl = slice(hh * dk, (hh + 1) * dk)
        logits = q[:, sl] @ k[:, sl].T / math.sqrt(dk)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        assert np.allclose(lc.attn[hh], w, atol=1e-12)
        concat[:, sl] = w @ v[:, sl]
    assert np.allclose(lc.concat, concat, atol=1e-12)
    expected = layernorm_ref(x + concat @ lw.wo, lw.ln1_gain, lw.ln1_bias)
    assert np.allclose(lc.u, expected, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rows = softmax_rows(rng.normal(scale=5.0, size=(4, 4)))
        assert np.all(rows > 0) and np.all(rows < 1)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# FFN and full layer
# ---------------------------------------------------------------------------

def test_ffn_zero_first_layer_returns_second_bias():
    rng = np.random.default_rng(12)
    lw = make_layer(rng, 4, 8)
    lw.w1 = np.zeros((4, 8))
    lw.b1 = np.zeros(8)
    lc = probe_cache(rng.normal(size=(1, 4)), [lw]).layer_caches[0]
    assert np.allclose(lc.relu @ lw.w2 + lw.b2, lw.b2, atol=1e-15)


def test_ffn_relu_kills_negative_preactivations():
    rng = np.random.default_rng(13)
    lw = make_layer(rng, 4, 8)
    lw.b1 = np.full(8, -1e6)  # drives every pre-activation negative
    lc = probe_cache(rng.normal(size=(1, 4)), [lw]).layer_caches[0]
    assert np.allclose(lc.relu @ lw.w2 + lw.b2, lw.b2, atol=1e-15)


def test_ffn_matches_loop_oracle():
    rng = np.random.default_rng(14)
    lw = make_layer(rng, 5, 7)
    x = rng.normal(size=(3, 5))
    cache = probe_cache(x, [lw])
    u = cache.layer_caches[0].u
    assert np.allclose(cache.layer_caches[0].relu @ lw.w2 + lw.b2, ffn_ref(u, lw), atol=1e-12)
    expected = layernorm_ref(u + ffn_ref(u, lw), lw.ln2_gain, lw.ln2_bias)
    assert np.allclose(cache.top, expected, atol=1e-12)


def test_layer_output_rows_are_normalized():
    rng = np.random.default_rng(15)
    lw = make_layer(rng, 8, 16)  # gain 1, bias 0 from make_layer
    x = rng.normal(size=(5, 8))
    out = probe_cache(x, [lw], heads=2).top
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)  # eps-shifted variance


def test_zero_sublayers_double_layernorm():
    rng = np.random.default_rng(16)
    lw = zero_layer(4, 8)
    x = rng.normal(size=(3, 4))
    expected = layernorm_ref(layernorm_ref(x, np.ones(4), np.zeros(4)), np.ones(4), np.zeros(4))
    assert np.allclose(probe_cache(x, [lw]).top, expected, atol=1e-12)


def test_layer_matches_composed_oracle():
    rng = np.random.default_rng(17)
    lw = make_layer(rng, 6, 12)
    lw.ln1_gain = rng.normal(size=6)
    lw.ln1_bias = rng.normal(size=6)
    lw.ln2_gain = rng.normal(size=6)
    lw.ln2_bias = rng.normal(size=6)
    x = rng.normal(size=(4, 6))
    u = layernorm_ref(x + attention_ref(x, lw), lw.ln1_gain, lw.ln1_bias)
    expected = layernorm_ref(u + ffn_ref(u, lw), lw.ln2_gain, lw.ln2_bias)
    assert np.allclose(probe_cache(x, [lw]).top, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_empty_stack_identity_head():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4,
                        out_dim=4, use_class_token=False)
    rng = np.random.default_rng(18)
    weights = init_encoder_weights(cfg, (4, 4, 1), rng)
    weights.head_w = np.eye(4)
    weights.head_b = np.zeros(4)
    image = rng.normal(size=(4, 4, 1))
    expected = (extract_patches(image, 2) @ weights.patch_projection + weights.positional)[0]
    assert np.allclose(encode(image, weights, cfg), expected, atol=1e-15)


def test_encode_output_length():
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=1, heads=2, ffn_hidden=8, out_dim=3)
    weights = init_encoder_weights(cfg, (4, 4, 1), 19)
    assert encode(np.ones((4, 4, 1)), weights, cfg).shape == (3,)


def test_encode_pinned_snapshot():
    """Regression anchor: deterministic output pinned from a reference run."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16, out_dim=4)
    weights = init_encoder_weights(cfg, (4, 4, 1), 123)
    feat = encode(np.ones((4, 4, 1)), weights, cfg)
    pinned = [0.8865225455797453, 0.37488965109568967, 1.001633393412087, -0.9904596877979315]
    assert np.allclose(feat, pinned, atol=1e-12)


def test_encode_is_deterministic():
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16)
    weights = init_encoder_weights(cfg, (4, 4, 1), 20)
    rng = np.random.default_rng(21)
    image = rng.normal(size=(4, 4, 1))
    assert np.array_equal(encode(image, weights, cfg), encode(image, weights, cfg))


def test_encode_finite_for_random_inputs():
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=3, heads=4, ffn_hidden=32)
    rng = np.random.default_rng(22)
    weights = init_encoder_weights(cfg, (8, 8, 3), rng)
    for _ in range(10):
        feat = encode(rng.normal(scale=3.0, size=(8, 8, 3)), weights, cfg)
        assert np.all(np.isfinite(feat))


def test_encode_with_cache_matches_encode():
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16)
    weights = init_encoder_weights(cfg, (4, 4, 1), 23)
    rng = np.random.default_rng(24)
    image = rng.normal(size=(4, 4, 1))
    feat, cache = encode_with_cache(image, weights, cfg)
    assert np.array_equal(feat, encode(image, weights, cfg))
    assert len(cache.layer_caches) == 2


def test_permutation_equivariance_without_positions():
    """Zero positions, no class token: permuting tokens permutes outputs."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16,
                        use_class_token=False)
    rng = np.random.default_rng(25)
    weights = init_encoder_weights(cfg, (4, 4, 1), rng)
    for _ in range(10):
        x = rng.normal(size=(4, 8))
        perm = rng.permutation(4)
        out = probe_cache(x, weights.layers, cfg.heads).top
        out_perm = probe_cache(x[perm], weights.layers, cfg.heads).top
        assert np.allclose(out_perm, out[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# Leading row axis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("use_class_token", [True, False], ids=["cls", "no-cls"])
def test_row_axis_encode_matches_per_image(heads, use_class_token):
    """A block of images encodes to exactly the bits of a per-image loop.

    embed_dim 6 as well as 8, so that a regrouped `/ d` in the layer norm
    cannot hide behind a power of two.
    """
    shapes = [(4, 4, 1), (4, 6, 2), (6, 4, 3)]
    for shape, layers, dim in itertools.product(shapes, range(4), (6, 8)):
        if dim % heads:
            continue
        cfg = EncoderConfig(patch_size=2, embed_dim=dim, layers=layers, heads=heads,
                            ffn_hidden=5, out_dim=3, use_class_token=use_class_token)
        rng = np.random.default_rng(layers * 10 + dim)
        weights = init_encoder_weights(cfg, shape, rng)
        images = rng.normal(scale=2.0, size=(7, *shape))
        expected = np.array([encode_with_cache(im, weights, cfg)[0] for im in images])
        for b in (1, 7):
            block = encode(images[:b], weights, cfg)
            assert block.shape == (b, 3)
            assert np.array_equal(block, expected[:b]), (shape, layers, dim, b)
        grid = encode(images[:6].reshape(2, 3, *shape), weights, cfg)
        assert np.array_equal(grid.reshape(6, 3), expected[:6])


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("use_class_token", [True, False], ids=["cls", "no-cls"])
def test_row_axis_backward_matches_per_image(heads, use_class_token):
    """A block cache and (B, out_dim) upstream rows give every weight
    gradient a leading row axis, row r the bits of image r's backward alone."""
    shapes = [(4, 4, 1), (4, 6, 2), (6, 4, 3)]
    for shape, layers in itertools.product(shapes, range(4)):
        cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=layers, heads=heads,
                            ffn_hidden=5, out_dim=3, use_class_token=use_class_token)
        rng = np.random.default_rng(layers * 10 + heads)
        weights = init_encoder_weights(cfg, shape, rng)
        images = rng.normal(scale=2.0, size=(16, *shape))
        g_feat = rng.normal(size=(16, 3))
        per_image = [
            named_parameters(encode_backward(g, encode_with_cache(im, weights, cfg)[1],
                                             weights, cfg))
            for im, g in zip(images, g_feat)
        ]
        for b in (1, 7, 16):
            cache = encode_with_cache(images[:b], weights, cfg)[1]
            block = named_parameters(encode_backward(g_feat[:b], cache, weights, cfg))
            assert list(block) == list(per_image[0])
            for name, rows in block.items():
                assert rows.shape == (b, *per_image[0][name].shape), name
                for r in range(b):
                    assert np.array_equal(rows[r], per_image[r][name]), (shape, layers, b, name, r)


def test_row_axis_patches_and_tokens_follow_each_image():
    cfg = EncoderConfig(patch_size=2, embed_dim=4, layers=0, heads=1, ffn_hidden=4)
    rng = np.random.default_rng(26)
    weights = init_encoder_weights(cfg, (4, 6, 2), rng)
    images = rng.normal(size=(3, 4, 6, 2))
    patches = extract_patches(images, 2)
    cache = encode_with_cache(images, weights, cfg)[1]
    assert patches.shape == (3, 6, 8) and cache.x0.shape == (3, 7, 4)
    assert np.array_equal(cache.patches, patches)
    for i, image in enumerate(images):
        assert np.array_equal(patches[i], extract_patches(image, 2))
        assert np.array_equal(cache.x0[i], encode_with_cache(image, weights, cfg)[1].x0)
        assert np.array_equal(add_positional(cache.x0, weights)[i],
                              add_positional(cache.x0[i], weights))
    with pytest.raises(ValueError, match="image must be"):
        extract_patches(np.zeros((16, 1)), 2)


# ---------------------------------------------------------------------------
# A copy axis on one weight array
# ---------------------------------------------------------------------------

def _copies_of(weights, name, k, rng):
    """`weights` in which only array `name` carries k C-contiguous copies on a
    leading copy axis, (k, 1, *shape) or (k, 1, 1, n) for a layer vector,
    each copy nudged by its own noise; and the k copies as plain weights."""
    live = named_parameters(weights)[name]
    lead = (k, 1, 1) if name.startswith("layer.") and live.ndim == 1 else (k, 1)
    copies = (live + rng.normal(scale=0.05, size=(k, *live.shape))).reshape(lead + live.shape)
    plain = [with_array(weights, name, c.reshape(live.shape)) for c in copies]
    return with_array(weights, name, copies), plain


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("use_class_token", [True, False], ids=["cls", "no-cls"])
def test_stacked_weights_encode_matches_per_copy(heads, use_class_token):
    """For every weight array, weights in which only that array carries k
    copies encode (S, H, W, C) images as (k, S, out_dim), every (copy,
    image) the bits of encoding that image alone with that copy; one image
    gives (k, 1, out_dim)."""
    for layers, k in itertools.product(range(3), (1, 2, 64)):
        cfg = EncoderConfig(patch_size=2, embed_dim=6, layers=layers, heads=heads,
                            ffn_hidden=5, out_dim=3, use_class_token=use_class_token)
        rng = np.random.default_rng(100 * layers + k)
        weights = init_encoder_weights(cfg, (4, 6, 2), rng)
        images = rng.normal(scale=2.0, size=(2, 4, 6, 2))
        for name in named_parameters(weights):
            stacked, plain = _copies_of(weights, name, k, rng)
            expected = np.array([[encode_with_cache(im, w, cfg)[0] for im in images] for w in plain])
            block = encode(images, stacked, cfg)
            assert block.shape == (k, 2, 3)
            assert np.array_equal(block, expected), (layers, k, name)
            single = encode(images[1], stacked, cfg)
            assert single.shape == (k, 1, 3)
            assert np.array_equal(single[:, 0], expected[:, 1]), (layers, k, name)


def test_stacked_weights_must_be_c_contiguous():
    """The pin above catches copies whose copy axis is not outermost: numpy's
    matmul runs such slices through a loop that sums in another order."""
    cfg = EncoderConfig(patch_size=2, embed_dim=8, layers=2, heads=2, ffn_hidden=16, out_dim=16)
    rng = np.random.default_rng(7)
    weights = init_encoder_weights(cfg, (4, 4, 1), rng)
    stacked, plain = _copies_of(weights, "head.w", 32, rng)
    images = rng.normal(size=(2, 4, 4, 1))
    expected = np.array([[encode(im, w, cfg) for im in images] for w in plain])
    assert np.array_equal(encode(images, stacked, cfg), expected)
    fortran = with_array(weights, "head.w", np.asfortranarray(stacked.head_w))
    assert not fortran.head_w.flags.c_contiguous
    assert np.array_equal(fortran.head_w, stacked.head_w)
    assert not np.array_equal(encode(images, fortran, cfg), expected)
