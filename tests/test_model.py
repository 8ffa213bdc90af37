"""Architecture, receptive-field arithmetic, causality, serialization."""
import dataclasses
import struct

import numpy as np
import pytest

from eegitnet import model as model_module
from eegitnet.errors import FormatError
from eegitnet.fileio import (config_items, key_value_text, parse_config_items,
                             read_key_values)
from eegitnet.model import (ArchConfig, arch_config_from_items, build, load_model,
                            plan_kernel, receptive_field_blocks,
                            receptive_field_plain, save_model)
from eegitnet.tensor import Tensor
from eegitnet.training import TrainConfig


def default_config(**overrides):
    base = dict(n_channels=22, n_samples=375, n_classes=4)
    base.update(overrides)
    return ArchConfig(**base)


# ----------------------------------------------------------------------
# receptive field arithmetic

def rf_plain_oracle(t, b, n):
    """Accumulate layer by layer instead of using the closed form."""
    r = 1
    for i in range(n):
        r += (t - 1) * b ** i
    return r


def rf_blocks_oracle(m, t, b, n):
    r = 1
    for i in range(n):
        r += m * (t - 1) * b ** i
    return r


def test_receptive_field_plain_matches_layerwise_oracle():
    for t in range(2, 9):
        for b in range(1, t):
            for n in range(0, 6):
                assert receptive_field_plain(t, b, n) == rf_plain_oracle(t, b, n), \
                    (t, b, n)


def test_receptive_field_blocks_matches_layerwise_oracle():
    for m in range(1, 4):
        for t in range(3, 7):
            for b in range(2, t):
                for n in range(0, 5):
                    assert receptive_field_blocks(m, t, b, n) == \
                        rf_blocks_oracle(m, t, b, n)


def test_blocks_with_one_layer_equal_plain():
    for t in range(2, 9):
        for b in range(2, t):
            for n in range(0, 6):
                assert receptive_field_blocks(1, t, b, n) == \
                    receptive_field_plain(t, b, n)


def test_receptive_field_known_values():
    assert receptive_field_blocks(2, 4, 2, 4) == 91
    assert receptive_field_plain(3, 2, 3) == 15
    assert receptive_field_plain(2, 1, 5) == 6  # unit dilation limit


def test_receptive_field_total_function_on_domain():
    # the arithmetic itself is total for T >= 1, b >= 1; the kernel-exceeds-
    # base rule is enforced where a network is configured, not here
    assert receptive_field_blocks(3, 2, 2, 2) == 10
    assert receptive_field_plain(1, 3, 4) == 1  # pointwise kernels see one sample
    assert receptive_field_plain(3, 2, 0) == 1
    with pytest.raises(ValueError):
        receptive_field_plain(0, 2, 3)
    with pytest.raises(ValueError):
        receptive_field_plain(3, 0, 3)
    with pytest.raises(ValueError):
        receptive_field_plain(3, 2, -1)


def test_plan_kernel_is_minimal():
    for target in (1, 2, 10, 91, 92, 121, 400):
        t = plan_kernel(target, 2, 2, 4)
        assert receptive_field_blocks(2, t, 2, 4) >= target
        if t > 3:  # smallest legal kernel is dilation_base + 1
            assert receptive_field_blocks(2, t - 1, 2, 4) < target


def test_plan_kernel_known_answers():
    assert plan_kernel(91, 2, 2, 4) == 4
    assert plan_kernel(121, 2, 2, 4) == 5
    assert plan_kernel(1, 2, 2, 4) == 3


def test_plan_kernel_rejects_unreachable_target():
    with pytest.raises(ValueError):
        plan_kernel(50, 2, 2, 0)


# ----------------------------------------------------------------------
# configuration

def test_config_shape_bookkeeping():
    cfg = default_config()
    assert cfg.branch_filters == 14
    assert cfg.pooled1_samples == 93
    assert cfg.pooled2_samples == 23
    assert cfg.feature_dim == 14 * 23
    assert cfg.receptive_field == 91


def test_config_validation():
    with pytest.raises(ValueError):
        default_config(tc_kernel=2)  # must exceed dilation_base
    with pytest.raises(ValueError):
        default_config(dropout_rate=1.0)
    with pytest.raises(ValueError):
        default_config(n_samples=8)  # pools collapse everything


def test_config_item_round_trip():
    cfg = default_config(dropout_rate=0.25, tc_kernel=5)
    items = config_items(cfg)
    assert arch_config_from_items(items) == cfg


def test_train_config_round_trips_through_text(tmp_path):
    # every field differs from its default, and neither float has a short decimal form
    cfg = TrainConfig(max_epochs_cv=7, patience=3, extra_epochs_max=2, extra_lr=0.1 + 0.2,
                      base_lr=1 / 3, batch_size=5, folds=4, seed=11)
    path = tmp_path / "train.cfg"
    path.write_text(key_value_text(config_items(cfg)))
    items = read_key_values(path)
    assert list(items) == [f.name for f in dataclasses.fields(TrainConfig)]
    back = TrainConfig(**parse_config_items(TrainConfig, items, "train"))
    assert back == cfg


def test_config_items_reject_unknown_keys():
    items = config_items(default_config())
    items["bogus"] = "1"
    with pytest.raises(ValueError, match="unknown"):
        arch_config_from_items(items)


# ----------------------------------------------------------------------
# the built network

def test_parameter_count_default_architecture():
    model = build(default_config())
    assert model.param_count == 3252


def test_parameter_count_scales_with_head():
    two_class = build(default_config(n_classes=2))
    four_class = build(default_config())
    # only the classification head depends on the class count
    assert four_class.param_count - two_class.param_count == 2 * (14 * 23 + 1)


def test_forward_shapes_and_distribution(rng):
    model = build(default_config(), seed=1)
    x = rng.standard_normal((3, 1, 22, 375)).astype(np.float32)
    probs = model.forward(Tensor(x), mode="infer")
    assert probs.shape == (3, 4)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-5)
    labels = model.predict(x)
    np.testing.assert_array_equal(labels, np.argmax(probs.data, axis=1))


def test_three_dimensional_input_is_promoted(rng):
    model = build(default_config(n_channels=4, n_samples=100), seed=0)
    x = rng.standard_normal((2, 4, 100)).astype(np.float32)
    assert model.predict(x).shape == (2,)


def test_zero_input_gives_uniform_probabilities():
    model = build(default_config(), seed=0)
    x = np.zeros((2, 1, 22, 375), dtype=np.float32)
    probs = model.forward(Tensor(x), mode="infer").data
    np.testing.assert_allclose(probs, 0.25, atol=1e-6)


def test_build_is_deterministic():
    a = build(default_config(), seed=42)
    b = build(default_config(), seed=42)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = build(default_config(), seed=43)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params)


def test_all_parameters_receive_gradients(rng):
    from eegitnet.ops import softmax_cross_entropy
    model = build(default_config(n_channels=4, n_samples=60), seed=2)
    x = rng.standard_normal((4, 1, 4, 60)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    logits = model.forward_logits(Tensor(x), mode="train", rng=np.random.default_rng(0))
    softmax_cross_entropy(logits, labels).backward()
    missing = [n for n, p in model.params.items() if p.grad is None]
    assert not missing, f"no gradient reached: {missing}"


def test_input_shape_validation(rng):
    model = build(default_config(n_channels=4, n_samples=60))
    with pytest.raises(ValueError):
        model.predict(rng.standard_normal((2, 1, 5, 60)).astype(np.float32))
    with pytest.raises(ValueError):
        model.predict(rng.standard_normal((2, 1, 4, 61)).astype(np.float32))


# ----------------------------------------------------------------------
# isolated residual stack causality

def test_tc_stack_ignores_future_samples(rng):
    cfg = default_config(n_channels=4, n_samples=120)
    model = build(cfg, seed=5)
    width = cfg.pooled1_samples
    y = rng.standard_normal((1, 14, 1, width)).astype(np.float32)
    base = model.tc_features(Tensor(y), mode="infer").data
    probe = 20
    bumped = y.copy()
    bumped[..., probe + 1:] += rng.standard_normal(bumped[..., probe + 1:].shape) \
        .astype(np.float32)
    out = model.tc_features(Tensor(bumped), mode="infer").data
    np.testing.assert_array_equal(out[..., :probe + 1], base[..., :probe + 1])
    assert not np.array_equal(out[..., probe + 1:], base[..., probe + 1:])


def test_tc_stack_filter_axis_validated(rng):
    cfg = default_config(n_channels=4, n_samples=120)
    model = build(cfg, seed=5)
    with pytest.raises(ValueError):
        model.tc_features(Tensor(rng.standard_normal((1, 9, 1, 93)).astype(np.float32)))


# ----------------------------------------------------------------------
# serialization

def test_model_round_trip_is_bit_exact(tmp_path, rng):
    model = build(default_config(n_channels=6, n_samples=80), seed=9)
    # make running stats non-trivial first
    x = rng.standard_normal((8, 1, 6, 80)).astype(np.float32)
    model.forward_logits(Tensor(x), mode="train", rng=np.random.default_rng(1))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data,
                                      model.params[name].data)
    for name in model.buffers:
        np.testing.assert_array_equal(loaded.buffers[name].mean,
                                      model.buffers[name].mean)
        np.testing.assert_array_equal(loaded.buffers[name].var,
                                      model.buffers[name].var)
    # and the loaded model predicts identically
    np.testing.assert_array_equal(loaded.predict(x), model.predict(x))


def test_load_wraps_the_file_arrays_without_drawing_weights(tmp_path, monkeypatch):
    model = build(default_config(n_channels=6, n_samples=80), seed=9)
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_model drew a Glorot weight")

    monkeypatch.setattr(model_module, "_glorot", refuse)
    loaded = load_model(path)
    again = tmp_path / "again.itnetmdl"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert (tmp_path / "again.itnetmdl.cfg").read_bytes() == \
        (tmp_path / "m.itnetmdl.cfg").read_bytes()


def test_missing_sidecar_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    (tmp_path / "m.itnetmdl.cfg").unlink()
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "missing_config"


def test_bad_magic_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMODEL"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "bad_magic"


def test_truncated_file_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "truncated"


def test_extent_overflow_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    # append a crafted entry whose extents multiply past the element limit
    name = b"huge"
    entry = struct.pack("<H", len(name)) + name \
        + struct.pack("<BB", 0, 2) + struct.pack("<II", 2 ** 16, 2 ** 16)
    path.write_bytes(path.read_bytes() + entry)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "extent_overflow"


def test_unknown_parameter_name_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    name = b"stray.w"
    payload = np.zeros(3, dtype=np.float32).tobytes()
    entry = struct.pack("<H", len(name)) + name \
        + struct.pack("<BB", 0, 1) + struct.pack("<I", 3) + payload
    path.write_bytes(path.read_bytes() + entry)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "bad_value"


def test_wrong_shape_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    cfg = (tmp_path / "m.itnetmdl.cfg").read_text()
    (tmp_path / "m.itnetmdl.cfg").write_text(cfg.replace("n_channels=4",
                                                         "n_channels=5"))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.code == "bad_value"


def test_repeated_parameter_name_is_reported(tmp_path):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    # a second head.b entry would otherwise silently replace the first
    name = b"head.b"
    payload = np.full(4, 7.0, dtype=np.float32).tobytes()
    entry = struct.pack("<H", len(name)) + name \
        + struct.pack("<BB", 0, 1) + struct.pack("<I", 4) + payload
    path.write_bytes(path.read_bytes() + entry)
    with pytest.raises(FormatError, match="head.b") as err:
        load_model(path)
    assert err.value.code == "bad_value"


@pytest.mark.parametrize("extra, fragment", [
    ("dropout_rate=0.9\n", "duplicate key 'dropout_rate'"),
    ("pool1 4\n", "expected key=value"),
])
def test_malformed_sidecar_is_reported(tmp_path, extra, fragment):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    cfg = tmp_path / "m.itnetmdl.cfg"
    cfg.write_text(cfg.read_text() + extra)
    with pytest.raises(FormatError, match=fragment) as err:
        load_model(path)
    assert err.value.code == "bad_value"
