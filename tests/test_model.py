"""Architecture, receptive-field arithmetic, causality, serialization."""
import dataclasses
import itertools
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from eegitnet import model as model_module
from eegitnet.errors import FormatError
from eegitnet.fileio import (config_items, key_value_text, parse_config_items,
                             read_key_values)
from eegitnet.model import (MODEL_MAGIC, ArchConfig, arch_config_from_items, build,
                            load_model, plan_kernel, receptive_field_blocks,
                            receptive_field_plain, save_model)
from eegitnet.ops import softmax_cross_entropy
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


def test_receptive_field_is_refused_over_2_63_minus_1_samples():
    # no trial holds 2**31 samples; the bound keeps the arithmetic, and every
    # number plan prints, small whatever the layer count
    assert receptive_field_plain(2, 2, 62) == 2 ** 62
    assert receptive_field_plain(1, 3, 10 ** 12) == 1
    for args in ((2, 2, 63), (3, 2, 10 ** 12), (2, 1, 2 ** 63)):
        with pytest.raises(ValueError, match="exceeds 9223372036854775807 samples"):
            receptive_field_plain(*args)
    assert receptive_field_blocks(2, 2, 2, 62) == 2 ** 63 - 1
    with pytest.raises(ValueError, match="exceeds 9223372036854775807 samples"):
        receptive_field_blocks(3, 2, 2, 62)


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


def plan_kernel_oracle(target, m, b, n):
    """The search the closed form replaced: grow T from b + 1 until the
    stack reaches ``target`` (which it never does at n = 0 and target > 1)."""
    t = b + 1
    while rf_blocks_oracle(m, t, b, n) < target:
        t += 1
    return t


def test_plan_kernel_closed_form_matches_the_search():
    for target in (1, 2, 3, 7, 10, 64, 91, 92, 121, 400, 1023, 1024, 1025, 5000):
        for m, b, n in itertools.product((1, 2, 3), (1, 2, 3, 5), (0, 1, 2, 4, 6)):
            if target > 1 and n == 0:
                with pytest.raises(ValueError):
                    plan_kernel(target, m, b, n)
                continue
            assert plan_kernel(target, m, b, n) == plan_kernel_oracle(target, m, b, n), \
                (target, m, b, n)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_batch_of_lagged_trials_trains_as_the_plain_batch_bit_for_bit(rng, dtype):
    # training indexes its batches from trials whose lag products were built
    # once; the plain batch builds its own rows, and both take one assembly
    config = default_config(n_channels=4, n_samples=60)
    x = rng.standard_normal((12, 4, 60)).astype(dtype)
    idx = rng.permutation(12)[:6]
    labels = np.arange(6) % 4
    results = []
    for lagged in (False, True):
        model = build(config, seed=2, dtype=dtype)
        batch = model.lagged(x)[idx] if lagged else x[idx]
        logits = model.forward_logits(batch, mode="train", rng=np.random.default_rng(0))
        softmax_cross_entropy(logits, labels).backward()
        results.append([logits.data] + [p.grad for p in model.parameters()]
                       + list(model.buffers.values()))
    for plain, lagged in zip(*results):
        np.testing.assert_array_equal(lagged, plain)


def test_a_training_step_loads_no_scipy_module():
    # scipy costs start-up time and resident memory; a train-mode step
    # (forward, backward, Adam) is numpy only, so it runs in a process of its own
    probe = """
import json, sys
import numpy as np
import eegitnet
from eegitnet.model import ArchConfig, build
from eegitnet.ops import softmax_cross_entropy
from eegitnet.optim import Adam
model = build(ArchConfig(n_channels=8, n_samples=375, n_classes=2), seed=0)
rng = np.random.default_rng(0)
x = rng.standard_normal((4, 1, 8, 375)).astype(np.float32)
opt = Adam(model.parameters())
softmax_cross_entropy(model.forward_logits(x, mode="train", rng=rng), [0, 1, 0, 1]).backward()
opt.step()
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""
    src = os.path.dirname(os.path.dirname(model_module.__file__))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_conv_biases_enter_the_graph_only_through_their_norms(rng):
    # no separate bias-add node: each conv bias is a direct parent of the
    # batch norm after its conv, and of nothing else
    model = build(default_config(n_channels=4, n_samples=60), seed=2)
    x = rng.standard_normal((4, 1, 4, 60)).astype(np.float32)
    logits = model.forward_logits(Tensor(x), mode="train", rng=np.random.default_rng(0))
    consumers = {}
    seen, stack = set(), [logits]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            consumers.setdefault(id(parent), []).append(node)
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    p = model.params
    users = consumers[id(p["dr.b"])]
    assert len(users) == 1
    assert users[0]._parents[1:] == (p["dr.bn.gamma"], p["dr.bn.beta"], p["dr.b"])
    # BN1 is applied through the spatial sum, with its moments from the
    # input's lag statistics: its parents are its own parameters and the
    # bias, then the spatial conv z of the temporal conv's output u, z's
    # weights, the temporal taps and the network input; u is not among them
    for i in range(3):
        users = consumers[id(p[f"branch{i}.temporal.b"])]
        assert len(users) == 1, i
        *params, z, s, w, x_in = users[0]._parents
        assert params == [p[f"branch{i}.bn1.gamma"], p[f"branch{i}.bn1.beta"],
                          p[f"branch{i}.temporal.b"]]
        assert s is p[f"branch{i}.spatial.w"] and w is p[f"branch{i}.temporal.w"]
        u = z._parents[0]
        assert z._parents == (u, s) and u._parents == (x_in, w)
        assert np.array_equal(x_in.data, x)


def test_input_shape_validation(rng):
    model = build(default_config(n_channels=4, n_samples=60))
    with pytest.raises(ValueError):
        model.predict(rng.standard_normal((2, 1, 5, 60)).astype(np.float32))
    with pytest.raises(ValueError):
        model.predict(rng.standard_normal((2, 1, 4, 61)).astype(np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trials_fail_before_the_network_runs(rng, bad):
    model = build(default_config(n_channels=4, n_samples=60))
    x = rng.standard_normal((3, 1, 4, 60)).astype(np.float32)
    x[1, 0, 3, 17] = bad
    where = "non-finite sample at trial 1, electrode 3, sample 17"
    with pytest.raises(ValueError, match=where):
        model.predict(x)
    with pytest.raises(ValueError, match=where):
        model.forward_logits(x, mode="train", rng=rng)
    assert all(p.grad is None for p in model.parameters())


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
        np.testing.assert_array_equal(loaded.buffers[name], model.buffers[name])
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


def _corrupt_spatial_weight_name(blob):
    blob[blob.index(b"branch0.spatial.w")] = 0xFF


def _first_value(blob, name, rank):
    # the name, dtype tag, rank and extents come before the first value
    return blob.index(name) + len(name) + 2 + 4 * rank


def _corrupt_spatial_weight_value(blob):
    first = _first_value(blob, b"branch0.spatial.w", 4)
    blob[first:first + 4] = np.float32(np.nan).tobytes()


def _negative_running_variance(blob):
    first = _first_value(blob, b"tc0.bn0.running_var", 1)
    blob[first:first + 4] = np.float32(-1.0).tobytes()


def _rank_70(blob):
    # the zeros of a bias and of the running means read as extents: the
    # declared payload is empty, and numpy refuses 70 axes
    at = blob.index(b"branch0.temporal.b") + len(b"branch0.temporal.b") + 1
    blob[at] = 70


def _huge_empty_extents(blob):
    # rank 3 and extents (0, 4e9, 4e9): no values, and an array numpy
    # refuses to shape
    at = blob.index(b"branch0.spatial.w") + len(b"branch0.spatial.w") + 1
    blob[at:at + 13] = struct.pack("<B3I", 3, 0, 4_000_000_000, 4_000_000_000)


def _head_bias_as_float64(blob):
    # a well-formed float64 entry in a float32 file
    at = blob.index(b"head.b") + len(b"head.b")
    n, = struct.unpack_from("<I", blob, at + 2)   # rank 1: one extent
    values = np.frombuffer(bytes(blob[at + 6:at + 6 + 4 * n]), dtype="<f4")
    blob[at:at + 6 + 4 * n] = struct.pack("<BBI", 1, 1, n) + values.astype("<f8").tobytes()


def _version_2(blob):
    blob[len(MODEL_MAGIC):len(MODEL_MAGIC) + 4] = struct.pack("<I", 2)


@pytest.mark.parametrize("corrupt, fragment", [
    (_corrupt_spatial_weight_name, "a parameter name is not UTF-8"),
    (_corrupt_spatial_weight_value, "parameter branch0.spatial.w: non-finite value"),
    (_negative_running_variance, "parameter tc0.bn0.running_var: negative variance"),
    (_rank_70, "parameter branch0.temporal.b: rank 70 != 1"),
    (_huge_empty_extents, "parameter branch0.spatial.w: rank 3 != 4"),
    (_head_bias_as_float64,
     "parameter head.b: dtype float64 differs from the float32 of branch0.temporal.w"),
    (_version_2, "unsupported model file version 2"),
], ids=["name-not-utf8", "non-finite-value", "negative-variance", "rank-70",
        "huge-empty-extents", "mixed-dtypes", "version-2"])
def test_bad_values_in_the_parameter_file_are_reported(tmp_path, corrupt, fragment):
    model = build(default_config(n_channels=4, n_samples=60))
    path = tmp_path / "m.itnetmdl"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    corrupt(blob)
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=fragment) as err:
        load_model(path)
    assert err.value.code == "bad_value"


def test_load_state_arrays_refuses_a_negative_running_variance():
    model = build(default_config(n_channels=4, n_samples=60))
    state = model.state_arrays()
    state["tc0.bn0.running_var"][0] = -1.0
    with pytest.raises(ValueError, match="tc0.bn0.running_var: negative variance"):
        model.load_state_arrays(state)


def _drop_head_bias(state):
    del state["head.b"]


def _add_a_stray_array(state):
    state["stray.w"] = np.zeros(3, dtype=np.float32)


def _reshape_the_spatial_weight(state):
    state["branch0.spatial.w"] = state["branch0.spatial.w"][:, :, :3]


@pytest.mark.parametrize("change, fragment", [
    (_drop_head_bias, r"missing \['head.b'\], unexpected \[\]"),
    (_add_a_stray_array, r"missing \[\], unexpected \['stray.w'\]"),
    (_reshape_the_spatial_weight,
     r"parameter branch0.spatial.w: shape \(2, 1, 3, 1\) != \(2, 1, 4, 1\)"),
], ids=["missing", "extra", "misshapen"])
def test_load_state_arrays_names_a_missing_extra_or_misshapen_array(change, fragment):
    model = build(default_config(n_channels=4, n_samples=60))
    state = model.state_arrays()
    change(state)
    with pytest.raises(ValueError, match=fragment):
        model.load_state_arrays(state)
