from dataclasses import fields

import numpy as np
import pytest

import betaood.loss as loss_mod
from betaood.errors import ConfigError, DataError
from betaood.model import (
    ArchConfig,
    Checkpoint,
    ModelParams,
    TrainConfig,
    _arrays,
    _batch_gradients,
    checkpoint_from_json,
    checkpoint_to_json,
    init_params,
    param_shapes,
    predict_batch,
    train,
)

ARCH = ArchConfig(input_dim=2, hidden=(4,), label_count=2)


def _flatten(params):
    arrays = _arrays(param_shapes(params.arch), vars(params))
    return np.concatenate([a.ravel() for a in arrays])


def _grads(params, x, y):
    """Parameter gradients of the loss of one sample, as a 1-row batch."""
    return _batch_gradients(params, x[None, :], np.array([y], dtype=float))[1]


def _forward(params, x):
    """Logits of one sample, as a 1-row batch."""
    logits, _, _ = predict_batch(params, x[None, :])
    return logits.f_pos[0], logits.f_neg[0]


def _tiny_dataset(rng, n=60, d=2, labels=2):
    x = rng.normal(size=(n, d)) + 3.0 * rng.integers(0, 2, size=(n, 1))
    y = np.zeros((n, labels), dtype=int)
    y[:, 0] = (x[:, 0] > 1.5).astype(int)
    y[:, 1] = 1 - y[:, 0]
    return x, y


class TestInitParams:
    def test_same_seed_bit_identical(self):
        p1 = _flatten(init_params(ARCH, 42))
        p2 = _flatten(init_params(ARCH, 42))
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self):
        p1 = _flatten(init_params(ARCH, 1))
        p2 = _flatten(init_params(ARCH, 2))
        assert np.any(p1 != p2)

    def test_parameter_count(self):
        arch = ArchConfig(input_dim=2, hidden=(8,), label_count=3)
        assert _flatten(init_params(arch, 0)).size == 2 * 8 + 8 + 2 * (8 * 3 + 3)

    def test_biases_zero(self):
        params = init_params(ARCH, 5)
        for b in params.hidden_biases:
            assert np.all(b == 0.0)
        assert np.all(params.b_pos == 0.0)
        assert np.all(params.b_neg == 0.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(input_dim=2, hidden=(0,), label_count=2)


def _reference_init(arch, seed):
    """init_params' draw loop from before the layout table."""
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden_weights = []
    hidden_biases = []
    fan_in = arch.input_dim
    for width in arch.hidden:
        s = np.sqrt(1.0 / fan_in)
        hidden_weights.append(rng.uniform(-s, s, size=(width, fan_in)))
        hidden_biases.append(np.zeros(width))
        fan_in = width
    s = np.sqrt(1.0 / fan_in)
    w_pos = rng.uniform(-s, s, size=(arch.label_count, fan_in))
    w_neg = rng.uniform(-s, s, size=(arch.label_count, fan_in))
    return ModelParams(
        arch=arch,
        hidden_weights=hidden_weights,
        hidden_biases=hidden_biases,
        w_pos=w_pos,
        b_pos=np.zeros(arch.label_count),
        w_neg=w_neg,
        b_neg=np.zeros(arch.label_count),
    )


# the JSON of the hand-built checkpoint below, written out in full
HAND_JSON = (
    '{"arch":{"hidden":[3],"input_dim":2,"label_count":1},"format_version":1,'
    '"loss_trace":[0.75,0.5],"params":{"b_neg":[-0.5],"b_pos":[0.5],'
    '"hidden_biases":[[0.1,0.0,-0.2]],"hidden_weights":[[[0.5,-1.0],[2.0,0.25],'
    '[0.0,1.5]]],"w_neg":[[-1.0,0.0,1.0]],"w_pos":[[1.0,2.0,3.0]]},'
    '"train_config":{"batch_size":64,"epochs":2,"learning_rate_backbone":0.05,'
    '"learning_rate_head":10.0,"seed":3}}'
)


class TestLayout:
    """The parameter layout, pinned without the layout table."""

    @pytest.mark.parametrize("seed", [0, 31])
    @pytest.mark.parametrize("hidden", [(), (4,), (5, 3)])
    def test_init_equals_reference_draw_loop(self, seed, hidden):
        arch = ArchConfig(input_dim=3, hidden=hidden, label_count=2)
        got, want = init_params(arch, seed), _reference_init(arch, seed)
        for f in fields(ModelParams):
            if f.name == "arch":
                continue
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, list):
                assert len(a) == len(b) == len(hidden), f.name
            else:
                a, b = [a], [b]
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name

    def test_checkpoint_json_of_hand_built_params(self):
        params = ModelParams(
            arch=ArchConfig(input_dim=2, hidden=(3,), label_count=1),
            hidden_weights=[np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 1.5]])],
            hidden_biases=[np.array([0.1, 0.0, -0.2])],
            w_pos=np.array([[1.0, 2.0, 3.0]]),
            b_pos=np.array([0.5]),
            w_neg=np.array([[-1.0, 0.0, 1.0]]),
            b_neg=np.array([-0.5]),
        )
        ckpt = Checkpoint(params, TrainConfig(epochs=2, seed=3), loss_trace=[0.75, 0.5])
        assert checkpoint_to_json(ckpt) == HAND_JSON
        assert checkpoint_to_json(checkpoint_from_json(HAND_JSON)) == HAND_JSON


class TestForward:
    def test_zero_params_zero_logits(self):
        params = init_params(ARCH, 0)
        for w in params.hidden_weights:
            w[:] = 0.0
        params.w_pos[:] = 0.0
        params.w_neg[:] = 0.0
        f_pos, f_neg = _forward(params, np.array([1.0, -2.0]))
        np.testing.assert_array_equal(f_pos, [0.0, 0.0])
        np.testing.assert_array_equal(f_neg, [0.0, 0.0])

    def test_hand_computed_single_layer(self):
        arch = ArchConfig(input_dim=2, hidden=(2,), label_count=2)
        params = init_params(arch, 0)
        params.hidden_weights[0][:] = np.eye(2)
        params.hidden_biases[0][:] = 0.0
        params.w_pos[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        params.b_pos[:] = np.array([0.5, -0.5])
        params.w_neg[:] = np.array([[2.0, 0.0], [0.0, 2.0]])
        params.b_neg[:] = 0.0
        f_pos, f_neg = _forward(params, np.array([1.0, 2.0]))
        # hidden = elu([1, 2]) = [1, 2]
        np.testing.assert_allclose(f_pos, [1.5, 1.5])
        np.testing.assert_allclose(f_neg, [2.0, 4.0])

    def test_batch_equals_per_sample(self):
        rng = np.random.default_rng(7)
        params = init_params(ARCH, 3)
        feats = rng.normal(size=(10, 2))
        logits, _, _ = predict_batch(params, feats)
        assert logits.f_pos.shape == logits.f_neg.shape == (10, 2)
        # no batch statistics; only BLAS summation order can differ
        for i in range(10):
            f_pos, f_neg = _forward(params, feats[i])
            np.testing.assert_allclose(f_pos, logits.f_pos[i], rtol=0, atol=1e-13)
            np.testing.assert_allclose(f_neg, logits.f_neg[i], rtol=0, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        params = init_params(ARCH, 0)
        with pytest.raises(ConfigError):
            _forward(params, np.array([1.0, 2.0, 3.0]))


class TestBackward:
    def test_finite_difference_all_parameters(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(10):
            arch = ArchConfig(
                input_dim=int(rng.integers(1, 5)),
                hidden=(int(rng.integers(2, 5)),),
                label_count=int(rng.integers(1, 5)),
            )
            params = init_params(arch, int(rng.integers(0, 1000)))
            x = rng.normal(size=arch.input_dim)
            y = rng.integers(0, 2, arch.label_count)
            grads = _grads(params, x, y)
            shapes = param_shapes(arch)
            flat_grads = np.concatenate([g.ravel() for g in _arrays(shapes, grads)])
            tensors = _arrays(shapes, vars(params))
            xb = x[None, :]
            yb = np.array([y], dtype=float)
            fd = []
            for t in tensors:
                flat = t.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = np.mean(_batch_gradients(params, xb, yb)[0])
                    flat[j] = orig - h
                    dn = np.mean(_batch_gradients(params, xb, yb)[0])
                    flat[j] = orig
                    fd.append((up - dn) / (2 * h))
            fd = np.array(fd)
            mask = np.abs(fd) > 1e-8
            rel = np.abs(flat_grads[mask] - fd[mask]) / np.abs(fd[mask])
            assert rel.max() <= 1e-4
            np.testing.assert_allclose(flat_grads[~mask], fd[~mask], atol=1e-7)

    def test_label_flip_swaps_head_gradients(self):
        rng = np.random.default_rng(13)
        arch = ArchConfig(input_dim=2, hidden=(3,), label_count=1)
        params = init_params(arch, 21)
        # symmetric heads so the alpha/beta swap shows up exactly
        params.w_neg[:] = params.w_pos
        params.b_neg[:] = params.b_pos
        x = rng.normal(size=2)
        g1 = _grads(params, x, np.array([1]))
        g0 = _grads(params, x, np.array([0]))
        np.testing.assert_array_equal(g1["w_pos"], g0["w_neg"])
        np.testing.assert_array_equal(g1["w_neg"], g0["w_pos"])

    def test_stationary_point_on_slice(self):
        # shared backbone weight with opposing head pulls: raising the hidden
        # activation grows alpha (good for y=1) but grows beta twice as fast,
        # so the loss has an interior minimum along this slice
        arch = ArchConfig(input_dim=1, hidden=(1,), label_count=1)
        params = init_params(arch, 3)
        params.w_pos[0, 0] = 1.0
        params.b_pos[0] = 0.0
        params.w_neg[0, 0] = 2.0
        params.b_neg[0] = 0.0
        x = np.array([1.0])
        y = np.array([1])

        def grad_at(v):
            params.hidden_weights[0][0, 0] = v
            return _grads(params, x, y)["hidden_weights"][0][0, 0]

        lo, hi = -5.0, 5.0
        assert grad_at(lo) < 0 < grad_at(hi) or grad_at(lo) > 0 > grad_at(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if grad_at(lo) * grad_at(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(grad_at(0.5 * (lo + hi))) < 1e-10


class TestTrain:
    def test_same_seed_bit_identical_checkpoint(self):
        rng = np.random.default_rng(17)
        x, y = _tiny_dataset(rng)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=9)
        c1 = train(x, y, ARCH, cfg)
        c2 = train(x, y, ARCH, cfg)
        assert checkpoint_to_json(c1) == checkpoint_to_json(c2)

    def test_loss_descends_on_separable_data(self):
        rng = np.random.default_rng(19)
        x, y = _tiny_dataset(rng, n=200)
        cfg = TrainConfig(
            learning_rate_backbone=0.05, learning_rate_head=0.5,
            epochs=30, batch_size=32, seed=1,
        )
        ckpt = train(x, y, ARCH, cfg)
        assert ckpt.loss_trace[-1] < 0.5 * ckpt.loss_trace[0]

    def test_zero_learning_rate_freezes_params(self):
        rng = np.random.default_rng(23)
        x, y = _tiny_dataset(rng)
        cfg = TrainConfig(
            learning_rate_backbone=0.0, learning_rate_head=0.0, epochs=3,
            batch_size=16, seed=4,
        )
        ckpt = train(x, y, ARCH, cfg)
        np.testing.assert_array_equal(
            _flatten(ckpt.params), _flatten(init_params(ARCH, 4))
        )
        assert len(set(ckpt.loss_trace)) == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(np.zeros((0, 2)), np.zeros((0, 2)), ARCH, TrainConfig())

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0, "0.1"])
    def test_bad_learning_rate_names_the_key(self, rate):
        with pytest.raises(ConfigError, match="learning_rate_head"):
            TrainConfig(learning_rate_head=rate)

    def test_one_two_row_kernel_call_per_batch(self, monkeypatch):
        # each SGD batch makes one digamma and one trigamma call on its
        # (alpha + beta, labelled evidence) stack, shape (2, B, L)
        shapes = {"digamma": [], "trigamma": []}
        for name in shapes:
            original = getattr(loss_mod, f"_{name}_vec")

            def recording(x, original=original, seen=shapes[name]):
                seen.append(np.shape(x))
                return original(x)

            monkeypatch.setattr(loss_mod, f"_{name}_vec", recording)
        rng = np.random.default_rng(43)
        x, y = _tiny_dataset(rng)
        train(x, y, ARCH, TrainConfig(epochs=2, batch_size=16, seed=6))
        batch_rows = [16, 16, 16, 12] * 2
        expected = [(2, rows, ARCH.label_count) for rows in batch_rows]
        assert shapes["digamma"] == expected
        assert shapes["trigamma"] == expected


class TestPredictBatch:
    def test_empty_input(self):
        params = init_params(ARCH, 0)
        logits, ev, pred = predict_batch(params, [])
        for array in (logits.f_pos, logits.f_neg, ev.alpha, ev.beta, pred.p):
            assert array.shape == (0, ARCH.label_count)

    def test_alignment_and_consistency(self):
        rng = np.random.default_rng(29)
        params = init_params(ARCH, 31)
        feats = rng.normal(size=(5, 2))
        logits, ev, pred = predict_batch(params, feats)
        for array in (logits.f_pos, ev.alpha, ev.beta, pred.p):
            assert array.shape == (5, ARCH.label_count)
        np.testing.assert_allclose(ev.alpha / (ev.alpha + ev.beta), pred.p)
        assert np.all(ev.alpha > 1.0) and np.all(ev.beta > 1.0)


class TestCheckpointSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(37)
        x, y = _tiny_dataset(rng)
        ckpt = train(x, y, ARCH, TrainConfig(epochs=2, batch_size=16, seed=8))
        text = checkpoint_to_json(ckpt)
        restored = checkpoint_from_json(text)
        assert checkpoint_to_json(restored) == text

    def test_version_mismatch_rejected(self):
        rng = np.random.default_rng(41)
        x, y = _tiny_dataset(rng)
        ckpt = train(x, y, ARCH, TrainConfig(epochs=1, batch_size=16, seed=8))
        text = checkpoint_to_json(ckpt).replace('"format_version":1', '"format_version":99')
        with pytest.raises(DataError):
            checkpoint_from_json(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(DataError):
            checkpoint_from_json("{not json")
