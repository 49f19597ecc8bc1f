"""Tests for the LSTM encoder-decoder.

The gradient oracle is a complex-step derivative over every parameter entry
(helpers.grad_check_max_rel_err); the training tests pin the determinism and
best-checkpoint contracts.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edhi.config import RunConfig
from edhi.lstm import (
    LstmEdModel,
    LstmState,
    TrainResult,
    decode_infer,
    decode_train,
    encode,
    _blocks,
    _forward_backward,
    _Workspace,
    grad_bptt,
    init_model,
    loss,
    train,
)
from helpers import (
    _ref_cell_forward,
    grad_check_max_rel_err,
    reference_cell_step,
    reference_forward_backward,
    reference_train,
    traced_peak,
)


def _zeros(p, c, l):
    """A model of the given sizes whose every parameter is zero."""
    return LstmEdModel(np.zeros_like(init_model(p, c, l, seed=0).params), p, c, l)


def _zero_model(p=2, c=3, l=4, bias=None):
    model = _zeros(p, c, l)
    if bias is not None:
        model.out_bias[...] = bias
    return model


def _zero_state(n):
    return LstmState(hidden=np.zeros((1, n)), cell=np.zeros((1, n)))


def _encoder_model(w, b, l):
    """A model whose encoder is (w, b); only encode reads it here."""
    n = b.shape[0] // 4
    model = _zeros(w.shape[1] - n, n, l)
    model.encoder.w[...] = w
    model.encoder.b[...] = b
    return model


def _per_dtype(cases):
    """Each case once per model dtype: float64 under the case's own id,
    float32 under the id with "-float32" appended."""
    return [pytest.param(case, np.float64, id=str(case)) for case in cases] + [
        pytest.param(case, np.float32, id=f"{case}-float32") for case in cases
    ]


def _as_dtype(model, dtype):
    """A copy of ``model`` whose parameters are rounded to ``dtype``."""
    return LstmEdModel(
        model.params.astype(dtype), model.input_dim, model.hidden_units, model.window_len
    )


def _ref_encode(w, b, batch):
    """Encoder final state of a (B, l, p) batch, one reference cell step at a time."""
    h = c = np.zeros((batch.shape[0], b.shape[0] // 4))
    for t in range(batch.shape[1]):
        h, c, _ = _ref_cell_forward(w, b, batch[:, t], h, c)
    return h, c


class TestLstmStep:
    """Single cell steps, run through encode on windows of one or two rows
    and checked against the reference cell in helpers."""

    def test_all_zero_parameters(self):
        model = _encoder_model(np.zeros((12, 5)), np.zeros(12), l=2)
        state = encode(model, np.array([[[1.0, -1.0], [2.0, 0.5]]]))
        # sigmoid(0)=0.5 for the gates, tanh(0)=0 for the candidate
        np.testing.assert_array_equal(state.cell, np.zeros((1, 3)))
        np.testing.assert_array_equal(state.hidden, np.zeros((1, 3)))

    def test_saturated_forget_gate_preserves_cell(self):
        rng = np.random.default_rng(1)
        n, p = 3, 2
        w = rng.uniform(-0.5, 0.5, size=(4 * n, p + n))
        b = np.zeros(4 * n)
        b[n : 2 * n] = 50.0  # forget gate pinned open
        window = rng.uniform(-1, 1, size=(1, 2, p))
        state = encode(_encoder_model(w, b, l=2), window)

        # the first step leaves a nonzero state; with f -> 1 the second
        # step's cell update reduces to c_prev + i*g
        h1, c1 = _ref_encode(w, b, window[:, :1])
        pre = np.concatenate([window[:, 1], h1], axis=1) @ w.T + b
        i = 1.0 / (1.0 + np.exp(-pre[:, :n]))
        g = np.tanh(pre[:, 3 * n :])
        np.testing.assert_allclose(state.cell, c1 + i * g, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        model = _encoder_model(np.zeros((12, 5)), np.zeros(12), l=1)
        with pytest.raises(ValueError):
            encode(model, np.array([[[1.0, 2.0, 3.0]]]))
        with pytest.raises(ValueError):
            decode_infer(model, _zero_state(4), steps=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_hidden_strictly_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 4, 3
        w = rng.uniform(-5, 5, size=(4 * n, p + n))
        b = rng.uniform(-5, 5, size=4 * n)
        window = rng.uniform(-5, 5, size=(2, 2, p))
        state = encode(_encoder_model(w, b, l=2), window)
        assert np.all(state.hidden > -1.0)
        assert np.all(state.hidden < 1.0)
        ref_h, ref_c = _ref_encode(w, b, window)
        np.testing.assert_allclose(state.hidden, ref_h, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(state.cell, ref_c, rtol=1e-12, atol=1e-14)

    def test_hidden_bounded_under_extreme_inputs(self):
        # saturation can make o*tanh(c) land exactly on +-1 in float64,
        # so the closed bound is what survives arbitrary finite inputs; the
        # cell grows by at most 1 per step, so tanh(c) saturates only after
        # ~20 steps
        n, p = 2, 2
        model = _encoder_model(
            np.full((4 * n, p + n), 100.0), np.full(4 * n, 100.0), l=20
        )
        state = encode(model, np.full((1, 20, p), 1e6))
        assert np.all(np.abs(state.hidden) <= 1.0)


class TestEncode:
    def test_zero_model_gives_zero_state(self):
        model = _zero_model()
        window = np.arange(8.0).reshape(1, 4, 2)
        state = encode(model, window)
        np.testing.assert_array_equal(state.hidden, np.zeros((1, 3)))
        np.testing.assert_array_equal(state.cell, np.zeros((1, 3)))

    def test_single_step_window_matches_reference_cell(self):
        model = init_model(2, 3, 1, seed=5)
        window = np.array([[[0.3, -0.7]]])
        state = encode(model, window)
        ref_h, ref_c = _ref_encode(model.encoder.w, model.encoder.b, window)
        np.testing.assert_allclose(state.hidden, ref_h, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(state.cell, ref_c, rtol=1e-12, atol=1e-15)

    def test_row_order_matters(self):
        model = init_model(2, 3, 4, seed=7)
        window = np.random.default_rng(2).uniform(-1, 1, size=(1, 4, 2))
        swapped = window.copy()
        swapped[0, [0, 1]] = swapped[0, [1, 0]]
        a = encode(model, window)
        b = encode(model, swapped)
        assert not np.allclose(a.hidden, b.hidden)

    def test_wrong_length_rejected(self):
        model = init_model(2, 3, 4, seed=0)
        with pytest.raises(ValueError):
            encode(model, np.zeros((1, 3, 2)))

    def test_batch_matches_single(self):
        # row k of a batch equals the batch of window k alone
        model = init_model(2, 3, 4, seed=9)
        wins = np.random.default_rng(3).uniform(-1, 1, size=(5, 4, 2))
        batched = encode(model, wins)
        for k in range(5):
            single = encode(model, wins[k : k + 1])
            np.testing.assert_allclose(batched.hidden[k], single.hidden[0], atol=1e-12)
            np.testing.assert_allclose(batched.cell[k], single.cell[0], atol=1e-12)


class TestDecode:
    def test_zero_model_predicts_bias_everywhere(self):
        model = _zero_model(p=2, c=3, l=4, bias=[0.25, -0.5])
        window = np.random.default_rng(0).uniform(-1, 1, size=(1, 4, 2))
        preds = decode_train(model, window, encode(model, window))
        np.testing.assert_array_equal(preds, np.tile([0.25, -0.5], (1, 4, 1)))
        infer = decode_infer(model, encode(model, window), steps=4)
        np.testing.assert_array_equal(infer, np.tile([0.25, -0.5], (1, 4, 1)))

    def test_prediction_count_equals_window_length(self):
        for l in (1, 2, 5):
            model = init_model(2, 3, l, seed=l)
            window = np.random.default_rng(l).uniform(-1, 1, size=(1, l, 2))
            preds = decode_train(model, window, encode(model, window))
            assert preds.shape == (1, l, 2)

    def test_single_row_uses_only_encoder_state(self):
        # with l=1 no decoder input is consumed: teacher forcing and
        # autoregressive feedback cannot differ
        model = init_model(2, 3, 1, seed=11)
        window = np.array([[[0.4, 0.9]]])
        state = encode(model, window)
        forced = decode_train(model, window, state)
        free = decode_infer(model, state, steps=1)
        np.testing.assert_array_equal(forced, free)
        expected = state.hidden @ model.out_weight + model.out_bias
        np.testing.assert_allclose(forced[:, 0], expected, atol=1e-12)

    def test_infer_differs_from_forced_on_imperfect_model(self):
        model = init_model(2, 4, 6, seed=13)
        window = np.random.default_rng(4).uniform(-1, 1, size=(1, 6, 2))
        state = encode(model, window)
        forced = decode_train(model, window, state)
        free = decode_infer(model, state, steps=6)
        assert not np.allclose(forced, free)

    def test_infer_steps_validated(self):
        model = init_model(2, 3, 4, seed=0)
        with pytest.raises(ValueError):
            decode_infer(model, _zero_state(3), steps=0)

    def test_batch_matches_single(self):
        # row k of a batch equals the batch of window k alone
        model = init_model(2, 3, 4, seed=17)
        wins = np.random.default_rng(5).uniform(-1, 1, size=(3, 4, 2))
        states = encode(model, wins)
        forced = decode_train(model, wins, states)
        free = decode_infer(model, states, steps=4)
        for k in range(3):
            one = wins[k : k + 1]
            s = encode(model, one)
            np.testing.assert_allclose(
                forced[k], decode_train(model, one, s)[0], atol=1e-12
            )
            np.testing.assert_allclose(
                free[k], decode_infer(model, s, steps=4)[0], atol=1e-12
            )


class TestBatchOnly:
    """Each entry point rejects a bare (l, p) window or (n,) state with a
    ValueError that names the batch shape it expects."""

    model = init_model(2, 3, 4, seed=0)
    window = np.random.default_rng(8).uniform(-1, 1, size=(4, 2))

    def test_encode(self):
        with pytest.raises(ValueError, match=r"shape \(B, 4, 2\), got \(4, 2\)"):
            encode(self.model, self.window)

    def test_decode_train(self):
        state = encode(self.model, self.window[None])
        with pytest.raises(ValueError, match=r"shape \(B, 4, 2\), got \(4, 2\)"):
            decode_train(self.model, self.window, state)
        two = LstmState(
            hidden=np.repeat(state.hidden, 2, axis=0),
            cell=np.repeat(state.cell, 2, axis=0),
        )
        with pytest.raises(ValueError, match="2 states for 1 windows"):
            decode_train(self.model, self.window[None], two)

    def test_decode_infer(self):
        state = encode(self.model, self.window[None])
        bare = LstmState(hidden=state.hidden[0], cell=state.cell[0])
        with pytest.raises(ValueError, match=r"shape \(B, 3\), got hidden \(3,\)"):
            decode_infer(self.model, bare, steps=4)

    def test_grad_bptt(self):
        with pytest.raises(ValueError, match=r"shape \(B, 4, 2\), got \(4, 2\)"):
            grad_bptt(self.model, self.window)

    def test_train(self):
        cfg = RunConfig(c=3, max_epochs=1, seed=0)
        batch = self.window[None]
        with pytest.raises(ValueError, match=r"training windows must have shape"):
            train(self.window, cfg, batch)
        with pytest.raises(ValueError, match=r"validation windows must have shape"):
            train(batch, cfg, self.window)


def _reference_run(model, batch):
    """Encoder state, teacher-forced and autoregressive predictions and the
    training loss of a (B, l, p) batch, one reference_cell_step at a time.

    Predictions are (l, p, B) in decoder order, state s predicting row
    l-1-s; the loss sums that layout's squared errors, as training does.
    """
    b, l, _ = batch.shape
    enc, dec = model.encoder, model.decoder

    def readout(h):
        return model.out_weight.T @ h + model.out_bias[:, None]

    h = c = np.zeros((model.hidden_units, b), batch.dtype)
    for t in range(l):
        h, c = reference_cell_step(enc.w, enc.b, batch[:, t].T, h, c)
    state = (h, c)
    forced = [readout(h)]
    for s in range(1, l):
        h, c = reference_cell_step(dec.w, dec.b, batch[:, l - s].T, h, c)
        forced.append(readout(h))
    h, c = state
    inferred = [readout(h)]
    for _ in range(1, l):
        h, c = reference_cell_step(dec.w, dec.b, inferred[-1], h, c)
        inferred.append(readout(h))
    forced, inferred = np.stack(forced), np.stack(inferred)
    diff = forced - batch[:, ::-1].transpose(1, 2, 0)
    return state, forced, inferred, float(np.sum(diff * diff))


def _assert_kernel_matches_reference(model, batch):
    (h, c), forced, inferred, want_loss = _reference_run(model, batch)
    state = encode(model, batch)
    assert np.array_equal(state.hidden, h.T)
    assert np.array_equal(state.cell, c.T)
    time_order = (2, 0, 1)
    assert np.array_equal(
        decode_train(model, batch, state), forced[::-1].transpose(time_order)
    )
    steps = batch.shape[1]
    assert np.array_equal(
        decode_infer(model, state, steps), inferred[::-1].transpose(time_order)
    )
    assert _forward_backward(model, batch)[0] == want_loss


def _random_model(p, c, l, rng):
    """A model whose every parameter, biases included, is drawn at random."""
    model = init_model(p, c, l, seed=0)
    model.params[...] = rng.normal(size=model.params.shape) * rng.choice([0.3, 1.0, 4.0])
    return model


_kernel_cases = given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)


class TestKernelBitwise:
    """The cell kernel, whose i|f|o rows are halved, against the plainly
    written reference_cell_step, with array_equal: every batch width 1-40
    (each width mod 8 takes its own GEMM tail), and the bench shapes: a
    training batch, a unit's reconstruction and train_fd001's validation
    batch. The float32 cases round the model and the batch to float32 and
    evaluate the reference in float32."""

    def _every_batch_width(self, l, p, c, seed, dtype):
        rng = np.random.default_rng(seed)
        model = _as_dtype(_random_model(p, c, l, rng), dtype)
        for b in range(1, 41):
            batch = rng.normal(size=(b, l, p)).astype(dtype)
            _assert_kernel_matches_reference(model, batch)

    @_kernel_cases
    @settings(max_examples=12, deadline=None)
    def test_every_batch_width_matches_reference(self, l, p, c, seed):
        self._every_batch_width(l, p, c, seed, np.float64)

    @_kernel_cases
    @settings(max_examples=12, deadline=None)
    def test_every_batch_width_matches_reference_in_float32(self, l, p, c, seed):
        self._every_batch_width(l, p, c, seed, np.float32)

    @pytest.mark.parametrize("b, dtype", _per_dtype([32, 223, 1178]))
    def test_bench_shapes_match_reference(self, b, dtype):
        rng = np.random.default_rng(b)
        model = _as_dtype(init_model(3, 30, 20, seed=b), dtype)
        _assert_kernel_matches_reference(model, rng.normal(size=(b, 20, 3)).astype(dtype))


class TestInferenceMemory:
    """Inference rolls two [x | h] slots, so beyond its (B, l, p) predictions
    (held twice: in decoder order, then in time order) its memory does not
    grow with the window length l. A trace of every step would add
    (l+1) (p+c) B floats."""

    B, P, C = 2000, 3, 30

    def _excess(self, l, decode):
        model = init_model(self.P, self.C, l, seed=l)
        batch = np.random.default_rng(l).normal(size=(self.B, l, self.P))
        if decode == "infer":
            state = encode(model, batch)
            peak, preds = traced_peak(lambda: decode_infer(model, state, l))
        else:
            peak, preds = traced_peak(
                lambda: decode_train(model, batch, encode(model, batch))
            )
        return peak - 2 * preds.nbytes

    @pytest.mark.parametrize("decode", ["train", "infer"])
    def test_peak_does_not_grow_with_window_length(self, decode):
        short, long = self._excess(10, decode), self._excess(40, decode)
        assert long < 1.1 * short


class TestLoss:
    def test_perfect_reconstruction_is_zero(self):
        x = np.random.default_rng(0).uniform(size=(4, 2))
        assert loss(x, x) == 0.0

    def test_single_point_example(self):
        assert loss(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]])) == pytest.approx(
            5.0
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert loss(rng.normal(size=(3, 2)), rng.normal(size=(3, 2))) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss(np.zeros((2, 2)), np.zeros((3, 2)))


class TestGradBptt:
    def test_zero_gradient_at_perfect_reconstruction(self):
        model = _zero_model(p=2, c=3, l=4, bias=[0.3, 0.6])
        window = np.tile([0.3, 0.6], (1, 4, 1))  # reconstruction is exact
        grads = grad_bptt(model, window)
        assert np.all(grads["out_w"] == 0.0)
        assert np.all(grads["out_b"] == 0.0)

    def test_matches_finite_differences_on_tiny_models(self):
        for seed in range(3):
            model = init_model(2, 4, 5, seed=seed)
            window = np.random.default_rng(100 + seed).uniform(-1, 1, size=(5, 2))
            assert grad_check_max_rel_err(model, window).rel_err < 1e-4

    def test_matches_complex_step_on_larger_models(self):
        # central differences of step 1e-5 read above 1e-4 on 11 of these 20
        # models (up to 4.1e-4), round-off on entries of small gradient; the
        # complex step has no subtraction to lose digits in
        for seed in range(20):
            model = init_model(3, 8, 6, seed=seed)
            window = np.random.default_rng(200 + seed).normal(size=(6, 3))
            assert grad_check_max_rel_err(model, window).rel_err < 1e-4

    def test_matches_finite_differences_single_row_window(self):
        model = init_model(2, 3, 1, seed=21)
        window = np.random.default_rng(6).uniform(-1, 1, size=(1, 2))
        assert grad_check_max_rel_err(model, window).rel_err < 1e-4

    def test_duplicated_window_doubles_gradient(self):
        model = init_model(2, 4, 5, seed=23)
        window = np.random.default_rng(7).uniform(-1, 1, size=(5, 2))
        single = grad_bptt(model, window[None])
        double = grad_bptt(model, np.stack([window, window]))
        for key in single:
            np.testing.assert_allclose(double[key], 2.0 * single[key], rtol=1e-12)

    @given(
        st.integers(1, 5),
        st.integers(1, 7),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 1, 1, 1, 0)
    @example(1, 5, 3, 4, 1)
    @example(4, 1, 2, 3, 2)
    @settings(max_examples=100, deadline=None)
    def test_matches_per_step_reference(self, b, l, p, c, seed):
        rng = np.random.default_rng(seed)
        model = init_model(p, c, l, seed=seed)
        batch = rng.normal(size=(b, l, p)) * rng.choice([0.1, 1.0, 3.0])
        want_loss, want = reference_forward_backward(model, batch)
        got_loss, got = _forward_backward(model, batch)
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        _assert_grads_match(_blocks(got, p, c), want)
        _, want_first = reference_forward_backward(model, batch[:1])
        _assert_grads_match(grad_bptt(model, batch[:1]), want_first)


def _assert_grads_match(got, want):
    # the weight gradients are summed over all steps in one GEMM, the
    # reference adds them step by step: entries that cancel to near zero
    # differ by round-off of ~1e-16 of the array's scale, hence the atol
    for key, ref in want.items():
        np.testing.assert_allclose(
            got[key], ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)), err_msg=key
        )


def _sinusoid_windows(n_windows, l, p, seed, phase_scale=1.0):
    rng = np.random.default_rng(seed)
    wins = []
    for _ in range(n_windows):
        phase = rng.uniform(0, 2 * np.pi) * phase_scale
        t = np.arange(l)
        cols = [np.sin(0.4 * t + phase + 0.5 * j) for j in range(p)]
        wins.append(0.8 * np.column_stack(cols))
    return wins


class TestTrain:
    def test_loss_decreases_on_sinusoid(self):
        wins = _sinusoid_windows(24, 6, 2, seed=0)
        cfg = RunConfig(c=6, max_epochs=40, batch_size=8, patience=40, seed=1)
        result = train(wins[:20], cfg, wins[20:])
        assert result.train_history[-1] < result.train_history[0]
        assert result.val_history[-1] < result.val_history[0]

    def test_training_loss_monotone_on_noiseless_signal(self):
        # identical windows, modest rate: descent should not overshoot
        base = _sinusoid_windows(1, 6, 1, seed=3)[0]
        wins = [base.copy() for _ in range(8)]
        cfg = RunConfig(
            c=4, learning_rate=3e-4, max_epochs=25, batch_size=8, patience=25, seed=2
        )
        result = train(wins, cfg, [base.copy()])
        diffs = np.diff(result.train_history)
        assert np.all(diffs <= 1e-9)

    def test_returns_best_validation_checkpoint(self):
        wins = _sinusoid_windows(30, 5, 2, seed=5)
        cfg = RunConfig(c=5, max_epochs=30, batch_size=8, patience=30, seed=3)
        result = train(wins[:24], cfg, wins[24:])
        val_batch = np.stack(wins[24:])
        returned_loss = loss(
            decode_train(result.model, val_batch, encode(result.model, val_batch)),
            val_batch,
        )
        assert returned_loss == pytest.approx(min(result.val_history), abs=1e-9)
        assert returned_loss <= result.val_history[-1] + 1e-12

    def test_same_seed_is_bit_identical(self):
        wins = _sinusoid_windows(16, 5, 2, seed=9)
        cfg = RunConfig(c=4, max_epochs=8, batch_size=4, patience=8, seed=4)
        a = train(wins[:12], cfg, wins[12:])
        b = train(wins[:12], cfg, wins[12:])
        assert np.array_equal(a.model.params, b.model.params)
        assert a.train_history == b.train_history
        assert a.val_history == b.val_history
        assert a.best_epoch == b.best_epoch

    def test_early_stopping_respects_patience(self):
        wins = _sinusoid_windows(10, 4, 1, seed=13)
        cfg = RunConfig(c=3, max_epochs=500, batch_size=4, patience=3, seed=5)
        result = train(wins[:8], cfg, wins[8:])
        assert len(result.train_history) < 500
        assert result.best_epoch <= len(result.train_history)

    def test_empty_inputs_rejected(self):
        wins = _sinusoid_windows(4, 4, 1, seed=0)
        cfg = RunConfig(c=3)
        with pytest.raises(ValueError, match="no training windows"):
            train([], cfg, wins)
        with pytest.raises(ValueError, match="validation"):
            train(wins, cfg, [])

    def test_untrained_baseline_counts_as_epoch_zero(self):
        wins = _sinusoid_windows(6, 4, 1, seed=17)
        # learning rate so large the optimizer only makes things worse
        cfg = RunConfig(
            c=3, learning_rate=50.0, max_epochs=5, batch_size=4, patience=10, seed=6
        )
        result = train(wins[:4], cfg, wins[4:])
        assert result.best_epoch == 0
        fresh = init_model(1, 3, 4, seed=6)
        assert np.array_equal(result.model.params, fresh.params)


    # each scale overflows the square of its dtype
    @pytest.mark.parametrize("overflowing, dtype", _per_dtype(["training", "validation"]))
    def test_non_finite_loss_rejected(self, overflowing, dtype):
        wins = [w.astype(dtype) for w in _sinusoid_windows(8, 4, 2, seed=19)]
        scale = 1e200 if dtype == np.float64 else 1e30
        huge = [scale * w for w in wins]
        train_wins, val_wins = (huge, wins) if overflowing == "training" else (wins, huge)
        cfg = RunConfig(c=3, max_epochs=3, batch_size=4, seed=7)
        with pytest.raises(ValueError, match=f"diverged: {overflowing} loss is inf"):
            train(train_wins[:6], cfg, val_wins[6:])

    # (config, windows: count, l, p, seed); the first clips every step, the
    # second stops early, the third never beats its untrained model
    _REFERENCE_CASES = {
        "clips": (
            RunConfig(c=4, max_epochs=6, batch_size=4, patience=6, seed=4, grad_clip_norm=0.01),
            (16, 5, 2, 9),
        ),
        "stops-early": (
            RunConfig(c=3, max_epochs=500, batch_size=4, patience=3, seed=5),
            (10, 4, 1, 13),
        ),
        "best-epoch-0": (
            RunConfig(c=3, learning_rate=50.0, max_epochs=5, batch_size=4, patience=10, seed=6),
            (6, 4, 1, 17),
        ),
        # 9 training windows: batches of 4, 4 and 1
        "last-batch-of-one": (
            RunConfig(c=4, max_epochs=4, batch_size=4, patience=4, seed=8),
            (12, 5, 2, 21),
        ),
    }

    @classmethod
    @functools.cache
    def _train_both(cls, case, dtype):
        """(train's result, reference_train's result, its per-step norms,
        the config, batches per epoch) for one reference case, trained on
        windows of ``dtype``; cached, so the two tests below that read a
        case train it once with each trainer."""
        cfg, (count, l, p, seed) = cls._REFERENCE_CASES[case]
        wins = np.stack(_sinusoid_windows(count, l, p, seed)).astype(dtype)
        cut = count * 3 // 4
        got = train(wins[:cut], cfg, wins[cut:])
        want, norms = reference_train(wins[:cut], cfg, wins[cut:])
        return got, want, norms, cfg, -(-cut // cfg.batch_size)

    @pytest.mark.parametrize("case, dtype", _per_dtype(sorted(_REFERENCE_CASES)))
    def test_matches_reference_trainer_bitwise(self, case, dtype):
        got, want, norms, cfg, _ = self._train_both(case, dtype)
        assert got.model.params.dtype == dtype
        assert got.train_history == want.train_history
        assert got.val_history == want.val_history
        assert got.best_epoch == want.best_epoch
        assert got.model.params.tobytes() == want.model.params.tobytes()
        if case == "clips":
            assert min(norms) > cfg.grad_clip_norm
        elif case == "stops-early":
            assert len(got.train_history) < cfg.max_epochs
        elif case == "last-batch-of-one":
            count = self._REFERENCE_CASES[case][1][0]
            assert count * 3 // 4 % cfg.batch_size == 1
        else:
            assert got.best_epoch == 0

    @pytest.mark.parametrize("case, dtype", _per_dtype(sorted(_REFERENCE_CASES)))
    def test_epoch_diagnostics_match_reference_norms(self, case, dtype):
        got, _, norms, cfg, per_epoch = self._train_both(case, dtype)
        epochs = [norms[at : at + per_epoch] for at in range(0, len(norms), per_epoch)]
        assert got.max_grad_norms == [max(epoch) for epoch in epochs]
        assert got.clip_counts == [
            sum(norm > cfg.grad_clip_norm for norm in epoch) for epoch in epochs
        ]
        assert len(got.epoch_seconds) == len(got.train_history) == len(epochs)
        assert all(seconds > 0.0 for seconds in got.epoch_seconds)
        if case == "clips":
            assert got.clip_counts == [per_epoch] * len(epochs)


class TestWorkspace:
    """train refills one _Workspace per batch size. A refilled workspace
    gives the bits of a fresh one, whatever model and batch it held last:
    each run copies the cell into its halved buffers again, and each
    backward pass starts from zero dh and dc."""

    @pytest.mark.parametrize("b, dtype", _per_dtype([1, 7, 32]))
    def test_reuse_matches_fresh_passes(self, b, dtype):
        rng = np.random.default_rng(b)
        models = [_as_dtype(_random_model(3, 5, 6, rng), dtype) for _ in range(2)]
        batches = [rng.normal(size=(b, 6, 3)).astype(dtype) for _ in range(2)]
        work = _Workspace(models[0], b)
        for model in models:
            for batch in batches:
                want_loss, want = _forward_backward(model, batch)
                got_loss, got = work.forward_backward(model, batch)
                assert got_loss == want_loss
                assert got.tobytes() == want.tobytes()


class TestTrainMemory:
    """train makes its buffers once per call (a workspace per batch size,
    the validation traces, Adam's temporaries), so its memory does not grow
    with the number of epochs."""

    def _excess(self, epochs):
        wins = np.stack(_sinusoid_windows(120, 10, 2, seed=epochs)).astype(np.float32)
        # 100 training windows: batches of 32 and a last one of 4
        cfg = RunConfig(c=8, max_epochs=epochs, patience=epochs + 1, seed=1)
        peak, result = traced_peak(lambda: train(wins[:100], cfg, wins[100:]))
        assert len(result.train_history) == epochs
        return peak - result.model.params.nbytes

    def test_peak_does_not_grow_with_epochs(self):
        assert self._excess(8) < 1.1 * self._excess(2)


class TestLstmEdModel:
    def test_attributes_are_views_of_params(self):
        model = init_model(2, 3, 4, seed=0)
        model.params[...] = np.arange(model.params.size)
        views = (model.encoder.w, model.encoder.b, model.decoder.w, model.decoder.b)
        blocks = [*views, model.out_weight, model.out_bias]
        # enc_w, enc_b, dec_w, dec_b, out_w, out_b, back to back
        np.testing.assert_array_equal(
            np.concatenate([b.ravel() for b in blocks]), model.params
        )
        assert [b.shape for b in blocks] == [(12, 5), (12,), (12, 5), (12,), (3, 2), (2,)]
        model.out_bias[...] = -1.0
        np.testing.assert_array_equal(model.params[-2:], [-1.0, -1.0])

    def test_grad_bptt_blocks_are_views_of_one_vector(self):
        model = init_model(2, 3, 4, seed=1)
        window = np.random.default_rng(0).uniform(-1, 1, size=(2, 4, 2))
        grads = grad_bptt(model, window)
        assert list(grads) == ["enc_w", "enc_b", "dec_w", "dec_b", "out_w", "out_b"]
        base = grads["enc_w"].base
        assert base.shape == model.params.shape
        assert all(g.base is base for g in grads.values())
        _, flat = _forward_backward(model, window)
        np.testing.assert_array_equal(base, flat)

    @pytest.mark.parametrize("size", [0, 1, 151, 153])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match=r"params must have shape \(152,\), got"):
            LstmEdModel(np.zeros(size), 2, 3, 4)

    @pytest.mark.parametrize(
        "given, want",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64), (np.int64, np.float64)],
    )
    def test_dtype_is_the_params_dtype(self, given, want):
        # float32 stays float32, anything else converts to float64; every
        # pass then runs in it, whatever the dtype of the windows fed in
        model = LstmEdModel(np.zeros(152, given), 2, 3, 4)
        assert model.params.dtype == want
        assert model.encoder.w.dtype == model.out_bias.dtype == want
        state = encode(model, np.zeros((2, 4, 2)))
        assert state.hidden.dtype == state.cell.dtype == want
        assert decode_train(model, np.zeros((2, 4, 2)), state).dtype == want
        assert decode_infer(model, state, 4).dtype == want
        assert grad_bptt(model, np.zeros((2, 4, 2)))["enc_w"].dtype == want

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            LstmEdModel(np.zeros(152), 2, 3, 0)

    def test_records_compare_by_identity(self):
        # equal parameters in distinct arrays neither raise nor compare equal
        same = TrainResult(init_model(2, 3, 4, 0)) == TrainResult(init_model(2, 3, 4, 0))
        assert same is False
        result = TrainResult(init_model(2, 3, 4, 0))
        assert result == result
        assert init_model(2, 3, 4, 0) != result.model


class TestInitModel:
    def test_forget_bias_one_other_biases_zero(self):
        model = init_model(2, 4, 5, seed=0)
        n = model.hidden_units
        for params in (model.encoder, model.decoder):
            np.testing.assert_array_equal(params.b[n : 2 * n], np.ones(n))
            np.testing.assert_array_equal(params.b[:n], np.zeros(n))
            np.testing.assert_array_equal(params.b[2 * n :], np.zeros(2 * n))
        np.testing.assert_array_equal(model.out_bias, np.zeros(2))

    def test_weights_within_fan_in_bound(self):
        model = init_model(3, 5, 4, seed=1)
        bound = 1.0 / np.sqrt(3 + 5)
        assert np.all(np.abs(model.encoder.w) <= bound)
        assert np.all(np.abs(model.decoder.w) <= bound)
        assert np.all(np.abs(model.out_weight) <= 1.0 / np.sqrt(5))

    def test_seeded_reproducibility(self):
        a = init_model(2, 3, 4, seed=42)
        b = init_model(2, 3, 4, seed=42)
        assert np.array_equal(a.encoder.w, b.encoder.w)
        assert np.array_equal(a.out_weight, b.out_weight)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_model(0, 3, 4, seed=0)
